"""Dense linear algebra over prime fields.

Everything is numpy int64 with entries reduced mod p.  Matrices act on
column vectors; subspaces are stored as row-stacked basis matrices.
The batch helpers enumerate the reduced echelon bases with a fixed
pivot pattern as arrays of at most BATCH_ROWS bases, which keeps
exhaustive subspace sweeps affordable at q = 11 or 13 and their memory
independent of q.  Inverses are taken by Fermat, so every entry point
rejects a field size that is not prime.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from .config import check_prime

BATCH_ROWS = 1 << 16


def rref(mat, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form mod p.  Returns (nonzero rows, pivot columns)."""
    check_prime(p)
    A = (np.asarray(mat, dtype=np.int64) % p).copy()
    if A.ndim != 2:
        raise ValueError("rref needs a 2-d array")
    rows, cols = A.shape
    piv: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = (A[r] * pow(int(A[r, c]), p - 2, p)) % p
        col = A[:, c].copy()
        col[r] = 0
        A = (A - np.outer(col, A[r])) % p
        piv.append(c)
        r += 1
    return A[:r], tuple(piv)


def rank(mat, p: int) -> int:
    return len(rref(mat, p)[1])


def nullspace(mat, p: int) -> np.ndarray:
    """Rows spanning {x : mat @ x = 0 mod p}."""
    A = np.asarray(mat, dtype=np.int64)
    R, piv = rref(A, p)
    cols = A.shape[1]
    free = [j for j in range(cols) if j not in piv]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, j in enumerate(free):
        basis[i, j] = 1
        for r, pc in enumerate(piv):
            basis[i, pc] = (-R[r, j]) % p
    return basis


def reduce_against(R: np.ndarray, piv: tuple[int, ...], X, p: int):
    """Eliminate the pivot coordinates of X against RREF rows R.

    X has shape (..., n).  Returns (residual, coefficients); X lies in
    the row span of R exactly when its residual vanishes, and then
    X = coefficients @ R.
    """
    check_prime(p)
    X = np.asarray(X, dtype=np.int64) % p
    if len(piv) == 0:
        return X, X[..., :0]
    C = X[..., list(piv)]
    resid = (X - C @ R) % p
    return resid, C


def _free_slots(pattern: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    pivset = set(pattern)
    return [
        (i, j)
        for i in range(len(pattern))
        for j in range(pattern[i] + 1, n)
        if j not in pivset
    ]


def rrefs_with_pattern(
    pattern: tuple[int, ...], n: int, p: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """RREF bases with the given pivot columns, shape (B, k, n).

    The p**free bases are numbered by their free entries read as base-p
    digits; rows start..stop-1 of that numbering are built (all of them
    by default)."""
    check_prime(p)
    k = len(pattern)
    free = _free_slots(pattern, n)
    if stop is None:
        stop = p ** len(free)
    R = np.zeros((stop - start, k, n), dtype=np.int64)
    for i, c in enumerate(pattern):
        R[:, i, c] = 1
    idx = np.arange(start, stop, dtype=np.int64)
    for pos, (i, j) in enumerate(free):
        R[:, i, j] = (idx // p**pos) % p
    return R


def subspace_batches(
    n: int, k: int, p: int
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """All k-dimensional subspaces of F_p^n, in batches of at most
    BATCH_ROWS bases that share one pivot pattern."""
    check_prime(p)
    for pattern in combinations(range(n), k):
        total = p ** len(_free_slots(pattern, n))
        for start in range(0, total, BATCH_ROWS):
            stop = min(start + BATCH_ROWS, total)
            yield pattern, rrefs_with_pattern(pattern, n, p, start, stop)


def all_vectors(n: int, p: int) -> np.ndarray:
    """Every vector of F_p^n, shape (p**n, n); row index = sum x_j p**j."""
    check_prime(p)
    B = p**n
    out = np.zeros((B, n), dtype=np.int64)
    idx = np.arange(B, dtype=np.int64)
    for j in range(n):
        out[:, j] = (idx // p**j) % p
    return out


def vector_index(vecs: np.ndarray, p: int) -> np.ndarray:
    """Inverse of the all_vectors row encoding."""
    n = vecs.shape[-1]
    weights = p ** np.arange(n, dtype=np.int64)
    return (vecs % p) @ weights
