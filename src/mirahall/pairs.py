"""Brute-force counting for (nilpotent operator, vector) pairs.

These are the oracles: `verify` and the tests replay them against the
closed tables of `closedform`, which serve every structure constant.
Fix the normal-form pair of a target label, sweep subspaces over a
prime field, classify the induced structures on sub and quotient.
Left actions keep the marked vector on the quotient; right actions
require the subspace to contain it.  Counting polynomials in q come
out of exact interpolation with a certified degree bound, and every
surplus sample doubles as a cross-check (`interpolate`, over the
prime fields of `primes`).

Conventions.  A label is a bipartition (lam, mu).  Its normal form
puts the operator in Jordan blocks of sizes nu = lam + mu and marks
v = sum of u^{mu_i} applied to the i-th block generator (rows with
lam_i = 0 contribute nothing).  The plain-type constant table
multiplies as: coefficient of target c in a * b counts invariant
subspaces of type a with quotient of type b.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from . import gf
from .config import _is_prime, check_prime
from .errors import (
    CostGuard,
    InsufficientSamples,
    NonIntegral,
    NotNilpotent,
    OracleMismatch,
)
from .laurent import QPoly, gauss_binomial
from .partitions import (
    Bipartition,
    Partition,
    add_parts,
    bipartitions_of,
    conjugate,
    label_size,
    n_stat,
    partitions_of,
    trim,
    xi,
)

MAX_SWEEP = 5_000_000


def normal_form(bp: Bipartition) -> tuple[np.ndarray, np.ndarray]:
    """Normal-form pair (u, v) with 0/1 entries; reduce mod p at will."""
    lam, mu = bp
    nu = add_parts(lam, mu)
    n = sum(nu)
    u = np.zeros((n, n), dtype=np.int64)
    v = np.zeros(n, dtype=np.int64)
    off = 0
    for i, part in enumerate(nu):
        for j in range(part - 1):
            u[off + j + 1, off + j] = 1
        li = lam[i] if i < len(lam) else 0
        mi = mu[i] if i < len(mu) else 0
        if li > 0:
            v[off + mi] = 1
        off += part
    return u, v


def jordan_type(u, p: int) -> Partition:
    """Jordan type of a nilpotent matrix mod p."""
    u = np.asarray(u, dtype=np.int64) % p
    n = u.shape[0]
    if n == 0:
        return ()
    tilde: list[int] = []
    prev = n
    M = u
    for _ in range(n):
        r = gf.rank(M, p)
        tilde.append(prev - r)
        prev = r
        if r == 0:
            break
        M = (M @ u) % p
    if prev != 0:
        raise NotNilpotent(f"rank stabilised at {prev} > 0")
    return conjugate(trim(tuple(tilde)))


def _krylov(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Rows v, uv, u^2 v, ... (n of them; rank gives the cyclic dimension)."""
    n = v.shape[0]
    rows = np.zeros((n, n), dtype=np.int64)
    cur = v % p
    for i in range(n):
        rows[i] = cur
        cur = (u @ cur) % p
    return rows


def pair_type(u, v, p: int) -> Bipartition:
    """Label of the pair (u, v): recovered from the types of the full
    space and of the quotient by the cyclic subspace of v."""
    u = np.asarray(u, dtype=np.int64) % p
    v = np.asarray(v, dtype=np.int64) % p
    n = v.shape[0]
    if n == 0:
        return ((), ())
    nu = jordan_type(u, p)
    K = _krylov(u, v, p)
    base = gf.rank(K, p)
    dims = [n]
    M = u
    theta_tilde: list[int] = []
    for _ in range(n):
        d = gf.rank(np.vstack([M.T, K]), p)
        theta_tilde.append(dims[-1] - d)
        dims.append(d)
        if d == base:
            break
        M = (M @ u) % p
    return xi(nu, conjugate(trim(tuple(theta_tilde))))


# --- classification helpers ------------------------------------------------


def _quotient_pair_type(
    u: np.ndarray, K: np.ndarray, wrows: np.ndarray, p: int
) -> Bipartition:
    """Pair label induced on D/W, computed from ambient ranks only.

    dim(u^k D + W) drives the operator type; adding the cyclic rows K
    of the marked vector drives the quotient-by-vector type.
    """
    n = u.shape[0]
    dim_w = wrows.shape[0]
    base_k = gf.rank(np.vstack([K, wrows]), p) if n else 0
    dims_p = [n]
    dims_k = [n]
    nu_tilde: list[int] = []
    th_tilde: list[int] = []
    M = u
    for _ in range(n):
        dp = gf.rank(np.vstack([M.T, wrows]), p)
        dk = gf.rank(np.vstack([M.T, K, wrows]), p)
        nu_tilde.append(dims_p[-1] - dp)
        th_tilde.append(dims_k[-1] - dk)
        dims_p.append(dp)
        dims_k.append(dk)
        if dp == dim_w and dk == base_k:
            break
        M = (M @ u) % p
    nu_q = conjugate(trim(tuple(nu_tilde)))
    th_q = conjugate(trim(tuple(th_tilde)))
    return xi(nu_q, th_q)


def _quotient_plain_type(u: np.ndarray, wrows: np.ndarray, p: int) -> Partition:
    """Jordan type of the operator induced on D/W."""
    n = u.shape[0]
    dim_w = wrows.shape[0]
    dims = [n]
    tilde: list[int] = []
    M = u
    for _ in range(n):
        d = gf.rank(np.vstack([M.T, wrows]), p)
        tilde.append(dims[-1] - d)
        dims.append(d)
        if d == dim_w:
            break
        M = (M @ u) % p
    return conjugate(trim(tuple(tilde)))


def _is_square_zero(tgt: Bipartition) -> bool:
    nu = add_parts(*tgt)
    return all(x == 1 for x in nu)


def _ones(k: int) -> Partition:
    return (1,) * k


def _binom(n: int, k: int, p: int) -> int:
    return gauss_binomial(n, k).evaluate(p)


def _guard_sweep(n: int, k: int, p: int) -> None:
    if _binom(n, k, p) > MAX_SWEEP:
        raise CostGuard(f"{n} choose {k} at q={p} exceeds the sweep budget")


# --- profiles: one sweep classifies every transition to a fixed target ----


@lru_cache(maxsize=None)
def left_profile(
    tgt: Bipartition, k: int, p: int
) -> Mapping[tuple[Partition, Bipartition], int]:
    """Counts of invariant k-dim subspaces W of the target pair, keyed by
    (type of u on W, pair label of the quotient)."""
    n = label_size(tgt)
    if k < 0 or k > n:
        return {}
    if _is_square_zero(tgt):
        v_nonzero = bool(tgt[0])
        out: dict = {}
        inside = _binom(n - 1, k - 1, p) if v_nonzero else 0
        total = _binom(n, k, p)
        if v_nonzero:
            if inside:
                out[(_ones(k), ((), _ones(n - k)))] = inside
            if total - inside:
                out[(_ones(k), (_ones(n - k), ()))] = total - inside
        else:
            out[(_ones(k), ((), _ones(n - k)))] = total
        return out
    return _left_profile_sweep(tgt, k, p)


def _invariant_subspaces(u, k: int, p: int):
    """Every k-dim u-invariant subspace of F_p^n, swept in batches: the
    basis rows W and the matrix C of u on the subspace, W u^T = C W."""
    for pattern, batch in gf.subspace_batches(u.shape[0], k, p):
        X = (batch @ u.T) % p
        C = X[:, :, list(pattern)]
        resid = (X - C @ batch) % p
        for b in np.nonzero(~resid.any(axis=(1, 2)))[0]:
            yield batch[b], C[b]


def _left_profile_sweep(tgt, k, p):
    u, v = normal_form(tgt)
    u, v = u % p, v % p
    _guard_sweep(u.shape[0], k, p)
    K = _krylov(u, v, p)
    out: Counter = Counter()
    for W, C in _invariant_subspaces(u, k, p):
        out[(jordan_type(C, p), _quotient_pair_type(u, K, W, p))] += 1
    return dict(out)


@lru_cache(maxsize=None)
def right_profile(
    tgt: Bipartition, k: int, p: int
) -> Mapping[tuple[Bipartition, Partition], int]:
    """Counts of invariant k-dim subspaces W containing the marked
    vector, keyed by (pair label of W, type of u on the quotient)."""
    n = label_size(tgt)
    if k < 0 or k > n:
        return {}
    if _is_square_zero(tgt):
        v_nonzero = bool(tgt[0])
        if v_nonzero:
            cnt = _binom(n - 1, k - 1, p)
            return {((_ones(k), ()), _ones(n - k)): cnt} if cnt else {}
        return {(((), _ones(k)), _ones(n - k)): _binom(n, k, p)}
    u, v = normal_form(tgt)
    u, v = u % p, v % p
    out: Counter = Counter()
    if not v.any():
        _guard_sweep(n, k, p)
        for W, C in _invariant_subspaces(u, k, p):
            out[(((), jordan_type(C, p)), _quotient_plain_type(u, W, p))] += 1
        return dict(out)
    if k == 0:
        return {}
    _guard_sweep(n - 1, k - 1, p)
    jstar = int(np.nonzero(v)[0][0])
    others = [j for j in range(n) if j != jstar]
    e0 = np.zeros(k, dtype=np.int64)
    e0[0] = 1
    for pattern, ybatch in gf.subspace_batches(n - 1, k - 1, p):
        B = ybatch.shape[0]
        L = np.zeros((B, k - 1, n), dtype=np.int64)
        L[:, :, others] = ybatch
        T = np.concatenate(
            [np.broadcast_to(v, (B, 1, n)).copy(), L], axis=1
        )
        X = (T @ u.T) % p
        c0 = X[:, :, jstar : jstar + 1]
        X1 = (X - c0 * v[None, None, :]) % p
        pcols = [others[c] for c in pattern]
        cL = X1[:, :, pcols] if pcols else X1[:, :, :0]
        resid = (X1 - cL @ L) % p
        good = np.nonzero(~resid.any(axis=(1, 2)))[0]
        for b in good:
            C = np.concatenate([c0[b], cL[b]], axis=1)  # coords in basis [v, L]
            sub = pair_type(C.T, e0, p)
            quot = _quotient_plain_type(u, T[b], p)
            out[(sub, quot)] += 1
    return dict(out)


@lru_cache(maxsize=None)
def left_elementary_profile(
    tgt: Bipartition, r: int, p: int
) -> Mapping[Bipartition, int]:
    """The (1^r) slice of left_profile, swept inside ker(u) only."""
    n = label_size(tgt)
    if r < 0 or r > n:
        return {}
    if r == 0:
        return {tgt: 1}
    if _is_square_zero(tgt):
        prof = left_profile(tgt, r, p)
        return {src: c for (w, src), c in prof.items()}
    u, v = normal_form(tgt)
    u, v = u % p, v % p
    ker = gf.nullspace(u, p)
    d = ker.shape[0]
    if r > d:
        return {}
    _guard_sweep(d, r, p)
    K = _krylov(u, v, p)
    out: Counter = Counter()
    for _pattern, batch in gf.subspace_batches(d, r, p):
        amb = (batch @ ker) % p
        for b in range(amb.shape[0]):
            out[_quotient_pair_type(u, K, amb[b], p)] += 1
    return dict(out)


@lru_cache(maxsize=None)
def right_elementary_profile(
    tgt: Bipartition, r: int, p: int
) -> Mapping[Bipartition, int]:
    """The (1^r) slice of right_profile: W must contain im(u) and the
    marked vector, so the sweep lives in a small cokernel."""
    n = label_size(tgt)
    if r < 0 or r > n:
        return {}
    if r == 0:
        return {tgt: 1}
    u, v = normal_form(tgt)
    u, v = u % p, v % p
    k = n - r
    stack = np.vstack([u.T, v[None, :]])
    B0, piv = gf.rref(stack, p)
    d0 = B0.shape[0]
    if k < d0:
        return {}
    comp = [j for j in range(n) if j not in piv]
    _guard_sweep(len(comp), k - d0, p)
    out: Counter = Counter()
    for pattern, batch in gf.subspace_batches(len(comp), k - d0, p):
        B = batch.shape[0]
        L = np.zeros((B, k - d0, n), dtype=np.int64)
        if comp:
            L[:, :, comp] = batch
        for b in range(B):
            wrows = np.vstack([B0, L[b]])
            out[_restricted_pair_type(u, v, wrows, piv, pattern, comp, p)] += 1
    return dict(out)


def _restricted_pair_type(u, v, wrows, piv, pattern, comp, p):
    """Pair label of (W, u|_W, v) for W spanned by RREF rows B0 (pivots
    piv) plus lifted rows supported on the complement columns."""
    k = wrows.shape[0]
    d0 = len(piv)
    lpiv = [comp[c] for c in pattern]

    def coords(x):
        cb = x[list(piv)] if piv else x[:0]
        x1 = (x - cb @ wrows[:d0]) % p
        cl = x1[lpiv] if lpiv else x1[:0]
        resid = (x1 - cl @ wrows[d0:]) % p
        if resid.any():
            raise OracleMismatch("vector escaped a subspace built to contain it")
        return np.concatenate([cb, cl])

    cap = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        cap[i] = coords((u @ wrows[i]) % p)
    return pair_type(cap.T, coords(v % p), p)


# --- interpolation through point counts ----------------------------------------


def interpolate(points: Iterable[tuple[int, int]], degree: int) -> QPoly:
    """Recover an integer polynomial in q from exact point values.

    `degree` is a certified upper bound.  The first degree+1 points fix
    the polynomial (Lagrange over Fractions); any further points are
    cross-checks.  Raises InsufficientSamples when too few points are
    given, NonIntegral when the fit is not an integer polynomial, and
    OracleMismatch when a surplus point disagrees with the fit.

    >>> interpolate([(2, 3), (3, 4), (5, 6)], 1).pretty()
    '1 + q'
    """
    pts = list(points)
    if degree < 0:
        # predicted identically zero; every sample must agree
        for x, y in pts:
            if y != 0:
                raise OracleMismatch(f"expected 0 at q={x}, counted {y}")
        return QPoly.zero()
    if len(pts) < degree + 1:
        raise InsufficientSamples(f"need {degree + 1} points, got {len(pts)}")
    base, extra = pts[: degree + 1], pts[degree + 1 :]
    xs = [x for x, _ in base]
    if len(set(xs)) != len(xs):
        raise ValueError("repeated sample points")
    coeffs = _lagrange(base)
    out: dict[int, int] = {}
    for e, c in enumerate(coeffs):
        if c.denominator != 1:
            raise NonIntegral(f"coefficient of q^{e} is {c}")
        if c:
            out[e] = int(c)
    fit = QPoly(out)
    for x, y in extra:
        got = fit.evaluate(x)
        if got != y:
            raise OracleMismatch(f"fit gives {got} at q={x}, counted {y}")
    return fit


def _lagrange(base: list[tuple[int, int]]) -> list[Fraction]:
    """Coefficients (ascending) of the interpolating polynomial."""
    n = len(base)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(base):
        num = [Fraction(1)]  # running product, ascending coefficients
        den = Fraction(1)
        for j, (xj, _) in enumerate(base):
            if j == i:
                continue
            # multiply num by (q - xj)
            num = [Fraction(0)] + num
            for k in range(len(num) - 1):
                num[k] -= Fraction(xj) * num[k + 1]
            den *= Fraction(xi - xj)
        scale = Fraction(yi) / den
        for k, c in enumerate(num):
            coeffs[k] += scale * c
    return coeffs


def primes(count: int, start: int = 2) -> list[int]:
    """First `count` primes that are >= start.

    >>> primes(5)
    [2, 3, 5, 7, 11]
    """
    out: list[int] = []
    n = max(2, start)
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n += 1
    return out


# --- interpolated structure constants --------------------------------------


def _assemble(cands, profiles, ps):
    for p in ps:
        for key in profiles[p]:
            if key not in cands:
                raise OracleMismatch(f"transition {key} not predicted at q={p}")
    out = {}
    for key, d in cands.items():
        pts = [(p, profiles[p].get(key, 0)) for p in ps]
        poly = interpolate(pts, d)
        if poly:
            out[key] = poly
    return out


def contains_diagram(inner: Partition, outer: Partition) -> bool:
    """Row containment of Young diagrams: inner_i <= outer_i for all i."""
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


@lru_cache(maxsize=None)
def left_constants(
    tgt: Bipartition, k: int
) -> Mapping[tuple[Partition, Bipartition], QPoly]:
    """Left counting polynomials G(q) for the target, keyed by
    (plain type of the sub, pair label of the quotient).

    Degree certificate: the count is bounded by the classical constant
    for the underlying operator types, whose degree is
    n(target) - n(sub) - n(quotient)."""
    n = label_size(tgt)
    nu_t = add_parts(*tgt)
    cands: dict = {}
    for w in partitions_of(k):
        if not contains_diagram(w, nu_t):
            continue
        for src in bipartitions_of(n - k):
            if contains_diagram(add_parts(*src), nu_t):
                cands[(w, src)] = (
                    n_stat(nu_t) - n_stat(w) - n_stat(add_parts(*src))
                )
    d_max = max(cands.values(), default=-1)
    ps = primes(max(d_max + 2, 1))
    profiles = {p: left_profile(tgt, k, p) for p in ps}
    return _assemble(cands, profiles, ps)


@lru_cache(maxsize=None)
def right_constants(
    tgt: Bipartition, k: int
) -> Mapping[tuple[Bipartition, Partition], QPoly]:
    """Right counting polynomials, keyed by (pair label of the sub,
    plain type of the quotient)."""
    n = label_size(tgt)
    nu_t = add_parts(*tgt)
    cands: dict = {}
    for src in bipartitions_of(k):
        if not contains_diagram(add_parts(*src), nu_t):
            continue
        for w in partitions_of(n - k):
            if contains_diagram(w, nu_t):
                cands[(src, w)] = (
                    n_stat(nu_t) - n_stat(add_parts(*src)) - n_stat(w)
                )
    d_max = max(cands.values(), default=-1)
    ps = primes(max(d_max + 2, 1))
    profiles = {p: right_profile(tgt, k, p) for p in ps}
    return _assemble(cands, profiles, ps)


@lru_cache(maxsize=None)
def left_elementary_constants(tgt: Bipartition, r: int) -> Mapping[Bipartition, QPoly]:
    """Left counting polynomials for the square-zero sub of rank r."""
    n = label_size(tgt)
    nu_t = add_parts(*tgt)
    cands = {
        src: n_stat(nu_t) - r * (r - 1) // 2 - n_stat(add_parts(*src))
        for src in bipartitions_of(n - r)
        if contains_diagram(add_parts(*src), nu_t)
    }
    d_max = max(cands.values(), default=-1)
    ps = primes(max(d_max + 2, 1))
    profiles = {p: left_elementary_profile(tgt, r, p) for p in ps}
    return _assemble(cands, profiles, ps)


@lru_cache(maxsize=None)
def right_elementary_constants(tgt: Bipartition, r: int) -> Mapping[Bipartition, QPoly]:
    """Right counting polynomials for square-zero quotient of rank r."""
    n = label_size(tgt)
    nu_t = add_parts(*tgt)
    cands = {
        src: n_stat(nu_t) - r * (r - 1) // 2 - n_stat(add_parts(*src))
        for src in bipartitions_of(n - r)
        if contains_diagram(add_parts(*src), nu_t)
    }
    d_max = max(cands.values(), default=-1)
    ps = primes(max(d_max + 2, 1))
    profiles = {p: right_elementary_profile(tgt, r, p) for p in ps}
    return _assemble(cands, profiles, ps)


def hall_constant(c: Partition, a: Partition, b: Partition) -> QPoly:
    """Classical counting polynomial: invariant subspaces of type a with
    quotient of type b inside the type-c module.  Realised as the left
    table of the vectorless pair."""
    if sum(a) + sum(b) != sum(c):
        return QPoly.zero()
    return left_constants(((), c), sum(a)).get((a, ((), b)), QPoly.zero())


# --- certified orbit census ------------------------------------------------


def _commutant_basis(u: np.ndarray, p: int) -> np.ndarray:
    """Rows = flattened basis of {x : xu = ux} over F_p."""
    n = u.shape[0]
    cols = []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n), dtype=np.int64)
            E[i, j] = 1
            cols.append(((E @ u - u @ E) % p).ravel())
    A = np.array(cols).T  # rows: n^2 equations, cols: n^2 unknowns
    return gf.nullspace(A, p)


def orbit_census(n: int, q: int, seed: int = 0, max_rounds: int = 512):
    """Certified orbit sizes: for each label, the number of vectors in
    the corresponding stabiliser orbit over F_q.

    Lower bound: distinct pair labels (invariants).  Upper bound:
    union-find classes merged by random invertible commutant elements
    (every merge is a true orbit relation).  Equality certifies both.
    """
    check_prime(q)
    if q**n > 4096:
        raise CostGuard(f"census over {q}^{n} vectors exceeds the budget")
    rng = random.Random(seed)
    out: dict[Bipartition, int] = {}
    for nu in partitions_of(n):
        u, _ = normal_form(((), nu))
        u = u % q
        vecs = gf.all_vectors(n, q)
        labels = [pair_type(u, vec, q) for vec in vecs]
        bucket_sizes = Counter(labels)
        parent = list(range(len(vecs)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        basis = _commutant_basis(u, q)
        classes = len(vecs)
        rounds = 0
        while classes > len(bucket_sizes):
            rounds += 1
            if rounds > max_rounds:
                raise CostGuard(f"census for type {nu} failed to certify")
            if not basis.size:
                raise CostGuard(f"empty commutant basis for type {nu}")
            coeffs = np.array(
                [rng.randrange(q) for _ in range(basis.shape[0])], dtype=np.int64
            )
            x = ((coeffs @ basis) % q).reshape(n, n)
            if gf.rank(x, q) < n:
                continue
            images = gf.vector_index((vecs @ x.T) % q, q)
            for i, j in enumerate(images):
                ri, rj = find(i), find(int(j))
                if ri != rj:
                    parent[ri] = rj
            classes = len({find(i) for i in range(len(vecs))})
        for label, cnt in bucket_sizes.items():
            assert label not in out
            out[label] = cnt
    if set(out) != set(bipartitions_of(n)):
        raise OracleMismatch("census labels do not match the label set")
    return out


# --- flag fiber oracle ------------------------------------------------------


def flag_fiber_count(bp: Bipartition, m: int, p: int) -> int:
    """Number of complete flags with u F_i <= F_{i-1} whose (n-m)-th
    step contains the marked vector, over F_p."""
    u, v = normal_form(bp)
    u, v = u % p, v % p
    n = u.shape[0]
    if m < 0 or m > n:
        return 0
    target = n - m

    def grow(rows: np.ndarray) -> int:
        level = rows.shape[0]
        if level == target:
            resid, _ = gf.reduce_against(*gf.rref(rows, p), v, p)
            if resid.any():
                return 0
        if level == n:
            return 1
        # preimage of the current step under u
        eqs = gf.nullspace(rows, p)  # rows span = kernel of eqs
        U = gf.nullspace((eqs @ u) % p, p) if eqs.size else np.eye(n, dtype=np.int64)
        # complement of rows inside U
        R, piv = gf.rref(rows, p)
        resid, _ = gf.reduce_against(R, piv, U, p)
        comp, _ = gf.rref(resid, p)
        dc = comp.shape[0]
        total = 0
        for lead in range(dc):
            tail = dc - lead - 1
            for code in range(p**tail):
                c = np.zeros(dc, dtype=np.int64)
                c[lead] = 1
                for t in range(tail):
                    c[lead + 1 + t] = (code // p**t) % p
                x = (c @ comp) % p
                total += grow(np.vstack([rows, x[None, :]]))
        return total

    return grow(np.zeros((0, n), dtype=np.int64))
