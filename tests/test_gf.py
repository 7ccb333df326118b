import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirahall import gf
from mirahall.errors import UsageError
from mirahall.laurent import gauss_binomial

small_primes = st.sampled_from([2, 3, 5])


def rand_matrix(draw_rows, draw_cols, p, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, p, size=(draw_rows, draw_cols)).astype(np.int64)


@given(st.integers(1, 5), st.integers(1, 5), small_primes, st.integers(0, 10**6))
def test_rref_idempotent_and_rank(rows, cols, p, seed):
    A = rand_matrix(rows, cols, p, seed)
    R, piv = gf.rref(A, p)
    assert R.shape[0] == len(piv)
    R2, piv2 = gf.rref(R, p)
    assert piv2 == piv
    assert np.array_equal(R2, R)
    # pivot columns of an RREF hold the identity
    if piv:
        assert np.array_equal(R[:, list(piv)], np.eye(len(piv), dtype=np.int64))


def test_rref_example():
    A = [[1, 2], [2, 4]]
    R, piv = gf.rref(A, 5)
    assert piv == (0,)
    assert np.array_equal(R, [[1, 2]])
    assert gf.rank(A, 5) == 1
    assert gf.rank(A, 3) == 1
    assert gf.rank([[1, 2], [2, 1]], 5) == 2
    # same matrix drops rank mod 3
    assert gf.rank([[1, 2], [2, 1]], 3) == 1


@given(st.integers(1, 5), st.integers(1, 5), small_primes, st.integers(0, 10**6))
def test_nullspace(rows, cols, p, seed):
    A = rand_matrix(rows, cols, p, seed)
    N = gf.nullspace(A, p)
    assert N.shape[0] == cols - gf.rank(A, p)
    if N.size:
        assert not ((A @ N.T) % p).any()
        assert gf.rank(N, p) == N.shape[0]


@given(st.integers(1, 4), st.integers(0, 4), small_primes, st.integers(0, 10**6))
def test_reduce_against_membership(n, k, p, seed):
    k = min(k, n)
    W = rand_matrix(k, n, p, seed)
    R, piv = gf.rref(W, p)
    # rows of W reduce to zero against their own span
    resid, coeff = gf.reduce_against(R, piv, W, p)
    assert not resid.any()
    assert np.array_equal((coeff @ R) % p, W % p)


def test_rrefs_with_pattern_counts():
    batch = gf.rrefs_with_pattern((0, 2), 4, 3)
    # free slots: row 0 at cols 1,3 and row 1 at col 3
    assert batch.shape == (27, 2, 4)
    assert len({b.tobytes() for b in batch}) == 27
    for b in batch[:5]:
        assert b[0, 0] == 1 and b[1, 2] == 1 and b[0, 2] == 0 and b[1, 0] == 0
        assert b[1, 1] == 0


@given(st.integers(0, 5), st.integers(0, 5), small_primes)
def test_subspace_batches_total(n, k, p):
    total = sum(batch.shape[0] for _, batch in gf.subspace_batches(n, k, p))
    expected = gauss_binomial(n, k).evaluate(p)
    assert total == expected


def test_subspace_batches_distinct_spans():
    seen = set()
    for _, batch in gf.subspace_batches(4, 2, 2):
        for b in batch:
            R, _ = gf.rref(b, 2)
            key = R.tobytes()
            assert key not in seen
            seen.add(key)
    assert len(seen) == gauss_binomial(4, 2).evaluate(2)


def test_all_vectors_roundtrip():
    vecs = gf.all_vectors(3, 3)
    assert vecs.shape == (27, 3)
    idx = gf.vector_index(vecs, 3)
    assert np.array_equal(idx, np.arange(27))


def test_empty_shapes():
    R, piv = gf.rref(np.zeros((0, 4), dtype=np.int64), 2)
    assert R.shape == (0, 4) and piv == ()
    assert gf.nullspace(np.zeros((0, 3), dtype=np.int64), 2).shape == (3, 3)
    pat = list(gf.subspace_batches(3, 0, 2))
    assert len(pat) == 1 and pat[0][1].shape == (1, 0, 3)


def test_non_prime_field_is_usage_error():
    A = [[2]]
    with pytest.raises(UsageError):
        gf.rank(A, 4)
    with pytest.raises(UsageError):
        list(gf.subspace_batches(2, 1, 6))
    for call in (
        lambda: gf.rref(A, 4),
        lambda: gf.nullspace(A, 9),
        lambda: gf.reduce_against(np.eye(1, dtype=np.int64), (0,), A, 4),
        lambda: gf.rrefs_with_pattern((0,), 2, 1),
        lambda: gf.all_vectors(2, 6),
    ):
        with pytest.raises(UsageError):
            call()


def test_subspace_batches_sliced(monkeypatch):
    monkeypatch.setattr(gf, "BATCH_ROWS", 3)
    for p in (2, 3, 5):
        for n in range(6):
            for k in range(n + 1):
                sizes = [batch.shape[0] for _, batch in gf.subspace_batches(n, k, p)]
                assert max(sizes) <= 3
                assert sum(sizes) == gauss_binomial(n, k).evaluate(p)
    seen = set()
    for _, batch in gf.subspace_batches(4, 2, 3):
        for b in batch:
            seen.add(gf.rref(b, 3)[0].tobytes())
    assert len(seen) == gauss_binomial(4, 2).evaluate(3)
