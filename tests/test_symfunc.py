import pytest
from hypothesis import given, settings, strategies as st

from mirahall.laurent import LaurentPoly, QPoly
from mirahall.partitions import (
    dominance_leq,
    n_stat,
    partitions_of,
    trim,
)
from mirahall.oracle import (
    VarPoly,
    _kostka_table,
    elementary_in_vars,
    hall_littlewood_in_vars,
    hl_schur_coefficients,
    multiplicity_weight,
    schur_decompose,
    schur_in_vars,
)
from mirahall.symfunc import _charge, kostka_foulkes


def horizontal_strip_predecessors(lam, k):
    """All nu with nu <= lam rowwise, lam/nu a horizontal strip of size k."""
    lam = list(lam)
    rows = len(lam)
    out = []

    def grow(i, partial, left):
        if i == rows:
            if left == 0:
                out.append(trim(tuple(partial)))
            return
        hi = lam[i]
        lo = lam[i + 1] if i + 1 < rows else 0
        lo = max(lo, hi - left)
        for val in range(hi, lo - 1, -1):
            if partial and val > partial[-1]:
                continue
            if i + 1 < rows and val < lam[i + 1]:
                continue
            grow(i + 1, partial + [val], left - (hi - val))

    grow(0, [], k)
    return out


def ssyt_count(lam, mu):
    """Semistandard fillings of shape lam with weight mu, by peeling the
    largest letter as a horizontal strip.  Independent of the package."""
    lam, mu = trim(tuple(lam)), tuple(mu)
    while mu and mu[-1] == 0:
        mu = mu[:-1]
    if sum(lam) != sum(mu):
        return 0
    if not mu:
        return 1
    return sum(
        ssyt_count(nu, mu[:-1])
        for nu in horizontal_strip_predecessors(lam, mu[-1])
    )


small_partitions = st.integers(0, 4).flatmap(
    lambda n: st.sampled_from(list(partitions_of(n)))
)


def test_elementary_values():
    e1 = elementary_in_vars(1, 3)
    assert e1.coeff((1, 0, 0)) == LaurentPoly.one()
    assert len(e1.items()) == 3
    e3 = elementary_in_vars(3, 3)
    assert e3.items() == [((1, 1, 1), LaurentPoly.one())]
    assert elementary_in_vars(4, 3).is_zero()
    assert elementary_in_vars(0, 3) == VarPoly.one(3)


def test_varpoly_arithmetic():
    x = VarPoly(2, {(1, 0): 1})
    y = VarPoly(2, {(0, 1): 1})
    assert (x + y) * (x + y) == x * x + 2 * (x * y) + y * y
    assert (x - x).is_zero()
    with pytest.raises(ValueError):
        x + VarPoly(3)
    with pytest.raises(ValueError):
        VarPoly(2, {(1, 0, 0): 1})
    with pytest.raises(TypeError):
        VarPoly(2, {(1, 0): QPoly.q_power(1)})


def test_schur_small():
    # s_(2) = sum x_i^2 + sum_{i<j} x_i x_j
    s2 = schur_in_vars((2,), 2)
    assert s2.coeff((2, 0)) == LaurentPoly.one()
    assert s2.coeff((1, 1)) == LaurentPoly.one()
    s11 = schur_in_vars((1, 1), 2)
    assert s11 == elementary_in_vars(2, 2)
    # too many rows: zero
    assert schur_in_vars((1, 1, 1), 2).is_zero()
    s21 = schur_in_vars((2, 1), 2)
    assert s21 == VarPoly(2, {(2, 1): 1, (1, 2): 1})


def test_schur_monomials_are_ssyt_counts():
    for n in range(1, 5):
        for lam in partitions_of(n):
            s = schur_in_vars(lam, 4)
            for mu in partitions_of(n):
                expected = ssyt_count(lam, tuple(mu))
                assert s.coeff(tuple(mu) + (0,) * (4 - len(mu))) == LaurentPoly.from_int(
                    expected
                ), (lam, mu)


def test_pieri_spot():
    s1 = schur_in_vars((1,), 3)
    assert s1 * s1 == schur_in_vars((2,), 3) + schur_in_vars((1, 1), 3)
    lhs = schur_in_vars((2, 1), 3) * s1
    rhs = (
        schur_in_vars((3, 1), 3)
        + schur_in_vars((2, 2), 3)
        + schur_in_vars((2, 1, 1), 3)
    )
    assert lhs == rhs


def test_schur_decompose():
    s1 = schur_in_vars((1,), 4)
    got = schur_decompose(schur_in_vars((2, 1), 4) * s1)
    assert got == {
        (3, 1): LaurentPoly.one(),
        (2, 2): LaurentPoly.one(),
        (2, 1, 1): LaurentPoly.one(),
    }
    assert schur_decompose(schur_in_vars((3, 2), 5)) == {(3, 2): LaurentPoly.one()}


def test_multiplicity_weight():
    t = QPoly({1: 1})
    assert multiplicity_weight((), 2) == 1 + t
    assert multiplicity_weight((1, 1), 2) == 1 + t
    assert multiplicity_weight((1,), 3) == 1 + t
    assert multiplicity_weight((2, 1), 3) == QPoly.one()
    # m = 3 gives [3]! = (1+t)(1+t+t^2)
    assert multiplicity_weight((1, 1, 1), 3) == (1 + t) * (1 + t + t * t)


def test_hl_schur_coefficients_small():
    t = QPoly({1: 1})
    assert hl_schur_coefficients((), 2) == {(): QPoly.one()}
    assert hl_schur_coefficients((1,), 2) == {(1,): QPoly.one()}
    assert hl_schur_coefficients((1, 1), 2) == {(1, 1): QPoly.one()}
    assert hl_schur_coefficients((2,), 2) == {(2,): QPoly.one(), (1, 1): -t}
    got = hl_schur_coefficients((2, 1), 3)
    assert got == {(2, 1): QPoly.one(), (1, 1, 1): -(t + t * t)}


def test_hl_columns_are_elementary():
    for n_vars in (2, 3, 4):
        for r in range(1, n_vars + 1):
            lam = (1,) * r
            assert hall_littlewood_in_vars(lam, n_vars) == elementary_in_vars(
                r, n_vars
            )


def test_hl_monic_and_t_zero_is_schur():
    for n in range(0, 5):
        for lam in partitions_of(n):
            if len(lam) > 4:
                continue
            coeffs = hl_schur_coefficients(lam, 4)
            for mu, cf in coeffs.items():
                const = cf.coeff(0)
                assert const == (1 if mu == lam else 0), (lam, mu)
            poly = hall_littlewood_in_vars(lam, 4)
            assert poly.coeff(tuple(lam) + (0,) * (4 - len(lam))) == LaurentPoly.one()


def test_hl_stability():
    for n in range(0, 5):
        for lam in partitions_of(n):
            wide = hall_littlewood_in_vars(lam, n + 1) if n else hall_littlewood_in_vars(lam, 2)
            narrow = hall_littlewood_in_vars(lam, n if n else 1)
            assert wide.restrict(narrow.n_vars) == narrow, lam


def test_hl_stability_five_six():
    lam = (3, 2)
    assert hall_littlewood_in_vars(lam, 6).restrict(5) == hall_littlewood_in_vars(
        lam, 5
    )


def test_kostka_foulkes_frozen():
    t = QPoly({1: 1})
    assert kostka_foulkes((2,), (1, 1)) == t
    assert kostka_foulkes((2, 1), (1, 1, 1)) == t + t * t
    assert kostka_foulkes((3,), (1, 1, 1)) == t**3
    assert kostka_foulkes((2,), (2,)) == QPoly.one()
    assert kostka_foulkes((1, 1), (2,)).is_zero()
    assert kostka_foulkes((2,), (1,)).is_zero()


def test_kostka_dominance_support_and_degree():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                kf = kostka_foulkes(lam, mu)
                if not dominance_leq(mu, lam):
                    assert kf.is_zero(), (lam, mu)
                    continue
                assert not kf.is_zero(), (lam, mu)
                assert kf.degree() == n_stat(mu) - n_stat(lam), (lam, mu)
                assert kf.coeff(kf.degree()) == 1, (lam, mu)


def test_kostka_at_one_counts_tableaux():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert kostka_foulkes(lam, mu).evaluate(1) == ssyt_count(lam, mu), (
                    lam,
                    mu,
                )


def test_kostka_stable_in_variable_count():
    # the antisymmetriser oracle is built in n variables; the charge
    # formula has no variable count to vary
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert _kostka_table(n, n).get((lam, mu)) == _kostka_table(
                    n, n + 1
                ).get((lam, mu))


def test_charge_matches_antisymmetriser():
    pairs = 0
    for n in range(1, 7):
        oracle = _kostka_table(n, n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                want = oracle.get((lam, mu), QPoly.zero())
                assert kostka_foulkes(lam, mu) == want, (lam, mu)
                pairs += 1
    assert pairs == 209


def test_charge_of_words():
    assert _charge([1, 2, 3]) == 3
    assert _charge([3, 2, 1]) == 0
    assert _charge([3, 1, 2]) == 2
    # two standard subwords, 231 and 1, of charge 1 and 0
    assert _charge([2, 3, 1, 1]) == 1


def test_schur_equals_kostka_sum_of_hl():
    # full dual-route identity in the monomial ring
    for n in range(1, 5):
        for lam in partitions_of(n):
            if len(lam) > n:
                continue
            total = VarPoly.zero(n)
            for mu in partitions_of(n):
                kf = kostka_foulkes(lam, mu)
                if kf.is_zero():
                    continue
                total = total + LaurentPoly.from_t_poly(kf) * hall_littlewood_in_vars(
                    mu, n
                )
            assert total == schur_in_vars(lam, n), lam


@settings(max_examples=40, deadline=None)
@given(small_partitions, st.data())
def test_hl_symmetric_under_swap(lam, data):
    n_vars = 3
    poly = hall_littlewood_in_vars(lam, n_vars)
    i = data.draw(st.integers(0, n_vars - 2))
    for key, coeff in poly.items():
        swapped = list(key)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert poly.coeff(tuple(swapped)) == coeff


@settings(max_examples=30, deadline=None)
@given(small_partitions, small_partitions)
def test_schur_product_decomposes_nonneg(lam, mu):
    n_vars = 4
    a = schur_in_vars(lam, n_vars)
    b = schur_in_vars(mu, n_vars)
    if a.is_zero() or b.is_zero():
        return
    dec = schur_decompose(a * b)
    for shape, coeff in dec.items():
        assert sum(shape) == sum(lam) + sum(mu)
        mono = coeff.as_monomial()
        assert mono is not None and mono[0] == 0 and mono[1] > 0
