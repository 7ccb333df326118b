from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirahall.errors import InsufficientSamples, NonIntegral, OracleMismatch
from mirahall.laurent import LaurentPoly, QPoly
from mirahall.pairs import interpolate, primes

lpolys = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPoly)
qpolys = st.dictionaries(
    st.integers(0, 5), st.integers(-9, 9), max_size=5
).map(QPoly)


def test_zero_and_one():
    assert LaurentPoly.zero().is_zero()
    assert not LaurentPoly.one().is_zero()
    assert LaurentPoly.one() == LaurentPoly({0: 1})
    assert LaurentPoly({2: 0}) == LaurentPoly.zero()


def test_basic_arithmetic():
    v = LaurentPoly.v_power
    p = v(1) + v(-1)
    assert p * p == v(2) + 2 + v(-2)
    assert p - p == LaurentPoly.zero()
    assert (-p) + p == 0
    assert 3 * v(2) == v(2, 3)
    assert p ** 0 == LaurentPoly.one()
    assert p ** 3 == p * p * p


def test_negative_power_unit_monomial():
    m = LaurentPoly.v_power(2, -1)
    assert m ** -1 == LaurentPoly.v_power(-2, -1)
    assert m ** -2 == LaurentPoly.v_power(-4, 1)
    with pytest.raises(ValueError):
        (LaurentPoly.one() + LaurentPoly.v_power(1)) ** -1


@given(lpolys)
def test_bar_involution(p):
    assert p.bar().bar() == p


@given(lpolys, lpolys)
def test_bar_is_ring_map(p, q):
    assert (p * q).bar() == p.bar() * q.bar()
    assert (p + q).bar() == p.bar() + q.bar()


@given(lpolys, lpolys)
def test_exact_div_roundtrip(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


def test_exact_div_failure():
    p = LaurentPoly({0: 1, 1: 1})  # 1 + v
    q = LaurentPoly({0: 1, 2: 1})  # 1 + v^2
    with pytest.raises(NonIntegral):
        q.exact_div(p)
    with pytest.raises(NonIntegral):
        LaurentPoly({0: 3}).exact_div(LaurentPoly({0: 2}))


def test_evaluate():
    p = LaurentPoly({-1: 1, 1: 1})
    assert p.evaluate(2) == Fraction(5, 2)
    assert p.evaluate(Fraction(1, 3)) == Fraction(10, 3)
    with pytest.raises(ZeroDivisionError):
        p.evaluate(0)


@given(lpolys)
def test_json_roundtrip(p):
    assert LaurentPoly.from_json(p.to_json()) == p


def test_t_poly_conversion():
    t = QPoly({0: 1, 1: 2, 3: -1})
    lp = LaurentPoly.from_t_poly(t)
    assert lp == LaurentPoly({0: 1, -2: 2, -6: -1})
    assert lp.to_t_poly() == t
    with pytest.raises(NonIntegral):
        LaurentPoly({1: 1}).to_t_poly()
    with pytest.raises(NonIntegral):
        LaurentPoly({2: 1}).to_t_poly()


def test_pretty():
    assert LaurentPoly().pretty() == "0"
    assert LaurentPoly({-2: 1, 0: 2, 2: 1}).pretty() == "v^-2 + 2 + v^2"
    assert LaurentPoly({1: -1}).pretty() == "-v"
    assert QPoly({0: 1, 1: 1}).pretty() == "1 + q"
    assert LaurentPoly({-3: 2}).latex() == "2v^{-3}"


def test_qpoly_guards():
    with pytest.raises(ValueError):
        QPoly({-1: 1})
    with pytest.raises(ValueError):
        QPoly.one() ** -1


def test_constructors_refuse_non_integers():
    # int() would truncate each of these without a word
    with pytest.raises(NonIntegral):
        LaurentPoly({0: 0.5})
    with pytest.raises(NonIntegral):
        LaurentPoly({0: 1.5})
    with pytest.raises(NonIntegral):
        QPoly({1.5: 1})
    with pytest.raises(NonIntegral):
        QPoly.from_json({"0": 1.5})
    # integral values of other types still convert
    assert LaurentPoly({2.0: 3.0}) == LaurentPoly.v_power(2, 3)
    assert QPoly({True: 2}) == QPoly.q_power(1, 2)


def _is_normal(p) -> bool:
    """p holds int exponents and nonzero int coefficients, and equals
    itself rebuilt through the validating constructor."""
    c = p._c
    return (
        all(type(e) is int and type(a) is int and a for e, a in c.items())
        and type(p)(dict(c))._c == c
    )


@given(lpolys, lpolys, qpolys, st.integers(-3, 3), st.integers(0, 3))
def test_laurent_results_are_normal(p, q, t, k, n):
    results = [
        p + q, p - q, -p, p * q, p * k, k * p, p + k, k - p, p - k,
        p ** n, p.shift(k), p.bar(), p - p, p * 0, p + (-p), p * LaurentPoly(),
        LaurentPoly.from_t_poly(t), LaurentPoly.from_t_poly(t).to_t_poly(),
    ]
    if not q.is_zero():
        results.append((p * q).exact_div(q))
    if q.as_monomial() is not None and q.as_monomial()[1] in (1, -1):
        results.append(q ** -n)
    assert all(_is_normal(r) for r in results)
    assert (p - p).is_zero() and (p * 0).is_zero() and (p + (-p)).is_zero()


@given(qpolys, qpolys, st.integers(-3, 3), st.integers(0, 3), st.integers(0, 4))
def test_qpoly_results_are_normal(p, q, k, n, e):
    results = [
        p + q, p - q, -p, p * q, p * k, k * p, p + k, k - p, p - k,
        p ** n, p - p, p * 0, p + (-p), p * QPoly(), p.to_laurent(),
        QPoly.q_power(e, k), QPoly.zero(), QPoly.one(),
    ]
    if not q.is_zero():
        results.append((p * q).exact_div(q))
    assert all(_is_normal(r) for r in results)
    assert (p - p).is_zero() and (p * 0).is_zero() and (p + (-p)).is_zero()


def _laurent_route(p: QPoly, q: QPoly) -> QPoly:
    """Quotient in Z[q] by way of Z[v, v^-1], the reference for
    QPoly.exact_div."""
    lp = p.to_laurent().exact_div(q.to_laurent())
    out = {}
    for e, a in lp.items():
        if e % 2:
            raise NonIntegral("quotient has odd v-exponent")
        out[e // 2] = a
    return QPoly(out)


def _outcome(f, *args):
    try:
        return f(*args)
    except (NonIntegral, ValueError) as exc:
        return type(exc)


@given(qpolys, qpolys, qpolys, st.integers(0, 3))
def test_qpoly_exact_div_fails_where_the_laurent_route_did(p, q, r, s):
    if q.is_zero():
        return
    # exact quotients, near misses and quotients with a pole at q = 0
    for num in (p, p * q, p * q + r, p * q * QPoly.q_power(s)):
        for den in (q, q * QPoly.q_power(s)):
            assert _outcome(QPoly.exact_div, num, den) == _outcome(_laurent_route, num, den)


@given(qpolys, st.integers(-5, 5))
def test_qpoly_evaluate_matches_naive(p, x):
    naive = sum(a * x ** e for e, a in p.items())
    assert p.evaluate(x) == naive


@given(qpolys)
def test_qpoly_to_laurent_and_back(p):
    lp = p.to_laurent()
    assert all(e % 2 == 0 for e in lp.support())
    assert lp.evaluate(3) == p.evaluate(9)


@given(qpolys, qpolys)
def test_qpoly_exact_div(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


def test_interpolate_line():
    assert interpolate([(2, 3), (3, 4), (5, 6)], 1) == QPoly({0: 1, 1: 1})


def test_interpolate_needs_enough_points():
    with pytest.raises(InsufficientSamples):
        interpolate([(2, 3), (3, 4)], 2)


def test_interpolate_nonintegral():
    with pytest.raises(NonIntegral):
        interpolate([(2, 0), (5, 1)], 1)


def test_interpolate_crosscheck_mismatch():
    with pytest.raises(OracleMismatch):
        interpolate([(2, 3), (3, 4), (5, 7)], 1)


def test_interpolate_zero_degree_bound():
    assert interpolate([(2, 0), (3, 0)], -1) == QPoly.zero()
    with pytest.raises(OracleMismatch):
        interpolate([(2, 0), (3, 1)], -1)


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=5))
def test_interpolate_recovers_poly(coeffs):
    p = QPoly(dict(enumerate(coeffs)))
    deg = len(coeffs) - 1
    pts = [(x, p.evaluate(x)) for x in primes(deg + 3)]
    assert interpolate(pts, deg) == p


def test_primes():
    assert primes(5) == [2, 3, 5, 7, 11]
    assert primes(3, start=10) == [11, 13, 17]
