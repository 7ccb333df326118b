"""Properties of the one sparse combination type, `combination.Combination`,
under each of its four label rules: shapes (`HallElt`), pair labels
(`MirElt`), two-sided Schur pairs (`TensorSym`, no rank) and monomials
(`VarPoly`)."""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mirahall.bimodule import MirElt, TensorSym
from mirahall.hall import HallElt
from mirahall.laurent import LaurentPoly
from mirahall.oracle import VarPoly
from mirahall.partitions import partitions_of, trim, trim_pair

SHAPES = [lam for n in range(4) for lam in partitions_of(n)]
padded = st.builds(lambda lam, z: lam + (0,) * z, st.sampled_from(SHAPES), st.integers(0, 2))
pair_labels = st.tuples(padded, padded)
coeffs = st.one_of(
    st.integers(-3, 3),
    st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), max_size=3).map(LaurentPoly),
)


def monomials(n_vars):
    return st.tuples(*[st.integers(0, 2)] * n_vars)


# type -> (ranks, labels at a rank, is the label normal and fitting the rank)
RULES = {
    HallElt: (st.integers(1, 3), lambda r: padded,
              lambda k, r: k == trim(k) and len(k) <= r),
    MirElt: (st.integers(1, 3), lambda r: pair_labels,
             lambda k, r: k == trim_pair(k) and len(k[0]) <= r and len(k[1]) <= r),
    TensorSym: (st.none(), lambda r: pair_labels, lambda k, r: k == trim_pair(k)),
    VarPoly: (st.integers(1, 3), monomials,
              lambda k, r: type(k) is tuple and len(k) == r),
}
TYPES = list(RULES)


def build(cls, rank, terms):
    return TensorSym(terms) if cls is TensorSym else cls(rank, terms)


def elements(cls, rank):
    labels = RULES[cls][1](rank)
    return st.dictionaries(labels, coeffs, max_size=5).map(lambda d: build(cls, rank, d))


def results(x, y, s):
    out = [x + y, x - y, s * x, x * s]
    if type(x) is VarPoly:
        out.append(x * y)
    return out


def check_normal(x, cls, rank):
    assert type(x) is cls and x.rank == rank
    fits = RULES[cls][2]
    for k, a in x.items():
        assert fits(k, rank), k
        assert type(a) is LaurentPoly and not a.is_zero(), (k, a)
    rebuilt = build(cls, rank, dict(x.items()))
    assert rebuilt == x and hash(rebuilt) == hash(x)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
@seed(20081)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_results_are_normal(cls, data):
    rank = data.draw(RULES[cls][0])
    x, y = data.draw(elements(cls, rank)), data.draw(elements(cls, rank))
    check_normal(x, cls, rank)
    for z in results(x, y, data.draw(coeffs)):
        check_normal(z, cls, rank)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
@seed(20082)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_self_cancellation(cls, data):
    rank = data.draw(RULES[cls][0])
    x = data.draw(elements(cls, rank))
    for z in (x - x, x * 0, 0 * x, x + (-1) * x):
        assert z.is_zero() and z == build(cls, rank, {}), z


@seed(20083)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_types_and_ranks_do_not_mix(data):
    rank = data.draw(st.integers(1, 3))
    elts = [data.draw(elements(cls, None if cls is TensorSym else rank)) for cls in TYPES]
    zeros = [build(cls, rank, {}) for cls in TYPES]
    for i, j in [(i, j) for i in range(4) for j in range(4) if i != j]:
        for x, y in ((elts[i], elts[j]), (zeros[i], zeros[j])):
            assert not x == y and x != y
    for cls in (HallElt, MirElt, VarPoly):
        x = data.draw(elements(cls, rank))
        y = data.draw(elements(cls, rank + 1))
        ops = [x.__add__, x.__sub__] + ([x.__mul__] if cls is VarPoly else [])
        for op in ops:
            with pytest.raises(ValueError):
                op(y)
