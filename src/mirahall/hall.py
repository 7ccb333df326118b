"""Hall algebra of nilpotent module types, truncated at a fixed number
of rows.

An element (`HallElt`) is a `combination.Combination` of shapes.  Shapes
with more rows than `rank` span an ideal (a submodule or quotient of a
module with at most `rank` generators again has at most `rank`
generators), so its label rule drops them and leaves an honest algebra.

One driver, `monomial_action`, runs every action of the algebra one
square-zero generator at a time: `hall_mul` with the step `gen_mul`,
`bimodule.act` with `bimodule.gen_act`; its chain loop also builds the
signed Kostka operators (`c_expand`).  `gen_mul` applies one
generator's column from the closed left table at vectorless targets
(Macdonald's Hall polynomials G^c_{b (1^r)}), nonzero only when c is b
plus a vertical r-strip, so a step lists no pair label.  The oracle,
`oracle.hall_mul_direct`, counts invariant subspaces for each pair of
factors, and `oracle.psi` realises the algebra on symmetric
polynomials; only `verify` and the tests reach them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping

from .closedform import closed_left_table
from .errors import DiagonalNotUnit, OracleMismatch
from .combination import Combination
from .laurent import LaurentPoly
from .partitions import (
    Partition,
    conjugate,
    dominance_leq,
    trim,
    vertical_strips,
)
from .symfunc import elementary_expansion


class HallElt(Combination):
    """Finite formal combination of shapes with Laurent coefficients."""

    __slots__ = ()

    @staticmethod
    def _label(lam, rank: int) -> Partition | None:
        lam = trim(lam)
        return lam if len(lam) <= rank else None

    @classmethod
    def unit(cls, rank: int) -> "HallElt":
        return cls(rank, {(): 1})

    def truncate(self, rank: int) -> "HallElt":
        return HallElt(rank, self._c)


def u_elt(lam: Partition, rank: int) -> HallElt:
    return HallElt(rank, {lam: 1})


def gen_mul(r: int, x: HallElt) -> HallElt:
    """Left multiplication by the square-zero element of rank r."""
    if r < 0:
        raise ValueError("negative rank")
    if r == 0:
        return x
    return x.apply(lambda b: (
        (c, g.to_laurent())
        for c in vertical_strips(b, r, x.rank)
        if (g := closed_left_table(((), c), r).get(((), b)))
    ))


@lru_cache(maxsize=None)
def _gen_decomposition(
    lam: Partition, rank: int
) -> Mapping[tuple[int, ...], LaurentPoly]:
    """Basis element as a combination of generator monomials, found by
    peeling each monomial's dominance-leading term, checked here to be 1."""
    lam = trim(lam)
    if len(lam) > rank:
        return {}
    cols = conjugate(lam)
    mono = HallElt.unit(rank)
    for r in reversed(cols):
        mono = gen_mul(r, mono)
    lead = mono.coeff(lam)
    if lead != 1:
        raise DiagonalNotUnit(f"generator monomial lead at {lam}: {lead.pretty()}")
    out: dict[tuple[int, ...], LaurentPoly] = {cols: lead}
    for mu, c in mono._c.items():
        if mu == lam:
            continue
        if not dominance_leq(mu, lam):
            raise OracleMismatch(f"monomial for {lam} reached {mu}")
        HallElt._accumulate(out, (
            (cols2, -c * c2) for cols2, c2 in _gen_decomposition(mu, rank).items()
        ))
    return out


def monomial_action(
    a: HallElt, m: Combination, step: Callable, left: bool = True
) -> Combination:
    """`a` acting on `m`, in `m`'s type: `a`'s coefficients are summed
    per generator monomial (its shapes share most of them), then each
    monomial's chain runs once (`_run_chains`)."""
    a._check(m)
    monomials: dict[tuple[int, ...], LaurentPoly] = {}
    for w, cw in a._c.items():
        HallElt._accumulate(monomials, (
            (cols, cw * cf) for cols, cf in _gen_decomposition(w, a.rank).items()
        ))
    return _run_chains(monomials, m, step, left)


def _run_chains(monomials: Mapping[tuple[int, ...], LaurentPoly], m: Combination,
                step: Callable, left: bool = True) -> Combination:
    """The sum of each generator monomial's chain of `step(r, term)` on
    `m`, scaled by its coefficient, the last generator first on the left."""
    out: dict = {}
    for cols, scale in monomials.items():
        term = m
        for r in reversed(cols) if left else cols:
            term = step(r, term)
        m._accumulate(out, ((k, scale * c) for k, c in term._c.items()))
    return m._trusted(m.rank, out)


def hall_mul(x: HallElt, y: HallElt) -> HallElt:
    """Product via the generator decomposition of the left factor."""
    return monomial_action(x, y, gen_mul)


@lru_cache(maxsize=None)
def c_expand(lam: Partition, rank: int) -> HallElt:
    """Signed Kostka combination of basis elements: the preimage of the
    Schur function s_lam, scaled by (-v)^-((rank-1)|lam|), under the
    realisation `oracle.psi`, which sends a shape to its deformed basis
    element scaled by v^(-2 n(shape)).  So psi^-1(e_r) = v^(r(r-1))
    u_(1^r), the generator `gen_mul` applies, and s_lam is read from its
    dual Jacobi-Trudi expansion (`symfunc.elementary_expansion`) in
    e_1 .. e_rank: e_r for r > rank is u_(1^r), which the truncation at
    `rank` drops.  The coefficient of u_mu is K_{lam mu}(v^-2) v^(2 n(mu))
    up to that scale, K the deformed Kostka polynomial."""
    e = (rank - 1) * sum(lam)
    monomials = {
        degs: LaurentPoly.v_power(sum(r * (r - 1) for r in degs) - e, (-1) ** e * c)
        for degs, c in elementary_expansion(lam, rank).items()
    }
    return _run_chains(monomials, HallElt.unit(rank), gen_mul)
