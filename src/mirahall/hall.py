"""Hall algebra of nilpotent module types, truncated at a fixed number
of rows.

An element (`HallElt`) is a `combination.Combination` of shapes.  Shapes
with more rows than `rank` span an ideal (a submodule or quotient of a
module with at most `rank` generators again has at most `rank`
generators), so its label rule drops them and leaves an honest algebra.

A shape acts through its own column chain, one square-zero generator
at a time.  The chain of lam's columns on the unit (`_chain_image`) is
u_lam plus shapes that lam dominates (Macdonald, Symmetric Functions
and Hall Polynomials, ch. II-III), so `shape_image` runs lam's chain
once and subtracts the images of those shapes: for `hall_mul` with the
step `gen_mul`, for `bimodule` with `bimodule.gen_act`.  `gen_mul`
applies one generator's column from the closed left table at
vectorless targets (Macdonald's Hall polynomials G^c_{b (1^r)}),
nonzero only when c is b plus a vertical r-strip, so a step lists no
pair label.  The oracle, `oracle.hall_mul_direct`, counts invariant
subspaces for each pair of factors, and `oracle.psi` realises the
algebra on symmetric polynomials; only `verify` and the tests reach
them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

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
def _chain_image(lam: Partition, rank: int) -> HallElt:
    """The chain of lam's column generators on the unit: u_lam plus
    shapes that lam dominates, its lead checked here to be exactly 1."""
    lam = trim(lam)
    chain = HallElt.unit(rank)
    for r in reversed(conjugate(lam)):
        chain = gen_mul(r, chain)
    lead = chain.coeff(lam)
    if lead != 1:
        raise DiagonalNotUnit(f"column chain lead at {lam}: {lead.pretty()}")
    for mu in chain._c:
        if not dominance_leq(mu, lam):
            raise OracleMismatch(f"column chain of {lam} reached {mu}")
    return chain


def shape_image(lam: Partition, m: Combination, step: Callable, left: bool,
                done: dict) -> Combination:
    """u_lam acting on `m`: lam's column chain of `step(r, term)` run on
    `m` once (the last column first on the left), less each shape it
    dominates times that shape's image.  `done`, which the caller owns,
    keeps each shape's image on this `m`."""
    image = done.get(lam)
    if image is None:
        cols = conjugate(lam)
        image = m
        for r in reversed(cols) if left else cols:
            image = step(r, image)
        for mu, c in _chain_image(lam, m.rank)._c.items():
            if mu != lam:
                image = image - shape_image(mu, m, step, left, done) * c
        done[lam] = image
    return image


def monomial_action(
    a: HallElt, m: Combination, step: Callable, left: bool = True
) -> Combination:
    """`a` acting on `m`, in `m`'s type: the sum of `shape_image` over
    `a`'s shapes, which share one `done`."""
    a._check(m)
    done: dict = {}
    return sum((shape_image(lam, m, step, left, done) * c for lam, c in a._c.items()),
               m.zero(m.rank))


def hall_mul(x: HallElt, y: HallElt) -> HallElt:
    """Product by the left factor's shapes, each through its column chain."""
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
    `rank` drops.  A monomial e_d1 .. e_dk (d descending) is the column
    chain of the shape whose columns are d (`_chain_image`).  The
    coefficient of u_mu is K_{lam mu}(v^-2) v^(2 n(mu)) up to that
    scale, K the deformed Kostka polynomial."""
    e = (rank - 1) * sum(lam)
    return sum((_chain_image(conjugate(degs), rank)
                * LaurentPoly.v_power(sum(r * (r - 1) for r in degs) - e, (-1) ** e * c)
                for degs, c in elementary_expansion(lam, rank).items()), HallElt.zero(rank))
