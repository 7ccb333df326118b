"""Hall algebra of nilpotent module types, truncated at a fixed number
of rows.

An element (`HallElt`) is a `laurent.Combination` of shapes.  Shapes
with more rows than `rank` span an ideal (a submodule or quotient of a
module with at most `rank` generators again has at most `rank`
generators), so its label rule drops them and leaves an honest algebra.

`hall_mul` expresses each basis element through monomials in the
square-zero elements and multiplies one generator at a time, reading
each generator's constants from the closed left table at vectorless
targets (Macdonald's Hall polynomials G^c_{b (1^r)}).  Those are
nonzero only when c is b plus a vertical r-strip, so a step reads the
tables at ((), c) for those c alone and lists no pair label.  The oracle,
`oracle.hall_mul_direct`, counts invariant subspaces for each pair of
factors, and `oracle.psi` realises the algebra on symmetric
polynomials; only `verify` and the tests reach them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .closedform import closed_left_table
from .errors import DiagonalNotUnit, OracleMismatch
from .laurent import Combination, LaurentPoly
from .partitions import (
    Partition,
    conjugate,
    dominance_leq,
    n_stat,
    partitions_of,
    trim,
    vertical_strips,
)
from .symfunc import kostka_foulkes


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
    out: dict[Partition, LaurentPoly] = {}
    for b, cb in x._c.items():
        HallElt._accumulate(out, (
            (c, cb * g.to_laurent())
            for c in vertical_strips(b, r, x.rank)
            if (g := closed_left_table(((), c), r).get(((), b)))
        ))
    return HallElt._trusted(x.rank, out)


@lru_cache(maxsize=None)
def _gen_decomposition(
    lam: Partition, rank: int
) -> Mapping[tuple[int, ...], LaurentPoly]:
    """Basis element as a combination of generator monomials, found by
    peeling the dominance-leading term of each monomial."""
    lam = trim(lam)
    if len(lam) > rank:
        return {}
    cols = conjugate(lam)
    mono = HallElt.unit(rank)
    for r in reversed(cols):
        mono = gen_mul(r, mono)
    lead = mono.coeff(lam)
    if not lead.is_unit_monomial():
        raise DiagonalNotUnit(f"generator monomial lead at {lam}: {lead.pretty()}")
    inv = lead**-1
    out: dict[tuple[int, ...], LaurentPoly] = {cols: inv}
    for mu, c in mono._c.items():
        if mu == lam:
            continue
        if not dominance_leq(mu, lam):
            raise OracleMismatch(f"monomial for {lam} reached {mu}")
        scale = -inv * c
        HallElt._accumulate(out, (
            (cols2, scale * c2) for cols2, c2 in _gen_decomposition(mu, rank).items()
        ))
    return out


def hall_mul(x: HallElt, y: HallElt) -> HallElt:
    """Product via the generator decomposition of the left factor."""
    x._check(y)
    out: dict[Partition, LaurentPoly] = {}
    for a, ca in x._c.items():
        for cols, cf in _gen_decomposition(a, x.rank).items():
            term = y
            for r in reversed(cols):
                term = gen_mul(r, term)
            scale = ca * cf
            HallElt._accumulate(out, ((k, scale * c) for k, c in term._c.items()))
    return HallElt._trusted(x.rank, out)


def c_expand(lam: Partition, rank: int) -> HallElt:
    """Signed Kostka combination of basis elements; the image of the
    shape under the involution-adapted change of basis."""
    lam = trim(lam)
    n = sum(lam)
    e = (rank - 1) * n
    # the constructor drops the zero Kostka polynomials
    return (-1) ** e * HallElt(rank, {
        mu: LaurentPoly.from_t_poly(kostka_foulkes(lam, mu)).shift(2 * n_stat(mu) - e)
        for mu in partitions_of(n)
        if len(mu) <= rank
    })


