"""Hall algebra of nilpotent module types, truncated at a fixed number
of rows.

An element (`HallElt`) is a `laurent.Combination` of shapes.  Shapes
with more rows than `rank` span an ideal (a submodule or quotient of a
module with at most `rank` generators again has at most `rank`
generators), so its label rule drops them and leaves an honest algebra.

`hall_mul` expresses each basis element through monomials in the
square-zero elements and multiplies one generator at a time, reading
each generator's constants from the closed left table at vectorless
targets (Macdonald's Hall polynomials G^c_{b (1^r)}).  The oracle,
`oracle.hall_mul_direct`, counts invariant subspaces for each pair of
factors, and `oracle.psi` realises the algebra on symmetric
polynomials; only `verify` and the tests reach them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .closedform import closed_form_G
from .errors import CostGuard, DiagonalNotUnit, OracleMismatch
from .laurent import Combination, LaurentPoly
from .partitions import (
    Partition,
    bipartition_count,
    conjugate,
    dominance_leq,
    n_stat,
    partitions_of,
    trim,
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
    if r > x.rank:
        return HallElt.zero(x.rank)
    out: dict[Partition, LaurentPoly] = {}
    for b, cb in x._c.items():
        HallElt._accumulate(out, (
            (c, cb * g.to_laurent())
            for (a, c), g in closed_form_G(r, ((), b)).items()
            if not a and len(c) <= x.rank
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


# Budget for one product `hall_mul(u_x, u_y)`, in units of work: a
# generator step of rank r landing on size m builds the closed left
# table of every label of size m at r, and costs the classes those
# tables run through (`_table_classes`) plus a sixteenth per label.
# Cold on a 2-vCPU box a unit took 0.34 to 0.59 ms over 23 products:
# (10) * (1^4) 67,415 units in 24 s and (16) * (1) 195,967 in 96 s are
# accepted; (10,3) * (3,1) 200,413 in 101 s, (5) * (13) 203,328 in
# 89 s and (6,1) * (9,1) 205,402 in 103 s are refused.  A refused
# product takes at least 68 s at the fastest rate seen.
MAX_HALL_WORK = 200_000
LABELS_PER_UNIT = 16


@lru_cache(maxsize=None)
def _table_classes(n: int, top: int) -> tuple[tuple[int, ...], ...]:
    """out[m][r], for m <= n and r <= top: the classes that
    `closed_left_table` runs through at rank r over all labels of size
    m, one per way of taking r rows of nu = lam + mu (rows of equal
    length alike), counted without listing any label.

    The labels with lam + mu = nu number the product over rows of
    nu_i - nu_(i+1) + 1, and the ways to take r rows are the t^r
    coefficient of the product over lengths k of 1 + ... + t^(d_k), d_k
    the rows of length k; both factor over the distinct parts of nu."""
    # grown[s][k]: summed over the partitions of s with largest part k
    grown: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
    grown[0][0] = [1] + [0] * top
    for k in range(n + 1):
        for s in range(n + 1 - k):
            poly = grown[s].get(k)
            if poly is None:
                continue
            for k2 in range(k + 1, n - s + 1):
                weight = k2 - k + 1
                runs = list(poly)
                for d in range(1, (n - s) // k2 + 1):
                    # runs = poly * (1 + t + ... + t^d)
                    for j in range(top, d - 1, -1):
                        runs[j] += poly[j - d]
                    cell = grown[s + k2 * d].setdefault(k2, [0] * (top + 1))
                    for j in range(top + 1):
                        cell[j] += weight * runs[j]
    return tuple(
        tuple(sum(col) for col in zip(*grown[m].values())) for m in range(n + 1)
    )


def _hall_steps(x: Partition, y: Partition, rank: int) -> set[tuple[int, int]]:
    """(size landed on, rank) of every generator step that
    `hall_mul(u_elt(x, rank), u_elt(y, rank))` takes: those of
    `_gen_decomposition` over the shapes it reaches from x (dominated by
    x, at most `rank` rows), from the empty shape, and of each of their
    monomials applied to y."""
    steps = set()
    for mu in partitions_of(sum(x)):
        if len(mu) > rank or not dominance_leq(mu, x):
            continue
        cols = conjugate(mu)
        for start in (0, sum(y)):
            size = start
            for r in reversed(cols):
                size += r
                steps.add((size, r))
    return steps


def hall_work(x: Partition, y: Partition, rank: int) -> int:
    """The work of `hall_mul(u_elt(x, rank), u_elt(y, rank))` from cold
    caches (see MAX_HALL_WORK), counted without building any table."""
    x, y = trim(x), trim(y)
    steps = _hall_steps(x, y, rank)
    if not steps:
        return 0
    classes = _table_classes(max(m for m, _ in steps), max(r for _, r in steps))
    return sum(
        classes[m][r] + bipartition_count(m) // LABELS_PER_UNIT for m, r in steps
    )


def check_hall_cost(x: Partition, y: Partition, rank: int) -> None:
    """Refuse a product u_x * u_y at `rank` whose work passes
    MAX_HALL_WORK, before any table work.  The last step of x's own
    monomial lands on size n = |x| + |y| and lists its labels, so a size
    with more labels than that part of the budget allows is refused
    without listing any shape."""
    x, y = trim(x), trim(y)
    n = sum(x) + sum(y)
    if x and bipartition_count(n) // LABELS_PER_UNIT > MAX_HALL_WORK:
        raise CostGuard(
            f"product {x} * {y} at size {n} is past the budget of "
            f"{MAX_HALL_WORK} units of work in its last step alone"
        )
    work = hall_work(x, y, rank)
    if work > MAX_HALL_WORK:
        raise CostGuard(
            f"product {x} * {y} at rank {rank} takes {work} units of work, "
            f"above the budget of {MAX_HALL_WORK}"
        )


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


