"""Hall algebra of nilpotent module types, truncated at a fixed number
of rows.

Shapes with more rows than `rank` span an ideal (a submodule or
quotient of a module with at most `rank` generators again has at most
`rank` generators), so dropping them leaves an honest algebra.

Products are computed two ways.  `hall_mul` expresses each basis
element through monomials in the square-zero elements and multiplies
one generator at a time, reading each generator's constants from the
closed left table at vectorless targets (Macdonald's Hall polynomials
G^c_{b (1^r)}).  `hall_mul_direct` counts invariant subspaces for each
pair of factors; it is the oracle that `verify` and the tests replay.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .closedform import closed_form_G
from .errors import DiagonalNotUnit, OracleMismatch
from .laurent import LaurentPoly
from .partitions import (
    Partition,
    conjugate,
    dominance_leq,
    n_stat,
    partitions_of,
    trim,
)
from .symfunc import VarPoly, hall_littlewood_in_vars, kostka_foulkes


class HallElt:
    """Finite formal combination of shapes with Laurent coefficients."""

    __slots__ = ("rank", "_c")

    def __init__(self, rank: int, coeffs=None):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        c: dict[Partition, LaurentPoly] = {}
        for lam, val in (coeffs or {}).items():
            lam = trim(lam)
            if len(lam) > rank:
                continue
            if isinstance(val, int):
                val = LaurentPoly.from_int(val)
            val = c.get(lam, LaurentPoly.zero()) + val
            if val.is_zero():
                c.pop(lam, None)
            else:
                c[lam] = val
        self._c = c

    @classmethod
    def zero(cls, rank: int) -> "HallElt":
        return cls(rank)

    @classmethod
    def unit(cls, rank: int) -> "HallElt":
        return cls(rank, {(): 1})

    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, lam: Partition) -> LaurentPoly:
        return self._c.get(trim(lam), LaurentPoly.zero())

    def items(self) -> list[tuple[Partition, LaurentPoly]]:
        return sorted(self._c.items(), reverse=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HallElt):
            return NotImplemented
        return self.rank == other.rank and self._c == other._c

    def __hash__(self):
        return hash((self.rank, frozenset(self._c.items())))

    def __add__(self, other: "HallElt") -> "HallElt":
        self._check(other)
        out = dict(self._c)
        for k, a in other._c.items():
            out[k] = out.get(k, LaurentPoly.zero()) + a
        return HallElt(self.rank, out)

    def __sub__(self, other: "HallElt") -> "HallElt":
        return self + (-1) * other

    def __mul__(self, scalar):
        if isinstance(scalar, int):
            scalar = LaurentPoly.from_int(scalar)
        if not isinstance(scalar, LaurentPoly):
            return NotImplemented
        return HallElt(self.rank, {k: a * scalar for k, a in self._c.items()})

    __rmul__ = __mul__

    def truncate(self, rank: int) -> "HallElt":
        return HallElt(rank, self._c)

    def _check(self, other: "HallElt") -> None:
        if self.rank != other.rank:
            raise ValueError("rank mismatch")

    def __repr__(self):
        if self.is_zero():
            return "HallElt(0)"
        bits = [f"[{','.join(map(str, k))}]:{a.pretty()}" for k, a in self.items()]
        return "HallElt(" + " + ".join(bits) + ")"


def u_elt(lam: Partition, rank: int) -> HallElt:
    return HallElt(rank, {trim(lam): 1})


def gen_mul(r: int, x: HallElt) -> HallElt:
    """Left multiplication by the square-zero element of rank r."""
    if r < 0:
        raise ValueError("negative rank")
    if r == 0:
        return x
    if r > x.rank:
        return HallElt.zero(x.rank)
    out = HallElt.zero(x.rank)
    for b, cb in x._c.items():
        column = closed_form_G(r, ((), b))
        terms = {c: cb * g.to_laurent() for (a, c), g in column.items() if not a}
        out = out + HallElt(x.rank, terms)
    return out


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
        for cols2, c2 in _gen_decomposition(mu, rank).items():
            val = out.get(cols2, LaurentPoly.zero()) - inv * c * c2
            if val.is_zero():
                out.pop(cols2, None)
            else:
                out[cols2] = val
    return out


def hall_mul(x: HallElt, y: HallElt) -> HallElt:
    """Product via the generator decomposition of the left factor."""
    x._check(y)
    out = HallElt.zero(x.rank)
    for a, ca in x._c.items():
        for cols, cf in _gen_decomposition(a, x.rank).items():
            term = y
            for r in reversed(cols):
                term = gen_mul(r, term)
            out = out + (ca * cf) * term
    return out


def hall_mul_direct(x: HallElt, y: HallElt) -> HallElt:
    """Product by counting invariant subspaces pair by pair.  Slower;
    kept as the independent route."""
    from . import pairs

    x._check(y)
    out = HallElt.zero(x.rank)
    for a, ca in x._c.items():
        for b, cb in y._c.items():
            terms: dict[Partition, LaurentPoly] = {}
            for c in partitions_of(sum(a) + sum(b)):
                if len(c) > x.rank:
                    continue
                g = pairs.hall_constant(c, a, b)
                if not g.is_zero():
                    terms[c] = ca * cb * g.to_laurent()
            out = out + HallElt(x.rank, terms)
    return out


def c_expand(lam: Partition, rank: int) -> HallElt:
    """Signed Kostka combination of basis elements; the image of the
    shape under the involution-adapted change of basis."""
    lam = trim(lam)
    n = sum(lam)
    pref = LaurentPoly.v_power(
        -(rank - 1) * n, -1 if ((rank - 1) * n) % 2 else 1
    )
    terms: dict[Partition, LaurentPoly] = {}
    for mu in partitions_of(n):
        if len(mu) > rank:
            continue
        kf = kostka_foulkes(lam, mu)
        if kf.is_zero():
            continue
        terms[mu] = (
            pref
            * LaurentPoly.from_t_poly(kf)
            * LaurentPoly.v_power(2 * n_stat(mu))
        )
    return HallElt(rank, terms)


def psi(x: HallElt, n_vars: int | None = None) -> VarPoly:
    """Realisation on symmetric polynomials: a shape goes to its
    deformed basis element scaled by v**(-2 n(shape)).  Built on the
    antisymmetrizer (`hall_littlewood_in_vars`), so only `verify` and
    the tests call it."""
    if n_vars is None:
        n_vars = x.rank
    out = VarPoly.zero(n_vars)
    for lam, c in x._c.items():
        scale = LaurentPoly.v_power(-2 * n_stat(lam))
        out = out + (c * scale) * hall_littlewood_in_vars(lam, n_vars)
    return out
