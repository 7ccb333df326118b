"""Two-sided module over the rank-bounded Hall algebra, spanned by
pair labels, with the transition table of its cyclic basis.  Module
elements (`MirElt`) and two-sided Schur expansions (`TensorSym`) are
`laurent.Combination`s of pair labels.

The left action of a shape inserts an invariant subspace below the
marked vector's line of sight (the vector survives on the quotient);
the right action inserts one containing the vector.  Both are computed
through the square-zero generator decomposition, one generator at a
time from the closed columns of `closedform`.  `oracle.act_direct` reads
the directly counted tables instead; it is the oracle the tests replay.
The right action on the vacuum, the only right action that the cyclic
basis and the class ring take, is read in closed form
(`right_on_vacuum`), so no serving request reads a right table.

`pi_table` normalises the cyclic basis into the transition table whose
entries are the polynomials the rest of the package consumes; the
calibration sign is the parity of codimension differences.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .closedform import _fits, closed_form_G
from .errors import (
    DiagonalNotUnit,
    NotInTable,
    OracleMismatch,
    RankTooSmall,
)
from .hall import HallElt, _gen_decomposition, c_expand
from .laurent import Combination, LaurentPoly
from .partitions import (
    Bipartition,
    Partition,
    ah_leq,
    bipartitions_of,
    label_size,
    pair_codim,
    pair_orbit_dim,
    trim,
    trim_pair,
)


class MirElt(Combination):
    """Formal combination of pair labels with Laurent coefficients."""

    __slots__ = ()

    @staticmethod
    def _label(bp, rank: int) -> Bipartition | None:
        bp = trim_pair(bp)
        return bp if _fits(bp, rank) else None


def u_bip(bp: Bipartition, rank: int) -> MirElt:
    return MirElt(rank, {bp: 1})


def vacuum(rank: int) -> MirElt:
    return u_bip(((), ()), rank)


def gen_act(side: str, r: int, m: MirElt) -> MirElt:
    """Action of the square-zero element of rank r on one side."""
    if side not in ("left", "right"):
        raise ValueError(f"side {side!r}")
    if r < 0:
        raise ValueError("negative rank")
    if r == 0:
        return m
    out: dict[Bipartition, LaurentPoly] = {}
    for src, cs in m._c.items():
        column = _v_column(r, src, side, m.rank)
        MirElt._accumulate(out, ((tgt, cs * g) for tgt, g in column))
    return MirElt._trusted(m.rank, out)


@lru_cache(maxsize=None)
def _v_column(
    r: int, src: Bipartition, side: str, rank: int
) -> tuple[tuple[Bipartition, LaurentPoly], ...]:
    """`closed_form_G(r, src, side, rank)` in v (q = v**2): the targets
    that fit the rank are the only ones it lists."""
    return tuple(
        (tgt, g.to_laurent()) for tgt, g in closed_form_G(r, src, side, rank).items()
    )


def act(side: str, a: HallElt, m: MirElt) -> MirElt:
    """Module action via the generator decomposition of the operator.

    The shapes of `a` share most of their generator monomials, so the
    coefficients are summed per monomial first and each monomial's
    chain of generator steps runs once."""
    a._check(m)
    monomials: dict[tuple[int, ...], LaurentPoly] = {}
    for w, cw in a._c.items():
        MirElt._accumulate(monomials, (
            (cols, cw * cf) for cols, cf in _gen_decomposition(w, a.rank).items()
        ))
    out: dict[Bipartition, LaurentPoly] = {}
    for cols, scale in monomials.items():
        term = m
        for r in reversed(cols) if side == "left" else cols:
            term = gen_act(side, r, term)
        MirElt._accumulate(out, ((k, scale * c) for k, c in term._c.items()))
    return MirElt._trusted(m.rank, out)


def right_on_vacuum(a: HallElt) -> MirElt:
    """`act("right", a, vacuum(a.rank))` in closed form: u_b . () = ((), b).

    On the vacuum the invariant subspace W is 0, so the marked vector,
    which lies in W, is 0 and the quotient V/W = V has type b: each shape
    b of `a` becomes the label ((), b) with its coefficient, in the same
    order.  The generator route `act` is the oracle the tests replay."""
    return MirElt._trusted(a.rank, {((), b): c for b, c in a._c.items()})


@lru_cache(maxsize=None)
def c_bipartition(lam: Partition, mu: Partition, rank: int) -> MirElt:
    """Cyclic basis: signed-Kostka operators applied to the vacuum on
    both sides."""
    lam, mu = trim(lam), trim(mu)
    if len(lam) > rank or len(mu) > rank:
        raise RankTooSmall(f"label ({lam}, {mu}) needs more than {rank} rows")
    return act("left", c_expand(lam, rank), _right_vacuum(mu, rank))


@lru_cache(maxsize=None)
def _right_vacuum(mu: Partition, rank: int) -> MirElt:
    """The right half of `c_bipartition`, shared by every label with
    second component `mu`, read in closed form (`right_on_vacuum`)."""
    return right_on_vacuum(c_expand(mu, rank))


def _labels(n: int, rank: int) -> tuple[Bipartition, ...]:
    return tuple(
        bp for bp in bipartitions_of(n) if _fits(bp, rank)
    )


class PiTable:
    """Calibrated transition table at one size, rows and columns in the
    interleaved descending order; `diag_units` is keyed by exactly the
    labels of `order`, so it is the table's membership test."""

    __slots__ = ("n", "N", "order", "raw", "calibrated", "diag_units")

    def __init__(self, n, N, order, raw, calibrated, diag_units):
        self.n = n
        self.N = N
        self.order = order
        self.raw = raw
        self.calibrated = calibrated
        self.diag_units = diag_units

    def value(self, row: Bipartition, col: Bipartition) -> LaurentPoly:
        row, col = trim_pair(row), trim_pair(col)
        if row not in self.diag_units or col not in self.diag_units:
            raise NotInTable(f"{row} or {col} not at size {self.n}, rank {self.N}")
        return self.calibrated.get((row, col), LaurentPoly.zero())

    def raw_value(self, row: Bipartition, col: Bipartition) -> LaurentPoly:
        row, col = trim_pair(row), trim_pair(col)
        if row not in self.diag_units or col not in self.diag_units:
            raise NotInTable(f"{row} or {col} not at size {self.n}, rank {self.N}")
        return self.raw.get((row, col), LaurentPoly.zero())


@lru_cache(maxsize=None)
def pi_table(n: int, rank: int) -> PiTable:
    """Normalise the cyclic basis: scale row coefficients by signed
    powers of v matching orbit dimensions, divide out the diagonal,
    and apply the codimension parity calibration."""
    order = _labels(n, rank)
    raw: dict[tuple[Bipartition, Bipartition], LaurentPoly] = {}
    cal: dict[tuple[Bipartition, Bipartition], LaurentPoly] = {}
    units: dict[Bipartition, LaurentPoly] = {}
    for col in order:
        vec = c_bipartition(col[0], col[1], rank)
        for row in vec._c:
            if not ah_leq(row, col):
                raise OracleMismatch(
            f"cyclic vector of {col} has weight at {row} outside the cone"
                )
        e = sum(col[0])
        diag_want = LaurentPoly.v_power(e, -1 if e % 2 else 1)
        ell = pair_orbit_dim(col, rank)
        diag_got = vec.coeff(col) * LaurentPoly.v_power(
            ell, -1 if ell % 2 else 1
        )
        if diag_got != diag_want:
            raise DiagonalNotUnit(
                f"diagonal at {col}: {diag_got.pretty()} != {diag_want.pretty()}"
            )
        units[col] = diag_want
        inv = diag_want**-1
        for row, coeff in vec._c.items():
            ell_r = pair_orbit_dim(row, rank)
            r = coeff * LaurentPoly.v_power(ell_r, -1 if ell_r % 2 else 1) * inv
            raw[(row, col)] = r
            sign = (pair_codim(row) - pair_codim(col)) % 2
            cal[(row, col)] = r * (-1 if sign else 1)
    return PiTable(n, rank, order, raw, cal, units)


class TensorSym(Combination):
    """Combination of pairs of shapes, read as a two-sided Schur
    expansion; it has no rank (`rank` is None)."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        super().__init__(None, coeffs)

    @staticmethod
    def _label(bp, rank: None) -> Bipartition:
        return trim_pair(bp)


@lru_cache(maxsize=None)
def _basis_in_tensor(n: int, rank: int) -> Mapping[Bipartition, TensorSym]:
    """Each pair label of size n written in the two-sided Schur basis,
    by inverting the triangular cyclic system.  Each column sums into
    one dict of labels that are already normal."""
    order = _labels(n, rank)
    columns = {
        col: c_bipartition(col[0], col[1], rank) for col in order
    }
    e = (rank - 1) * n
    c_image = LaurentPoly.v_power(-e, -1 if e % 2 else 1)
    out: dict[Bipartition, TensorSym] = {}
    for i in range(len(order) - 1, -1, -1):
        col = order[i]
        vec = columns[col]
        diag = vec.coeff(col)
        if not diag.is_unit_monomial():
            raise DiagonalNotUnit(f"cyclic diagonal at {col}")
        total = {col: c_image}
        for row, coeff in vec._c.items():
            if row != col:
                TensorSym._accumulate(
                    total, ((k, -coeff * a) for k, a in out[row]._c.items())
                )
        inv = diag**-1
        out[col] = TensorSym._trusted(None, {k: inv * a for k, a in total.items()})
    return out


def basis_in_tensor(bp: Bipartition, rank: int) -> TensorSym:
    bp = trim_pair(bp)
    n = label_size(bp)
    table = _basis_in_tensor(n, rank)
    if bp not in table:
        raise NotInTable(f"{bp} exceeds rank {rank}")
    return table[bp]


def mhl_poly(bp: Bipartition, rank: int) -> tuple[TensorSym, LaurentPoly]:
    """Two-sided deformed polynomial of a pair label.

    Returns the tensor image of the basis element together with the signed
    codimension power as a separate prefactor, left unmultiplied so callers
    can specialize either part on its own."""
    bp = trim_pair(bp)
    if rank < label_size(bp):
        raise RankTooSmall(f"label {bp} needs rank >= {label_size(bp)}")
    b = pair_codim(bp)
    return basis_in_tensor(bp, rank), LaurentPoly.v_power(b, -1 if b % 2 else 1)
