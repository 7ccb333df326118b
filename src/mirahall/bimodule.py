"""Two-sided module over the rank-bounded Hall algebra, spanned by
pair labels, with the transition table of its cyclic basis.  Module
elements (`MirElt`) and two-sided Schur expansions (`TensorSym`) are
`combination.Combination`s of pair labels.

The left action of a shape inserts an invariant subspace below the
marked vector's line of sight (the vector survives on the quotient);
the right action inserts one containing the vector.  Both run each
shape's column chain (`hall.shape_image`), whose step `gen_act` is the
linear extension of one generator's closed column from `closedform`.
`oracle.act_direct` reads the directly counted tables instead; it is
the oracle the tests replay.

The right action of u_b on the vacuum is the label ((), b), so every
cyclic vector is read from one checked matrix per size, `action_matrix`
(u_a on the left of ((), b)), which the class ring (`traces.green_ring`)
reads too; no serving request takes a right action.

`pi_table` normalises the cyclic basis into the transition table of
polynomials the rest of the package consumes; `_basis_in_tensor`
inverts it for `mhl`.  Both index their labels by
`partitions.bipartitions_of(n, rank)`, and read each cyclic vector from
`c_bipartition`, the one place that checks one, and drop it after its
column.  The table is one store, its nonzero calibrated cells: a raw
cell is the calibrated one times `calibration_sign`, the parity of the
codimension gap, a column's diagonal unit is `diag_unit(col)`, and a
trace cell is a calibrated one read at v = √q (`trace_value`).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Mapping

from .closedform import closed_form_G
from .combination import Combination
from .errors import (DiagonalNotUnit, NonIntegral, NotFree, NotInTable, OracleMismatch,
                     RankTooSmall)
from .hall import HallElt, c_expand, monomial_action, shape_image
from .laurent import LaurentPoly, QPoly
from .partitions import (Bipartition, Partition, ah_leq, bipartitions_of, fits,
                         label_size, pair_codim, pair_orbit_dim, trim, trim_pair)


class MirElt(Combination):
    """Formal combination of pair labels with Laurent coefficients."""

    __slots__ = ()

    @staticmethod
    def _label(bp, rank: int) -> Bipartition | None:
        bp = trim_pair(bp)
        return bp if fits(bp, rank) else None


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
    return m.apply(lambda src: _v_column(r, src, side, m.rank))


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
    """Module action of `a` on one side, by `hall.monomial_action`."""
    return monomial_action(a, m, partial(gen_act, side), side == "left")


@lru_cache(maxsize=None)
def action_matrix(n: int, rank: int) -> Mapping[Bipartition, MirElt]:
    """B(a, b) = u_a on the left of ((), b) for each label (a, b) of
    `bipartitions_of(n, rank)`, the matrix `c_bipartition` and
    `traces.green_ring` read.  A column is `hall.shape_image` with one
    `done` per b, so each label's chain of a_1 generators runs once.
    NotFree unless each column lies under (a, b) in `ah_leq` and meets
    it in a monomial: then B is invertible at every q."""
    out, done, step = {}, {}, partial(gen_act, "left")
    for a, b in bipartitions_of(n, rank):
        image = shape_image(a, u_bip(((), b), rank), step, True, done.setdefault(b, {}))
        if (image.coeff((a, b)).as_monomial() is None
                or not all(ah_leq(tgt, (a, b)) for tgt in image._c)):
            raise NotFree(f"block of size {n} is not triangular at {(a, b)}")
        out[(a, b)] = image
    return out


def c_bipartition(lam: Partition, mu: Partition, rank: int) -> MirElt:
    """Cyclic basis: signed-Kostka operators applied to the vacuum on
    both sides, the sum of E[lam,a] E[mu,b] B(a,b) (E from `c_expand`,
    B `action_matrix`).  The one check of a cyclic vector: no weight
    outside the cone below its column, and once the orbit dimension is
    scaled out, the diagonal `diag_unit(col)`."""
    col = trim(lam), trim(mu)
    if not fits(col, rank):
        raise RankTooSmall(f"label {col} needs more than {rank} rows")
    matrix = action_matrix(label_size(col), rank)
    left = c_expand(col[0], rank)._c.items()
    out: dict = {}
    for b, eb in c_expand(col[1], rank)._c.items():
        for a, ea in left:
            scale = ea * eb
            MirElt._accumulate(out, ((k, scale * c) for k, c in matrix[(a, b)]._c.items()))
    vec = MirElt._trusted(rank, out)
    for row in vec._c:
        if not ah_leq(row, col):
            raise OracleMismatch(
                f"cyclic vector of {col} has weight at {row} outside the cone"
            )
    diag = vec.coeff(col) * _minus_v(pair_orbit_dim(col, rank))
    if diag != diag_unit(col):
        raise DiagonalNotUnit(
            f"diagonal at {col}: {diag.pretty()} != {diag_unit(col).pretty()}"
        )
    return vec


def calibration_sign(row: Bipartition, col: Bipartition) -> int:
    """The sign that carries a raw cell to its calibrated one: the
    parity of the codimension gap between row and column."""
    return -1 if (pair_codim(row) - pair_codim(col)) % 2 else 1


def trace_value(col: Bipartition, row: Bipartition,
                entry: LaurentPoly) -> tuple[QPoly, QPoly]:
    """The calibrated entry at (row, col) read at v = √q, carried up by
    √q to the codimension gap, as (plain, radical): the trace cell reads
    plain(q) + radical(q)·√q, whatever the prime (counted by
    `oracle.fiber_oracle_check`).  The gap is nonnegative where the entry
    is nonzero, and the entry's lowest power is no deeper than the gap,
    so both parts are polynomials in q; a deeper pole raises NonIntegral.

    >>> col, row = ((1,), (1,)), ((), (1, 1))
    >>> plain, radical = trace_value(col, row, pi_table(2, 2).value(row, col))
    >>> plain.pretty(), radical.is_zero(), plain.evaluate(2)
    ('1 + q', True, 3)
    """
    # trailing zeros in a label add nothing to its codimension
    shift = pair_codim(row) - pair_codim(col)
    parts: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for e, c in entry.items():
        k = e + shift
        if k < 0:
            raise NonIntegral(f"power √q^{k} survives the shift by {shift}")
        parts[k % 2][k // 2] = c
    return QPoly(parts[0]), QPoly(parts[1])


def _minus_v(k: int) -> LaurentPoly:
    """(-v)**k."""
    return LaurentPoly.v_power(k, -1 if k % 2 else 1)


def diag_unit(col: Bipartition) -> LaurentPoly:
    """(-v)^|lam| for col = (lam, mu): the diagonal of the cyclic vector
    of col, once its orbit dimension is scaled out."""
    return _minus_v(sum(col[0]))


class PiTable:
    """Calibrated transition table at one size, rows and columns in the
    interleaved descending order.  `cells` holds its nonzero entries
    only; each diagonal entry is one, so `(bp, bp) in cells` is the
    table's membership test.  The raw cells (`raw_value`) and the
    diagonal units (`diag_unit`) are read off the label, not stored."""

    __slots__ = ("n", "N", "order", "cells")

    def __init__(self, n, N, order, cells):
        self.n = n
        self.N = N
        self.order = order
        self.cells = cells

    def value(self, row: Bipartition, col: Bipartition) -> LaurentPoly:
        row, col = trim_pair(row), trim_pair(col)
        if (row, row) not in self.cells or (col, col) not in self.cells:
            raise NotInTable(f"{row} or {col} not at size {self.n}, rank {self.N}")
        return self.cells.get((row, col), LaurentPoly.zero())

    def raw_value(self, row: Bipartition, col: Bipartition) -> LaurentPoly:
        # trailing zeros, which `value` trims, add nothing to a codimension
        return self.value(row, col) * calibration_sign(row, col)

    def nonzero_cells(self):
        """(row, col, value) of each stored cell, row-major in `order`."""
        for row in self.order:
            for col in self.order:
                val = self.cells.get((row, col))
                if val is not None:
                    yield row, col, val


@lru_cache(maxsize=None)
def pi_table(n: int, rank: int) -> PiTable:
    """Normalise the cyclic basis (each vector checked by `c_bipartition`
    and dropped after its column): scale row coefficients by signed
    powers of v matching orbit dimensions, divide out the diagonal unit,
    and apply the codimension parity calibration."""
    order = bipartitions_of(n, rank)
    cells: dict[tuple[Bipartition, Bipartition], LaurentPoly] = {}
    for col in order:
        inv = diag_unit(col) ** -1
        for row, coeff in c_bipartition(col[0], col[1], rank)._c.items():
            r = coeff * _minus_v(pair_orbit_dim(row, rank)) * inv
            cells[(row, col)] = r * calibration_sign(row, col)
    return PiTable(n, rank, order, cells)


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
    by inverting the triangular system of `c_bipartition`'s checked
    cyclic vectors, one column at a time, into labels already normal."""
    order = bipartitions_of(n, rank)
    c_image = _minus_v(-(rank - 1) * n)
    out: dict[Bipartition, TensorSym] = {}
    for col in reversed(order):
        vec = c_bipartition(col[0], col[1], rank)
        total = {col: c_image}
        for row, coeff in vec._c.items():
            if row != col:
                TensorSym._accumulate(
                    total, ((k, -coeff * a) for k, a in out[row]._c.items())
                )
        inv = vec.coeff(col) ** -1
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
    return basis_in_tensor(bp, rank), _minus_v(pair_codim(bp))
