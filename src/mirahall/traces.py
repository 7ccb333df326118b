"""Square-root-of-q specializations of the normalized table, the
complete-flag counting oracle that certifies them, and the class ring
over a fixed finite field with labels split by irreducible polynomial.

>>> from .bimodule import pi_table
>>> trace_value(((1,), (1,)), ((), (1, 1)), pi_table(2, 2), 2).as_integer()
3
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as cartesian
from typing import Iterable, Mapping

from .bimodule import PiTable, act, pi_table, u_bip
from .config import check_prime
from .errors import (
    CostGuard,
    FieldMismatch,
    NonIntegral,
    NotFree,
    OracleMismatch,
    UsageError,
)
from .hall import u_elt
from .laurent import LaurentPoly, QPoly
from .partitions import (
    Bipartition,
    bipartitions_of,
    label_size,
    n_standard_tableaux,
    n_stat,
    pair_codim,
    partitions_of,
    trim,
)


class TraceCell:
    """Value a(q) + b(q)*s where s*s = q.  Exact in both slots."""

    __slots__ = ("a", "b", "q_value")

    def __init__(self, a: QPoly, b: QPoly, q_value: int | None = None):
        self.a = a
        self.b = b
        self.q_value = q_value

    @classmethod
    def zero(cls, q_value: int | None = None) -> "TraceCell":
        return cls(QPoly.zero(), QPoly.zero(), q_value)

    @classmethod
    def from_laurent(
        cls, poly: LaurentPoly, shift: int = 0, q_value: int | None = None
    ) -> "TraceCell":
        """Substitute v = s into poly * v**shift.

        Exponents must stay nonnegative so both slots are honest
        polynomials in q; a deeper pole raises NonIntegral."""
        a: dict[int, int] = {}
        b: dict[int, int] = {}
        for e, c in poly.items():
            k = e + shift
            if k < 0:
                raise NonIntegral(f"power s^{k} survives the shift by {shift}")
            slot = a if k % 2 == 0 else b
            slot[k // 2] = slot.get(k // 2, 0) + c
        return cls(QPoly(a), QPoly(b), q_value)

    def _merge_q(self, other: "TraceCell") -> int | None:
        if (
            self.q_value is not None
            and other.q_value is not None
            and self.q_value != other.q_value
        ):
            raise FieldMismatch(f"q={self.q_value} against q={other.q_value}")
        return self.q_value if self.q_value is not None else other.q_value

    def __add__(self, other: "TraceCell | int") -> "TraceCell":
        if isinstance(other, int):
            other = TraceCell(QPoly.from_int(other), QPoly.zero(), self.q_value)
        if not isinstance(other, TraceCell):
            return NotImplemented
        return TraceCell(self.a + other.a, self.b + other.b, self._merge_q(other))

    __radd__ = __add__

    def __mul__(self, other: "TraceCell | QPoly | int") -> "TraceCell":
        if isinstance(other, (int, QPoly)):
            return TraceCell(self.a * other, self.b * other, self.q_value)
        if not isinstance(other, TraceCell):
            return NotImplemented
        # the cross term s*s folds back into the plain slot as one q
        return TraceCell(
            self.a * other.a + QPoly.q_power(1) * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self._merge_q(other),
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.b.is_zero() and self.a == QPoly.from_int(other)
        if not isinstance(other, TraceCell):
            return NotImplemented
        return (self.a, self.b, self.q_value) == (other.a, other.b, other.q_value)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.q_value))

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def evaluate(self, q: int | None = None) -> tuple[int, int]:
        """(plain, radical) integer parts at the stored or given prime."""
        q = q if q is not None else self.q_value
        if q is None:
            raise UsageError("no prime to evaluate at")
        return self.a.evaluate(q), self.b.evaluate(q)

    def as_integer(self, q: int | None = None) -> int:
        plain, rad = self.evaluate(q)
        if rad:
            raise NonIntegral(f"radical part {rad} remains at q={q or self.q_value}")
        return plain

    def pretty(self) -> str:
        if self.b.is_zero():
            return self.a.pretty()
        tail = f"({self.b.pretty()})*√q"
        if self.a.is_zero():
            return tail
        return f"{self.a.pretty()} + {tail}"

    def __repr__(self) -> str:
        return f"TraceCell({self.pretty()})"


def trace_value(
    col: Bipartition, row: Bipartition, table: PiTable, q: int
) -> TraceCell:
    """Table entry at v = s, carried up by s to the codimension gap.

    The gap between the two labels' codimensions is nonnegative whenever
    the calibrated entry is nonzero, and the entry's lowest power is no
    deeper than the gap, so the result lives in Z[s]."""
    row = (trim(row[0]), trim(row[1]))
    col = (trim(col[0]), trim(col[1]))
    entry = table.value(row, col)
    if entry.is_zero():
        return TraceCell.zero(q)
    return TraceCell.from_laurent(entry, pair_codim(row) - pair_codim(col), q)


def _json_label(bp: Bipartition) -> list[list[int]]:
    return [list(bp[0]), list(bp[1])]


def fiber_oracle_check(n: int, q: int, table: PiTable | None = None) -> dict:
    """Count complete flags compatible with each stratum and match the
    dimension-weighted column sums of the trace table.

    Each column of marked-step weight m contributes its two tableau
    counts times q^(n(lam)+n(mu)); the overall scale constant is one,
    anchored at the open stratum where exactly one flag survives.
    Raises OracleMismatch naming the first offending stratum and step.
    """
    from . import pairs

    if n > 4 or (q > 2 and n > 3):
        raise CostGuard(f"flag sweep at n={n}, q={q} exceeds the budget")
    if table is None:
        table = pi_table(n, n)
    if table.n != n:
        raise UsageError(f"table holds size {table.n}, not {n}")
    cells = []
    for m in range(n + 1):
        cols = [
            (lam, mu)
            for lam in partitions_of(n - m)
            for mu in partitions_of(m)
            if (lam, mu) in table.order
        ]
        for sig in table.order:
            predicted = TraceCell.zero(q)
            for colbp in cols:
                weight = (
                    n_standard_tableaux(colbp[0])
                    * n_standard_tableaux(colbp[1])
                    * QPoly.q_power(n_stat(colbp[0]) + n_stat(colbp[1]))
                )
                predicted = predicted + weight * trace_value(colbp, sig, table, q)
            want = predicted.as_integer()
            got = pairs.flag_fiber_count(sig, m, q)
            cells.append(
                {
                    "stratum": _json_label(sig),
                    "m": m,
                    "count": got,
                    "predicted": want,
                    "ok": got == want,
                }
            )
            if got != want:
                raise OracleMismatch(
                    f"stratum {sig}, step {m}, q={q}: counted {got}, predicted {want}"
                )
    return {"n": n, "q": q, "epsilon": 1, "cells": cells, "passed": True}


# --- class ring over F_q, labels split by irreducible polynomial ------------


def _poly_mul(f: tuple[int, ...], g: tuple[int, ...], q: int) -> tuple[int, ...]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % q
    return tuple(out)


@lru_cache(maxsize=None)
def _monic(q: int, d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(c + (1,) for c in cartesian(range(q), repeat=d))


@lru_cache(maxsize=None)
def irreducible_polys(q: int, max_deg: int) -> tuple[tuple[int, ...], ...]:
    """Monic irreducibles over F_q of degree <= max_deg, the linear
    polynomial with zero constant term excluded, ordered by degree then
    coefficient tuple.

    Coefficients are stored ascending, leading one included:
    (1, 1) is t + 1, (1, 1, 1) is t**2 + t + 1.
    """
    out: list[tuple[int, ...]] = []
    for d in range(1, max_deg + 1):
        composite = set()
        for da in range(1, d // 2 + 1):
            for fa in _monic(q, da):
                for fb in _monic(q, d - da):
                    composite.add(_poly_mul(fa, fb, q))
        for f in _monic(q, d):
            if f not in composite and f != (0, 1):
                out.append(f)
    return tuple(out)


def _poly_str(f: tuple[int, ...]) -> str:
    bits = []
    for e in range(len(f) - 1, -1, -1):
        c = f[e]
        if not c:
            continue
        if e == 0:
            bits.append(str(c))
        else:
            head = "t" if e == 1 else f"t^{e}"
            bits.append(head if c == 1 else f"{c}{head}")
    return "+".join(bits) if bits else "0"


class GreenLabel:
    """Finitely supported assignment of a pair of shapes to monic
    irreducibles over the field, the coordinate polynomial excluded.

    Total size weights each pair by the degree of its polynomial."""

    __slots__ = ("q", "_s")

    def __init__(self, q: int, support: Mapping | Iterable = ()):
        items = support.items() if isinstance(support, Mapping) else support
        clean = []
        for f, bp in items:
            f = tuple(int(c) % q for c in f)
            bp = (trim(bp[0]), trim(bp[1]))
            if bp == ((), ()):
                continue
            if len(f) < 2 or f[-1] != 1:
                raise UsageError(f"{f} is not monic of positive degree")
            if f == (0, 1):
                raise UsageError("the coordinate polynomial is excluded")
            if f not in irreducible_polys(q, len(f) - 1):
                raise UsageError(f"{f} is reducible over F_{q}")
            clean.append((f, bp))
        clean.sort()
        if len({f for f, _ in clean}) != len(clean):
            raise UsageError("repeated polynomial in the support")
        self.q = q
        self._s = tuple(clean)

    def support(self) -> dict[tuple[int, ...], Bipartition]:
        return dict(self._s)

    def get(self, f: tuple[int, ...]) -> Bipartition:
        for g, bp in self._s:
            if g == f:
                return bp
        return ((), ())

    def size(self) -> int:
        return sum((len(f) - 1) * (sum(bp[0]) + sum(bp[1])) for f, bp in self._s)

    def is_pure(self) -> bool:
        """True when every pair is a plain shape in the second slot."""
        return all(bp[0] == () for _, bp in self._s)

    def sort_key(self):
        return self._s

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GreenLabel):
            return NotImplemented
        return self.q == other.q and self._s == other._s

    def __hash__(self) -> int:
        return hash((self.q, self._s))

    def pretty(self) -> str:
        if not self._s:
            return "1"
        return " ".join(f"[{_poly_str(f)}]:{bp}" for f, bp in self._s)

    def __repr__(self) -> str:
        return f"GreenLabel(q={self.q}, {self.pretty()})"


def green_labels(n: int, q: int, pure: bool = False) -> list["GreenLabel"]:
    """All labels of weighted size n over F_q, plain shapes only when
    pure is set, in a deterministic order."""
    check_prime(q)
    if n < 0:
        return []
    polys = irreducible_polys(q, max(n, 1))
    out: list[GreenLabel] = []

    def rec(idx: int, remaining: int, acc: list) -> None:
        if remaining == 0:
            out.append(GreenLabel(q, tuple(acc)))
            return
        if idx == len(polys):
            return
        f = polys[idx]
        d = len(f) - 1
        rec(idx + 1, remaining, acc)
        for w in range(d, remaining + 1, d):
            shapes = (
                [((), mu) for mu in partitions_of(w // d)]
                if pure
                else bipartitions_of(w // d)
            )
            for bp in shapes:
                rec(idx + 1, remaining - w, acc + [(f, bp)])

    rec(0, n, [])
    out.sort(key=GreenLabel.sort_key)
    return out


def green_mul(
    side: str, cls: GreenLabel, x: Mapping[GreenLabel, int]
) -> dict[GreenLabel, int]:
    """Bilinear product with a plain class acting on one side.

    The structure constant splits over the support: each polynomial
    contributes the bimodule's finite-rank constant evaluated at q
    raised to the degree, and polynomials outside the acting support
    pass through."""
    if side not in ("left", "right"):
        raise UsageError(f"side {side!r}")
    if not cls.is_pure():
        raise UsageError("acting label must carry plain shapes only")
    out: dict[GreenLabel, int] = {}
    for glab, c0 in x.items():
        if not isinstance(glab, GreenLabel) or glab.q != cls.q:
            raise FieldMismatch("labels live over different fields")
        if c0 == 0:
            continue
        choices: list[list[tuple[tuple[int, ...], Bipartition, int]]] = []
        for f, nu_pair in cls._s:
            nu = nu_pair[1]
            src = glab.get(f)
            qd = cls.q ** (len(f) - 1)
            rank = label_size(src) + sum(nu)
            image = act(side, u_elt(nu, rank), u_bip(src, rank))
            # coefficients are polynomials in q = v**2: read them at q**deg(f)
            choices.append(
                [(f, tgt, g.bar().to_t_poly().evaluate(qd)) for tgt, g in image.items()]
            )
        for combo in cartesian(*choices):
            support = glab.support()
            coeff = c0
            for f, tgt, c in combo:
                coeff *= c
                if tgt == ((), ()):
                    support.pop(f, None)
                else:
                    support[f] = tgt
            if coeff == 0:
                continue
            lab = GreenLabel(cls.q, support)
            total = out.get(lab, 0) + coeff
            if total:
                out[lab] = total
            else:
                out.pop(lab, None)
    return out


def _invertible_over_rationals(rows: list[list[int]]) -> bool:
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(size):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return True


def green_freeness_check(n: int, q: int) -> dict:
    """Two-sided products of plain classes against the empty label must
    hit the size-n labels through a square invertible matrix over Q."""
    check_prime(q)
    labels = green_labels(n, q)
    unit = GreenLabel(q)
    rows = []
    for k in range(n + 1):
        for a in green_labels(k, q, pure=True):
            for b in green_labels(n - k, q, pure=True):
                vec = green_mul("left", a, green_mul("right", b, {unit: 1}))
                rows.append([vec.get(lab, 0) for lab in labels])
    if len(rows) != len(labels):
        raise NotFree(
            f"{len(rows)} products against {len(labels)} labels at size {n}, q={q}"
        )
    if not _invertible_over_rationals(rows):
        raise NotFree(f"transition matrix singular at size {n}, q={q}")
    return {"n": n, "q": q, "dimension": len(labels), "passed": True}
