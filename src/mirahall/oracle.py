"""Counting oracles: the second route to every served quantity.

Each closed formula that the serving commands use is pinned against an
independent computation here.  Only `verify` (through `checks`), the
tests and `scripts/` import this module; no serving command loads it,
so a request never compiles it.

* The antisymmetriser: the deformed basis in finitely many variables
  (`hl_schur_coefficients`, `hall_littlewood_in_vars`), the Kostka
  table it inverts to (`_kostka_table`, the oracle for
  `symfunc.kostka_foulkes`) and the character map `psi`.
* Counted structure constants: `hall_mul_direct` and `act_direct` read
  the subspace counts of `pairs`; `verify_closed_form` compares a
  closed table with its count entry by entry; `stable_right_constant`
  and `rho_check` pin the mirrored right constants.
* `fiber_oracle_check` counts complete flags in each stratum against
  the trace table.
* The wall-crossing count: representative triples over F_q in a
  truncated lattice model (`_Model`), each line classified back to a
  label by rank invariants (`_classify`), the counts interpolated
  (`counted_ts_action`, `mass_check`, `rep_roundtrip`).

Point counts become polynomials in q through `pairs.interpolate`, over
the prime fields of `pairs.primes`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial
from operator import add
from typing import Mapping

import numpy as np

from . import pairs
from .affine import (
    DEFAULT_PRIMES,
    AffinePerm,
    BetaSet,
    RBAffElt,
    _check_wall,
    _sort_key,
    ts_action,
)
from .bimodule import MirElt, PiTable, pi_table, trace_value
from .closedform import (
    closed_form_G,
    closed_left_table,
    stable_right_column,
)
from .config import check_prime
from .errors import (
    CostGuard,
    EdgeConventionMismatch,
    NonIntegral,
    OracleMismatch,
    TruncationTooSmall,
    UsageError,
)
from .hall import HallElt
from .combination import Combination
from .laurent import LaurentPoly, QPoly
from .pairs import interpolate
from .partitions import (
    Bipartition,
    Partition,
    bipartitions_of,
    conjugate,
    label_size,
    n_stat,
    pad,
    partitions_of,
    trim,
    trim_pair,
)

# --- symmetric polynomials in finitely many variables (the antisymmetriser) ----


class VarPoly(Combination):
    """Polynomial in x_1..x_n with LaurentPoly coefficients, keyed by
    exponent tuples; its rank is the number of variables."""

    __slots__ = ()

    @staticmethod
    def _label(key, n_vars: int) -> tuple[int, ...]:
        key = tuple(key)
        if len(key) != n_vars:
            raise ValueError(f"key {key} has wrong arity")
        return key

    @property
    def n_vars(self) -> int:
        return self.rank

    @classmethod
    def one(cls, n_vars: int) -> "VarPoly":
        return cls(n_vars, {(0,) * n_vars: 1})

    def __mul__(self, other):
        if type(other) is not VarPoly:
            return super().__mul__(other)
        self._check(other)
        out: dict[tuple[int, ...], LaurentPoly] = {}
        for k1, a1 in self._c.items():
            VarPoly._accumulate(out, (
                (tuple(map(add, k1, k2)), a1 * a2) for k2, a2 in other._c.items()
            ))
        return VarPoly._trusted(self.rank, out)

    def restrict(self, m: int) -> "VarPoly":
        """Set x_{m+1} = ... = 0 and forget those slots."""
        return VarPoly(m, {k[:m]: a for k, a in self._c.items() if not any(k[m:])})


@lru_cache(maxsize=None)
def elementary_in_vars(r: int, n_vars: int) -> VarPoly:
    """e_r(x_1..x_n)."""
    if r < 0:
        return VarPoly.zero(n_vars)
    return VarPoly(n_vars, {
        tuple(1 if i in sub else 0 for i in range(n_vars)): 1
        for sub in combinations(range(n_vars), r)
    })


@lru_cache(maxsize=None)
def schur_in_vars(lam: Partition, n_vars: int) -> VarPoly:
    """Schur polynomial via the determinant in elementary generators."""
    if not lam:
        return VarPoly.one(n_vars)
    if len(lam) > n_vars:
        return VarPoly.zero(n_vars)
    conj = conjugate(lam)
    m = len(conj)
    entry = {
        (i, j): elementary_in_vars(conj[i] - i + j, n_vars)
        for i in range(m)
        for j in range(m)
    }
    memo: dict[tuple[int, ...], VarPoly] = {}

    def det(cols: tuple[int, ...]) -> VarPoly:
        if not cols:
            return VarPoly.one(n_vars)
        if cols in memo:
            return memo[cols]
        i = m - len(cols)
        total = VarPoly.zero(n_vars)
        for pos, j in enumerate(cols):
            piece = entry[(i, j)]
            if piece.is_zero():
                continue
            sub = det(cols[:pos] + cols[pos + 1 :])
            term = piece * sub
            total = total + (term if pos % 2 == 0 else -1 * term)
        memo[cols] = total
        return total

    return det(tuple(range(m)))


def _pairs(n_vars: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n_vars) for j in range(i + 1, n_vars)]


@lru_cache(maxsize=None)
def multiplicity_weight(lam: Partition, n_vars: int) -> QPoly:
    """Product of t-factorials over part multiplicities, the zero part
    counting n_vars - len(lam) times."""
    mults = [n_vars - len(lam)]
    i = 0
    while i < len(lam):
        j = i
        while j < len(lam) and lam[j] == lam[i]:
            j += 1
        mults.append(j - i)
        i = j
    out = QPoly.one()
    for m in mults:
        for k in range(1, m + 1):
            out = out * QPoly({e: 1 for e in range(k)})
    return out


@lru_cache(maxsize=None)
def hl_schur_coefficients(
    lam: Partition, n_vars: int
) -> Mapping[Partition, QPoly]:
    """Coefficients, as polynomials in t, of the deformed basis element
    on the Schur basis.  Unitriangular: the lead coefficient is 1.
    Oracle: an antisymmetrizer sum over 2^(n_vars(n_vars-1)/2) masks."""
    if len(lam) > n_vars:
        return {}
    prs = _pairs(n_vars)
    delta = tuple(range(n_vars - 1, -1, -1))
    base = pad(lam, n_vars)
    acc: dict[Partition, QPoly] = {}
    for mask in range(1 << len(prs)):
        vec = list(base)
        tcount = 0
        for b, (i, j) in enumerate(prs):
            if (mask >> b) & 1:
                vec[j] += 1
                tcount += 1
            else:
                vec[i] += 1
        if len(set(vec)) < n_vars:
            continue
        inv = sum(
            1
            for a in range(n_vars)
            for b in range(a + 1, n_vars)
            if vec[a] < vec[b]
        )
        srt = sorted(vec, reverse=True)
        shape = trim(tuple(srt[i] - delta[i] for i in range(n_vars)))
        sign = -1 if (inv + tcount) % 2 else 1
        term = QPoly({tcount: sign})
        prev = acc.get(shape)
        acc[shape] = term if prev is None else prev + term
    weight = multiplicity_weight(lam, n_vars)
    return {
        mu: poly.exact_div(weight) for mu, poly in acc.items() if not poly.is_zero()
    }


@lru_cache(maxsize=None)
def hall_littlewood_in_vars(lam: Partition, n_vars: int) -> VarPoly:
    """Monomial expansion of the deformed basis element, t = v**-2."""
    out = VarPoly.zero(n_vars)
    for mu, cf in hl_schur_coefficients(lam, n_vars).items():
        out = out + LaurentPoly.from_t_poly(cf) * schur_in_vars(mu, n_vars)
    return out


@lru_cache(maxsize=None)
def _kostka_table(n: int, n_vars: int) -> Mapping[tuple[Partition, Partition], QPoly]:
    """Deformed Kostka polynomials at size n, keyed by (lam, mu), from
    inverting `hl_schur_coefficients` in n_vars variables.  The oracle
    for `kostka_foulkes`."""
    order = list(partitions_of(n))
    size = len(order)
    c = [
        [
            hl_schur_coefficients(order[i], n_vars).get(order[j], QPoly.zero())
            for j in range(size)
        ]
        for i in range(size)
    ]
    for i in range(size):
        if c[i][i] != QPoly.one():
            raise AssertionError(f"transition not unitriangular at {order[i]}")
    table: dict[tuple[Partition, Partition], QPoly] = {}
    for i in range(size):
        row = [QPoly.zero()] * size
        row[i] = QPoly.one()
        table[(order[i], order[i])] = QPoly.one()
        for j in range(i + 1, size):
            val = QPoly.zero()
            for k in range(i, j):
                if row[k] and c[k][j]:
                    val = val - row[k] * c[k][j]
            row[j] = val
            if val:
                table[(order[i], order[j])] = val
    return table


def schur_decompose(poly: VarPoly) -> Mapping[Partition, LaurentPoly]:
    """Write a symmetric polynomial on the Schur basis by peeling
    leading monomials.  Raises if the input is not symmetric enough to
    resolve."""
    out: dict[Partition, LaurentPoly] = {}
    rest = poly
    for _ in range(10000):
        if rest.is_zero():
            return out
        key, coeff = rest.items()[0]
        shape = trim(key)
        rest = rest - coeff * schur_in_vars(shape, poly.n_vars)
        VarPoly._accumulate(out, [(shape, coeff)])
    raise AssertionError("schur peel did not terminate")


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


# --- counted structure constants -----------------------------------------------


def hall_mul_direct(x: HallElt, y: HallElt) -> HallElt:
    """Product by counting invariant subspaces pair by pair.  Slower;
    kept as the independent route."""
    x._check(y)
    out: dict[Partition, LaurentPoly] = {}
    for a, ca in x._c.items():
        for b, cb in y._c.items():
            HallElt._accumulate(out, (
                (c, ca * cb * pairs.hall_constant(c, a, b).to_laurent())
                for c in partitions_of(sum(a) + sum(b))
                if len(c) <= x.rank
            ))
    return HallElt._trusted(x.rank, out)


def act_direct(side: str, a: HallElt, m: MirElt) -> MirElt:
    """Action by the directly counted tables, one pair of basis
    elements at a time.  Test oracle."""
    a._check(m)
    out: dict[Bipartition, LaurentPoly] = {}
    for w, cw in a._c.items():
        for src, cs in m._c.items():
            n = label_size(src) + sum(w)
            for tgt in bipartitions_of(n, m.rank):
                if side == "left":
                    g = pairs.left_constants(tgt, sum(w)).get((w, src))
                else:
                    g = pairs.right_constants(tgt, label_size(src)).get(
                        (src, w)
                    )
                if g is not None:
                    MirElt._accumulate(out, [(tgt, cw * cs * g.to_laurent())])
    return MirElt._trusted(m.rank, out)


def verify_closed_form(
    tgt: Bipartition, r: int, side: str = "left"
) -> Mapping[Bipartition, QPoly]:
    """Closed table of one side checked entrywise against the counted one;
    the right one is read column by column (`closed_form_G`)."""
    if side == "left":
        closed = dict(closed_left_table(tgt, r))
        counted = dict(pairs.left_elementary_constants(tgt, r))
    else:
        closed = {
            src: poly for src in bipartitions_of(label_size(tgt) - r)
            if (poly := closed_form_G(r, src, "right").get(tgt))
        }
        counted = dict(pairs.right_elementary_constants(tgt, r))
    if closed != counted:
        keys = sorted(set(closed) | set(counted), reverse=True)
        diffs = [
            f"{k}: closed={closed.get(k, QPoly.zero()).pretty()} "
            f"counted={counted.get(k, QPoly.zero()).pretty()}"
            for k in keys
            if closed.get(k, QPoly.zero()) != counted.get(k, QPoly.zero())
        ]
        raise EdgeConventionMismatch(
            f"{side} target {tgt}, rank {r}: " + "; ".join(diffs)
        )
    return closed


def shift_labels(bp: Bipartition, boxes: int, rows: int) -> Bipartition:
    """Add `boxes` full columns of height `rows` to the first component."""
    lam = pad(bp[0], rows)
    return (trim(tuple(x + boxes for x in lam)), trim(bp[1]))


def _pad_add(p: Partition, c: int, rows: int) -> Partition:
    return trim(tuple((p[k] if k < len(p) else 0) + c for k in range(rows)))


def stable_right_constant(
    tgt: Bipartition, src: Bipartition, r: int, rank: int
) -> QPoly:
    """Right-action constant with both first slots deepened by a full
    column until the count stops moving.

    The raw count at a shallow first slot absorbs mass that belongs to
    labels whose first component has a negative row; those labels exist
    in the lattice picture but have no partition shape.  One extra
    column clears the boundary, a second confirms the plateau."""
    def at(i: int) -> QPoly:
        T = (_pad_add(tgt[0], i, rank), tgt[1])
        S = (_pad_add(src[0], i, rank), src[1])
        return pairs.right_elementary_constants(T, r).get(S, QPoly.zero())

    first, second = at(1), at(2)
    if first != second:
        raise EdgeConventionMismatch(
            f"right constant at {tgt} from {src} drifts between lifts"
        )
    return first


def rho_check(src: Bipartition, r: int, rank: int) -> bool:
    """Mirror identity between stabilized right constants and the
    served column `stable_right_column`, checked over every target one
    step up that fits in `rank` rows."""
    mirrored = stable_right_column(r, src, rank)
    src = trim_pair(src)
    n = sum(src[0]) + sum(src[1]) + r
    return all(
        stable_right_constant(tgt, src, r, rank) == mirrored.get(tgt, QPoly.zero())
        for tgt in bipartitions_of(n, rank)
    )


# --- complete-flag counts ------------------------------------------------------


def n_standard_tableaux(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook lengths)."""
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    d, r = divmod(factorial(n), hooks)
    assert r == 0
    return d


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
            want = radical = 0
            for colbp in cols:
                weight = (
                    n_standard_tableaux(colbp[0])
                    * n_standard_tableaux(colbp[1])
                    * q ** (n_stat(colbp[0]) + n_stat(colbp[1]))
                )
                plain, rad = trace_value(colbp, sig, table.value(sig, colbp))
                want += weight * plain.evaluate(q)
                radical += weight * rad.evaluate(q)
            if radical:
                raise NonIntegral(f"radical part {radical} remains at q={q}")
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


# --- wall crossing by counting lines in a truncated lattice model --------------

_GROW_STEPS = 3


def _beta_from_jumps(w: AffinePerm, jumps, jlo: int, jhi: int, floor: int) -> BetaSet:
    """Records of the jump profile, completed downward.

    The profile max{m in beta : u(m) > j} changes exactly at steps whose
    new index is a fresh maximum; every member of beta sits below some
    record in both the identity and the u order, so the downward closure
    of the records in that product order restores beta.  floor is the
    lowest e-index the window sees."""
    records = []
    prev = jumps[jhi]
    for j in range(jhi - 1, jlo - 1, -1):
        cur = jumps[j]
        if cur is not None and (prev is None or cur > prev):
            records.append(cur)
        prev = cur
    if jumps[jlo] is not None:
        records.append(jumps[jlo])
    if not records:
        raise TruncationTooSmall("marked vector invisible in the window")
    u = w.inverse()
    margin = w.spread() + w.N + 1
    low = min(records) - 2 * margin
    if low <= floor:
        raise TruncationTooSmall("marked set reaches the window floor")
    ranked = [(r, u(r)) for r in records]
    members = [
        m
        for m in range(low, max(records) + 1)
        if any(m <= r and u(m) <= ur for r, ur in ranked)
    ]
    return BetaSet(low - 1, members)


def _predicted_jumps(x: RBAffElt, jlo: int, jhi: int):
    """Jump profile of the representative of x, computed combinatorially:
    J(j) = max{m in beta : u(m) > j}, a running maximum over the members
    taken in decreasing u order while j walks down."""
    u = x.w.inverse()
    margin = x.w.spread() + x.w.N + 1
    members = x.beta.members_in(x.beta.lo - 2 * margin, x.beta.top())
    ranked = sorted((u(m), m) for m in members)
    out = {}
    best = None
    for j in range(jhi, jlo - 1, -1):
        while ranked and ranked[-1][0] > j:
            m = ranked.pop()[1]
            if best is None or m > best:
                best = m
        out[j] = best
    return out


def _label_from_jumps(w: AffinePerm, jumps, jlo: int, jhi: int, floor: int) -> RBAffElt:
    """The label with permutation w and jump profile `jumps` on jlo..jhi;
    raises TruncationTooSmall when the window cannot decide."""
    label = RBAffElt(w, _beta_from_jumps(w, jumps, jlo, jhi, floor))
    if _predicted_jumps(label, jlo, jhi) != jumps:
        raise TruncationTooSmall(
            f"label {label} does not reproduce the observed invariants"
        )
    return label


def _bounds(x: RBAffElt, i: int):
    b = max(x.w.spread(), abs(x.beta.lo), abs(x.beta.top()), i, x.w.N)
    return b


def _window(x: RBAffElt, i: int, grow: int):
    """(M, jlo, jhi): lattice depth and step range of the wall-crossing
    window, widened by `grow` retries."""
    n = x.w.N
    b = _bounds(x, i) + 2 * grow
    jw = b + 3 * n + 1
    M = (jw + b + n + 2) // n + 1
    jlo, jhi = -jw, jw
    if (jlo - 1 - i) % n == 0:
        # the base step must not sit at a perturbed position
        jlo -= 1
    return M, jlo, jhi


def _retry(fn, x: RBAffElt, i: int, *args):
    """fn(x, i, *args, grow) on a window widened until it decides."""
    last = None
    for grow in range(_GROW_STEPS):
        try:
            return fn(x, i, *args, grow)
        except TruncationTooSmall as exc:
            last = exc
    raise TruncationTooSmall(f"wall crossing at {x}, position {i}: {last}")


def _marked_top(a: int, b: int, beta: BetaSet, line: str, ascent: bool):
    """The e-index among a, b that the marked vector keeps modulo the step
    through `line`, or None: line is "inf" for e_b, "one" for e_a + e_b
    and "generic" for e_a + c e_b with c outside {0, 1}.

    The marked vector's part in span(e_a, e_b) is p = [a in beta] e_a +
    [b in beta] e_b.  Modulo the line it leaves the index that is not the
    line's pivot (a for e_b, the smaller of a, b otherwise) unless p lies
    on the line: p = 0, or p = e_a + e_b on the line c = 1."""
    if line == "inf":
        return a if a in beta else None
    top, low = (b, a) if ascent else (a, b)
    if top in beta:
        return None if line == "one" and low in beta else low
    return low if low in beta else None


def _jump_line_classes_at(x: RBAffElt, i: int, grow: int):
    n = x.w.N
    M, jlo, jhi = _window(x, i, grow)
    w = x.w
    ws = w.after(AffinePerm.simple(n, i))
    ascent = w(i) < w(i + 1)
    J = _predicted_jumps(x, jlo, jhi + 1)
    out = []
    for line in ("inf", "one", "generic"):
        jumps = {j: J[j] for j in range(jlo, jhi + 1)}
        for j in range(jlo + (i - jlo) % n, jhi + 1, n):
            kept = J[j + 1]
            top = _marked_top(w(j), w(j + 1), x.beta, line, ascent)
            if top is not None and (kept is None or top > kept):
                kept = top
            jumps[j] = kept
        perm = ws if line == "inf" or ascent else w
        out.append(_label_from_jumps(perm, jumps, jlo, jhi, 1 - M * n))
    return tuple(out)


def jump_line_classes(x: RBAffElt, i: int) -> tuple:
    """The labels of the three line classes of `affine._line_classes`
    (e_b, e_a + e_b, e_a + c e_b), each rebuilt from its jump profile:
    the moved flag's profile changes only at the wall steps, where the
    marked vector keeps `_marked_top`, and `_label_from_jumps` reads the
    validated label back from it."""
    return _retry(_jump_line_classes_at, x, i)


class _Model:
    """Quotient of the t^{-M} lattice by the t^M one, over F_q.

    Coordinates are e-indices floor..ceil with floor = 1 - M*N; a lattice
    between the two extremes becomes a subspace."""

    __slots__ = ("N", "M", "q", "floor", "ceil", "dim")

    def __init__(self, N: int, M: int, q: int) -> None:
        self.N = N
        self.M = M
        self.q = q
        self.floor = 1 - M * N
        self.ceil = M * N
        self.dim = 2 * M * N

    def col(self, k: int) -> int:
        return k - self.floor

    def idx(self, col: int) -> int:
        return col + self.floor

    def unit(self, k: int) -> np.ndarray:
        if not self.floor <= k <= self.ceil:
            raise TruncationTooSmall(f"index {k} outside the window")
        vec = np.zeros(self.dim, dtype=np.int64)
        vec[self.col(k)] = 1
        return vec


def _rep_base(w: AffinePerm, jlo: int, model: _Model) -> frozenset:
    """Coordinate support of the second flag's step jlo - 1."""
    disp = w.spread() + w.N
    cols = set()
    for m in range(model.floor - disp, jlo):
        k = w(m)
        if k >= model.floor:
            if k > model.ceil:
                raise TruncationTooSmall("flag base leaks above the window")
            cols.add(model.col(k))
    # the step must swallow everything below the window floor
    u = w.inverse()
    for k in range(model.floor - w.N, model.floor):
        if u(k) > jlo - 1:
            raise TruncationTooSmall("flag base misses part of the window floor")
    return frozenset(cols)


def _rep_vector(beta: BetaSet, model: _Model) -> np.ndarray:
    if beta.top() > model.ceil:
        raise TruncationTooSmall("marked set leaks above the window")
    vec = np.zeros(model.dim, dtype=np.int64)
    for k in beta.members_in(model.floor, model.ceil):
        vec[model.col(k)] = 1
    return vec


def _line_gens(x: RBAffElt, i: int, c, jlo: int, jhi: int, model: _Model):
    """Step generators of the flag obtained from the representative of x
    by replacing the line at positions congruent to i.

    c is None for the untouched flag, an element of F_q for the line
    through e_{w(i)} + c e_{w(i+1)}, or the string "inf" for e_{w(i+1)}.
    """
    w = x.w
    n = w.N
    gens = {}
    for j in range(jlo, jhi + 1):
        shift = (j - i) % n
        cycles = (j - i - shift) // n
        if c is None or shift not in (0, 1):
            gens[j] = [w(j)]
        elif shift == 0:
            a, b = w(i) + n * cycles, w(i + 1) + n * cycles
            if c == "inf":
                gens[j] = [b]
            else:
                if not (model.floor <= a <= model.ceil and model.floor <= b <= model.ceil):
                    raise TruncationTooSmall("perturbed step leaks out of the window")
                vec = model.unit(a)
                vec[model.col(b)] = int(c) % model.q
                gens[j] = [vec]
        else:
            cycles = (j - (i + 1)) // n
            gens[j] = [w(i) + n * cycles, w(i + 1) + n * cycles]
    return gens


def _classify_core(base_cols, gens, v_vec, jlo: int, jhi: int, model: _Model):
    """Echelon sweep: returns (tops, jumps) with tops[j] the new e-index
    entering at step j and jumps[j] the top e-index of the marked vector
    reduced modulo step j (None once it is absorbed)."""
    q = model.q
    rows: dict[int, np.ndarray] = {}
    base = np.array(sorted(base_cols), dtype=np.int64)

    def reduce(vec: np.ndarray) -> np.ndarray:
        r = vec.copy() % q
        if base.size:
            r[base] = 0
        while True:
            nz = np.flatnonzero(r)
            if nz.size == 0:
                return r
            t = int(nz[-1])
            row = rows.get(t)
            if row is None:
                return r
            r = (r - r[t] * row) % q

    v_res = reduce(v_vec)
    tops = {}
    jumps = {}
    for j in range(jlo, jhi + 1):
        new_top = None
        for g in gens[j]:
            vec = g if isinstance(g, np.ndarray) else model.unit(g)
            r = reduce(vec)
            nz = np.flatnonzero(r)
            if nz.size == 0:
                continue
            t = int(nz[-1])
            r = (r * pow(int(r[t]), q - 2, q)) % q
            rows[t] = r
            new_top = t
            if v_res[t] % q:
                v_res = (v_res - v_res[t] * r) % q
                nzv = np.flatnonzero(v_res)
                while nzv.size and rows.get(int(nzv[-1])) is not None:
                    tt = int(nzv[-1])
                    v_res = (v_res - v_res[tt] * rows[tt]) % q
                    nzv = np.flatnonzero(v_res)
            break
        if new_top is None:
            raise TruncationTooSmall(f"no growth at step {j}")
        tops[j] = model.idx(new_top)
        nzv = np.flatnonzero(v_res)
        jumps[j] = model.idx(int(nzv[-1])) if nzv.size else None
    return tops, jumps


def _classify(base_cols, gens, v_vec, jlo, jhi, model: _Model) -> RBAffElt:
    """Classify a truncated triple: the first flag is the coordinate one,
    the second is given by base support plus step generators, the marked
    vector by its coordinates.  Returns the unique label whose invariants
    match; raises TruncationTooSmall when the window cannot decide."""
    tops, jumps = _classify_core(base_cols, gens, v_vec, jlo, jhi, model)
    n = model.N
    for j in range(jlo, jhi + 1 - n):
        if tops[j + n] != tops[j] + n:
            raise TruncationTooSmall(f"period broken at step {j}")
    w = AffinePerm(tuple(tops[j] for j in range(1, n + 1)))
    return _label_from_jumps(w, jumps, jlo, jhi, model.floor)


def _sweep_lines(x: RBAffElt, i: int, model: _Model, jlo: int, jhi: int):
    cs = [None] + list(range(1, model.q)) + ["inf"]
    base = _rep_base(x.w, jlo, model)
    v = _rep_vector(x.beta, model)
    out = []
    for c in cs:
        out.append((c, base, _line_gens(x, i, c, jlo, jhi, model), v))
    return out


def _ts_counts_at(x: RBAffElt, i: int, q: int, grow: int):
    M, jlo, jhi = _window(x, i, grow)
    model = _Model(x.w.N, M, q)

    tally: dict[RBAffElt, int] = {}
    for _, base, gens, v in _sweep_lines(x, i, model, jlo, jhi):
        lab = _classify(base, gens, v, jlo, jhi, model)
        tally[lab] = tally.get(lab, 0) + 1

    counts = {}
    for tgt in tally:
        hit = 0
        for c, base, gens, v in _sweep_lines(tgt, i, model, jlo, jhi):
            if c is None:
                continue
            if _classify(base, gens, v, jlo, jhi, model) == x:
                hit += 1
        if hit:
            counts[tgt] = hit
    if not counts:
        raise TruncationTooSmall("empty wall-crossing product")
    return counts, tally


@lru_cache(maxsize=8192)
def _ts_counts(x: RBAffElt, i: int, q: int):
    return _retry(_ts_counts_at, x, i, q)


def rep_roundtrip(x: RBAffElt, q: int = 2) -> RBAffElt:
    """Build the representative triple of x over F_q and classify it back."""
    n = x.w.N
    b = _bounds(x, n)
    jw = b + 3 * n + 1
    M = (jw + b + n + 2) // n + 1
    model = _Model(n, M, q)
    base = _rep_base(x.w, -jw, model)
    gens = {j: [x.w(j)] for j in range(-jw, jw + 1)}
    v = _rep_vector(x.beta, model)
    return _classify(base, gens, v, -jw, jw, model)


def _check_primes(primes) -> None:
    if len(primes) < 2:
        raise UsageError("need at least two primes to pin a linear coefficient")
    for p in primes:
        check_prime(p)


def counted_ts_action(x: RBAffElt, i: int, primes=DEFAULT_PRIMES) -> dict:
    """The counting oracle for `ts_action`: the lines are counted over
    each finite field and the counts interpolated; every coefficient has
    degree at most one in q."""
    _check_wall(x, i)
    _check_primes(primes)
    per_q = {}
    for q in primes:
        counts, _ = _ts_counts(x, i, q)
        per_q[q] = counts
    labels = set()
    for counts in per_q.values():
        labels.update(counts)
    out = {}
    for lab in sorted(labels, key=_sort_key):
        pts = [(q, per_q[q].get(lab, 0)) for q in primes]
        poly = interpolate(pts, 1)
        if poly:
            out[lab] = poly
    return out


def mass_check(x: RBAffElt, i: int, primes=DEFAULT_PRIMES) -> bool:
    """Every line in the sweep lands on a label and the landing set is the
    product support together with the source itself."""
    _check_primes(primes)
    product = ts_action(x, i)
    for q in primes:
        counts, tally = _ts_counts(x, i, q)
        if sum(tally.values()) != q + 1:
            return False
        seen = set(tally)
        wanted = set(product) | {x}
        if seen != wanted:
            return False
    return True
