"""Periodic flag combinatorics: labels, wall crossing, closure order.

Labels are pairs (w, beta): a permutation of Z commuting with the step-N
shift, and a subset of Z containing every small integer and missing every
large one.  The wall-crossing right action `ts_action` is served in
closed form: the q lines of the P^1 at the wall fall into three classes
(`_line_classes`), each landing on a label read off its permutation and
marked-vector jump profile, and a coefficient is the summed weight of the
classes that come back.  No finite field is built on that route.

The counting oracle (`oracle.counted_ts_action`) builds representative
triples over F_q in a truncated lattice model, classifies every line
back to a label through the same invariants (`_label_from_jumps`) and
interpolates the point counts; it shares the window and retry helpers
(`_window`, `_retry`) with the closed form.  The Hecke relations and
the closure order (`checks.hecke_quadratic_check`, `h_basis_check`,
`bruhat_leq`) are checks on the served products.

Conventions, fixed by the orbit bijection and checked by the template and
quadratic-relation tests:

* the second flag of the representative of (w, beta) is spanned step by
  step by basis vectors in w-order, the marked vector is the sum of e_k
  over k in beta;
* (w, beta) is a valid label iff beta is closed downward under the product
  order (m, w^{-1}(m)); the violating pair is reported the other way round,
  as (i, j) with i outside and j inside;
* composing with the rotation on the right leaves beta unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product as cartesian

from .errors import (
    Incompatible,
    NoTemplateMatch,
    TruncationTooSmall,
    UsageError,
)
from .laurent import QPoly

DEFAULT_PRIMES = (2, 3)

_GROW_STEPS = 3


class AffinePerm:
    """Bijection of Z with w(k + N) = w(k) + N, stored as one period.

    >>> AffinePerm((2, 1))(3)
    4
    """

    __slots__ = ("window",)

    def __init__(self, window) -> None:
        window = tuple(int(x) for x in window)
        n = len(window)
        if n == 0:
            raise UsageError("empty window")
        if sorted(x % n for x in window) != list(range(n)):
            raise UsageError(f"window {window} is not a complete residue system")
        self.window = window

    @property
    def N(self) -> int:
        return len(self.window)

    def __call__(self, k: int) -> int:
        window = self.window
        c, r = divmod(k - 1, len(window))
        return window[r] + len(window) * c

    def __eq__(self, other) -> bool:
        return isinstance(other, AffinePerm) and self.window == other.window

    def __hash__(self) -> int:
        return hash(("AffinePerm", self.window))

    def __repr__(self) -> str:
        return f"AffinePerm({self.window})"

    @classmethod
    def identity(cls, n: int) -> "AffinePerm":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def rotation(cls, n: int, d: int = 1) -> "AffinePerm":
        return cls(tuple(k + d for k in range(1, n + 1)))

    @classmethod
    def simple(cls, n: int, i: int) -> "AffinePerm":
        """Reflection swapping i + cN and i + 1 + cN for every c."""
        if not 1 <= i <= n:
            raise UsageError(f"reflection index {i} out of range 1..{n}")

        def s(k: int) -> int:
            r = k % n
            if r == i % n:
                return k + 1
            if r == (i + 1) % n:
                return k - 1
            return k

        return cls(tuple(s(k) for k in range(1, n + 1)))

    def inverse(self) -> "AffinePerm":
        inv = [0] * self.N
        for r, w in enumerate(self.window):
            c, rr = divmod(w - 1, self.N)
            inv[rr] = (r + 1) - self.N * c
        return AffinePerm(tuple(inv))

    def after(self, other: "AffinePerm") -> "AffinePerm":
        """self composed after other: k -> self(other(k))."""
        if other.N != self.N:
            raise UsageError("period mismatch")
        return AffinePerm(tuple(self(other(k)) for k in range(1, self.N + 1)))

    def degree(self) -> int:
        """Net lattice rotation per period; indexes the component."""
        n = self.N
        return (sum(self.window) - n * (n + 1) // 2) // n

    def spread(self) -> int:
        return max(abs(self.window[r] - (r + 1)) for r in range(self.N))

    def length(self) -> int:
        """Count of pairs i < j with w(i) > w(j), i running over a period."""
        disp = max((r + 1) - self.window[r] for r in range(self.N))
        total = 0
        for i in range(1, self.N + 1):
            wi = self(i)
            for j in range(i + 1, wi + disp + 1):
                if self(j) < wi:
                    total += 1
        return total


class BetaSet:
    """Subset of Z of the form (-inf, lo] plus finitely many extras.

    Canonical: every extra exceeds lo + 1 or gets absorbed into the tail.

    >>> BetaSet(0, (1, 3)).lo
    1
    """

    __slots__ = ("lo", "extra")

    def __init__(self, lo: int = 0, extra=()) -> None:
        lo = int(lo)
        members = {int(x) for x in extra if int(x) > lo}
        while lo + 1 in members:
            members.discard(lo + 1)
            lo += 1
        self.lo = lo
        self.extra = tuple(sorted(members))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BetaSet)
            and self.lo == other.lo
            and self.extra == other.extra
        )

    def __hash__(self) -> int:
        return hash(("BetaSet", self.lo, self.extra))

    def __repr__(self) -> str:
        if self.extra:
            return f"BetaSet({self.lo}, {self.extra})"
        return f"BetaSet({self.lo})"

    def __contains__(self, k: int) -> bool:
        return k <= self.lo or k in self.extra

    def top(self) -> int:
        return self.extra[-1] if self.extra else self.lo

    def members_in(self, floor: int, ceil: int):
        for k in range(floor, ceil + 1):
            if k in self:
                yield k

    def ell(self) -> int:
        """Signed count of members above zero minus holes at or below it."""
        pos = max(self.lo, 0) + sum(1 for x in self.extra if x > 0)
        neg = max(-self.lo, 0) - sum(1 for x in self.extra if x <= 0)
        return pos - neg

    def toggle(self, k: int) -> "BetaSet":
        if k in self:
            if k > self.lo:
                return BetaSet(self.lo, tuple(x for x in self.extra if x != k))
            # splitting the tail at k promotes the members above it
            return BetaSet(k - 1, self.extra + tuple(range(k + 1, self.lo + 1)))
        return BetaSet(self.lo, self.extra + (k,))

    def diff(self, other: "BetaSet"):
        """Pair (only in self, only in other); both finite since the tails
        agree far down."""
        floor = min(self.lo, other.lo) - 1
        ceil = max(self.top(), other.top())
        mine = set(self.members_in(floor, ceil))
        theirs = set(other.members_in(floor, ceil))
        return tuple(sorted(mine - theirs)), tuple(sorted(theirs - mine))


def _violation(w: AffinePerm, beta: BetaSet):
    """First pair (i, j), i not in beta, j in beta, with i < j and
    u(i) < u(j) for u the inverse permutation; None if the label is valid."""
    u = w.inverse()
    margin = w.spread() + w.N + 1
    floor = beta.lo - margin
    ceil = beta.top() + margin
    inside = [j for j in range(floor, ceil + 1) if j in beta]
    for i in range(floor, ceil + 1):
        if i in beta:
            continue
        for j in inside:
            if i < j and u(i) < u(j):
                return (i, j)
    return None


class RBAffElt:
    """Validated label (w, beta)."""

    __slots__ = ("w", "beta")

    def __init__(self, w: AffinePerm, beta: BetaSet) -> None:
        bad = _violation(w, beta)
        if bad is not None:
            raise Incompatible(f"pair (w={w.window}, beta={beta!r}) fails at (i, j)={bad}")
        self.w = w
        self.beta = beta

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RBAffElt)
            and self.w == other.w
            and self.beta == other.beta
        )

    def __hash__(self) -> int:
        return hash((self.w.window, self.beta.lo, self.beta.extra))

    def __repr__(self) -> str:
        return f"RBAffElt(w={self.w.window}, beta={self.beta!r})"

    def length(self) -> int:
        return self.w.length() + self.beta.ell()

    def degree(self) -> int:
        return self.w.degree()

    def shift(self, d: int) -> "RBAffElt":
        """Compose with the rotation on the right; beta is untouched."""
        rot = AffinePerm.rotation(self.w.N, d)
        return RBAffElt(self.w.after(rot), self.beta)

    def wall(self, i: int) -> "RBAffElt":
        """Label (ws, beta) for the reflection at i; the marked vector is
        untouched by wall crossing, so beta carries over as a set.

        Raises Incompatible when the pair is not a label.
        """
        s = AffinePerm.simple(self.w.N, i)
        return RBAffElt(self.w.after(s), self.beta)



def validate(window, beta_lo: int, beta_extra=()) -> RBAffElt:
    """Build a label from raw pieces, raising Incompatible on bad input."""
    return RBAffElt(AffinePerm(window), BetaSet(beta_lo, beta_extra))


# ---------------------------------------------------------------------------
# labels from jump profiles


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


# ---------------------------------------------------------------------------
# wall-crossing action


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


_ONE = QPoly.one()
_GENERIC = QPoly.q_power(1) - 2


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


def _line_classes_at(x: RBAffElt, i: int, grow: int):
    n = x.w.N
    M, jlo, jhi = _window(x, i, grow)
    w = x.w
    ws = w.after(AffinePerm.simple(n, i))
    ascent = w(i) < w(i + 1)
    J = _predicted_jumps(x, jlo, jhi + 1)
    out = []
    for line, weight in (("inf", _ONE), ("one", _ONE), ("generic", _GENERIC)):
        jumps = {j: J[j] for j in range(jlo, jhi + 1)}
        for j in range(jlo + (i - jlo) % n, jhi + 1, n):
            kept = J[j + 1]
            top = _marked_top(w(j), w(j + 1), x.beta, line, ascent)
            if top is not None and (kept is None or top > kept):
                kept = top
            jumps[j] = kept
        perm = ws if line == "inf" or ascent else w
        out.append((_label_from_jumps(perm, jumps, jlo, jhi, 1 - M * n), weight))
    return tuple(out)


@lru_cache(maxsize=8192)
def _line_classes(x: RBAffElt, i: int):
    """The lines of the P^1 at wall i other than x's own, in three classes:
    (label, weight) for e_b (weight 1), e_a + e_b (weight 1) and
    e_a + c e_b with c outside {0, 1} (weight q - 2), a = w(i), b = w(i+1).

    Why this is the counting oracle's classification in closed form.  In
    x's representative the step L_j is spanned by e_{w(k)}, k <= j, and
    the marked vector is v, the sum of e_k over k in beta.  Moving the line
    at every step j = i mod N (a = w(j), b = w(j+1)) to a line l of
    span(e_a, e_b) changes only the steps L_j, to L_{j-1} + l.
    `oracle._classify` reads a label off two invariants of the flag, and both
    are intrinsic to the subspaces, so they are unchanged at the other
    steps:

    * the pivots, the index each step adds.  At step j it is the top
      index of l: b for e_b, and max(a, b) for e_a + c e_b with c != 0.
      So the permutation becomes w s for e_b and on an ascent (a < b),
      and stays w for the c != 0 lines on a descent;
    * the jump profile, the top index of v modulo each step.  Modulo
      L_{j-1}, v is its part modulo L_{j+1} (top J(j+1), on indices
      no step up to j+1 has as pivot) plus p = [a in beta] e_a +
      [b in beta] e_b.  Modulo l, p leaves the non-pivot index of l
      unless p lies on l, so J'(j) = max({J(j+1)} | T) with T that
      index or empty (`_marked_top`).

    p lies on e_a + c e_b, c != 0, only if p = 0 or c = 1 with a and b
    both in beta.  So every c outside {0, 1} has the same pivots and
    jumps and lands on one label; the q - 2 of them give the weight.
    By `_label_from_jumps` the pair (pivots, jumps) fixes the label, as
    it does in the oracle.  The rule has been checked against the count
    on all of universe(2), universe(2, 1, 1) and seeded samples of
    universe(3) and universe(4) (tests/test_affine.py)."""
    return _retry(_line_classes_at, x, i)


def _check_wall(x: RBAffElt, i: int) -> None:
    if not 1 <= i <= x.w.N:
        raise UsageError(f"wall position {i} out of range 1..{x.w.N}")


@lru_cache(maxsize=4096)
def ts_action(x: RBAffElt, i: int) -> dict:
    """Expansion of the product with the wall generator at position i.

    Closed form: the candidates are x and the labels of x's line classes,
    and the coefficient of y is the summed weight of y's classes that
    land on x.  No field size enters.  Cached; treat the result as
    read-only."""
    _check_wall(x, i)
    out = {}
    for y in sorted({x} | {y for y, _ in _line_classes(x, i)}, key=_sort_key):
        coeff = QPoly.zero()
        for z, weight in _line_classes(y, i):
            if z == x:
                coeff = coeff + weight
        if coeff:
            out[y] = coeff
    return out


def _sort_key(x: RBAffElt):
    return (x.length(), x.w.window, x.beta.lo, x.beta.extra)


def _match_template(x: RBAffElt, i: int, product):
    """Identify the unique case shape fitting the computed product.

    Returns (case, roles) where roles names the participating labels and
    records the inferred marked-set toggle slot.  The shapes constrain the
    coefficient pattern, the permutation parts, and the toggle arithmetic;
    which slot toggles is read off the product, never predicted.
    """
    one = QPoly.one()
    qq = QPoly.q_power(1)
    s = AffinePerm.simple(x.w.N, i)
    ws = x.w.after(s)
    ascent = ws.length() > x.w.length()
    labs = sorted(product, key=_sort_key)
    hits = []
    if ascent and len(labs) == 1:
        y = labs[0]
        if y.w == ws and y.beta == x.beta and product[y] == one:
            hits.append((1, {"xs": y}))
    if ascent and len(labs) == 2 and all(product[y] == one for y in labs):
        mains = [y for y in labs if y.beta == x.beta]
        if len(mains) == 1 and all(y.w == ws for y in labs):
            other = next(y for y in labs if y is not mains[0])
            gone, came = x.beta.diff(other.beta)
            if len(gone) == 1 and not came:
                hits.append((2, {"xs": mains[0], "xsp": other, "toggle": gone[0]}))
    if not ascent and len(labs) == 2 and all(product[y] == one for y in labs):
        kept = [y for y in labs if y.w == x.w]
        moved = [y for y in labs if y.w == ws]
        if len(kept) == 1 and len(moved) == 1 and kept[0].beta == moved[0].beta:
            gone, came = x.beta.diff(kept[0].beta)
            if not gone and len(came) == 1:
                hits.append((3, {"xf": kept[0], "xfs": moved[0], "toggle": came[0]}))
    if not ascent and len(labs) == 2 and product.get(x) == qq - 1:
        other = [y for y in labs if y != x]
        if other and other[0].w == ws and other[0].beta == x.beta and product[other[0]] == qq:
            hits.append((4, {"xs": other[0]}))
    if not ascent and len(labs) == 3 and product.get(x) == qq - 2:
        side = [y for y in labs if y != x]
        xs_c = [y for y in side if y.w == ws and y.beta == x.beta]
        xp_c = [y for y in side if y.w == x.w]
        if (len(xs_c) == 1 and len(xp_c) == 1
                and product[xs_c[0]] == qq - 1 and product[xp_c[0]] == qq - 1):
            gone, came = x.beta.diff(xp_c[0].beta)
            if len(gone) == 1 and not came:
                hits.append((5, {"xs": xs_c[0], "xp": xp_c[0], "toggle": gone[0]}))
    if len(hits) != 1:
        cases = [cid for cid, _ in hits]
        raise NoTemplateMatch(
            f"product at {x}, position {i} matched cases {cases}: {product}"
        )
    return hits[0]


def pattern_check(x: RBAffElt, i: int, product=None) -> int:
    """Match the wall-crossing product against the five closed shapes and
    return the unique case number.

    Shapes, with xs = (w s, beta) the wall label, xp a one-element drop
    from the marked set, and xf a one-element fill:
      1: xs                          (ascent)
      2: xs + xp-of-xs               (ascent, drop)
      3: xf + wall(xf)               (descent, the marked vector moves)
      4: (q-1) x + q xs              (plain descent)
      5: (q-2) x + (q-1)(xp + xs)    (descent, drop)

    Which element drops or fills is inferred from the product; the shape
    demands it be a single toggle and the case assignment be unique.
    """
    if product is None:
        product = ts_action(x, i)
    return _match_template(x, i, product)[0]


# ---------------------------------------------------------------------------
# enumeration helpers


@lru_cache(maxsize=None)
def universe(N: int, shift_bound: int = 1, beta_bound: int = 2) -> tuple:
    """All valid labels with window displacements and sporadic members
    inside the stated bounds, in a stable order."""
    out = set()
    shifts = range(-shift_bound, shift_bound + 1)
    for pi in permutations(range(1, N + 1)):
        for cs in cartesian(shifts, repeat=N):
            w = AffinePerm(tuple(pi[r] + N * cs[r] for r in range(N)))
            for add in _subsets(range(1, beta_bound + 1)):
                for rem in _subsets(range(1 - beta_bound, 1)):
                    members = [m for m in range(1 - beta_bound, 1) if m not in rem]
                    members.extend(add)
                    try:
                        out.add(RBAffElt(w, BetaSet(-beta_bound, members)))
                    except Incompatible:
                        continue
    return tuple(sorted(out, key=_sort_key))


def _subsets(rng):
    items = list(rng)
    for mask in range(1 << len(items)):
        yield tuple(items[t] for t in range(len(items)) if mask >> t & 1)
