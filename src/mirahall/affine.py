"""Periodic flag combinatorics: labels, wall crossing, closure order.

Labels are pairs (w, beta): a permutation of Z commuting with the step-N
shift, and a subset of Z containing every small integer and missing every
large one.  The wall-crossing right action `ts_action` is served in
closed form.  The q lines of the P^1 at the wall, other than the
label's own, fall into three classes (`_line_classes`), and each class's
label is built directly from (w, beta, i): its permutation is w s or w,
and its marked set is beta with one slot per wall step added or
dropped, closed downward in the order of the new permutation.  What
the wall needs of w alone (w s, both inverses, the ascent, the pair
(top, low)) is made once per window and wall (`_wall`), for every label
with that permutation.  A coefficient is the summed weight of the
classes that come back.  Which of the five shapes the product takes,
and which slot it toggles, is predicted from the ascent or descent at
the wall and from which classes move beta (`predicted_case`);
`pattern_check` holds the product to that shape.  No finite field is
built, and no label is read back from a flag invariant, on that route.

The counting oracle (`oracle.counted_ts_action`) builds representative
triples over F_q in a truncated lattice model, classifies every line
back to a label through its pivots and marked-vector jump profile
(`oracle._label_from_jumps`) and interpolates the point counts;
`oracle.jump_line_classes` rebuilds each line class the same way, as the
oracle for the direct rule.  The Hecke relations and the closure order
(`checks.hecke_quadratic_check`, `h_basis_check`, `bruhat_leq`) are
checks on the served products.

Conventions, fixed by the orbit bijection and checked by the template and
quadratic-relation tests:

* the second flag of the representative of (w, beta) is spanned step by
  step by basis vectors in w-order, the marked vector is the sum of e_k
  over k in beta;
* (w, beta) is a valid label iff beta equals its own downward closure
  (`_closed`) under the product order (m, w^{-1}(m)), one scan over
  (lo, top] (`_is_closed`); the error names the first violating pair the
  other way round, as (i, j) with i outside and j inside;
* composing with the rotation on the right leaves beta unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product as cartesian

from .errors import Incompatible, NoTemplateMatch, UsageError
from .laurent import QPoly

DEFAULT_PRIMES = (2, 3)


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

    @classmethod
    def _trusted(cls, window: tuple) -> "AffinePerm":
        """Wrap a window known to be a complete residue system."""
        out = cls.__new__(cls)
        out.window = window
        return out

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
        n = len(self.window)
        inv = [0] * n
        for r, w in enumerate(self.window):
            c, rr = divmod(w - 1, n)
            inv[rr] = (r + 1) - n * c
        return AffinePerm._trusted(tuple(inv))

    def after(self, other: "AffinePerm") -> "AffinePerm":
        """self composed after other: k -> self(other(k))."""
        if other.N != self.N:
            raise UsageError("period mismatch")
        return AffinePerm._trusted(tuple(self(other(k)) for k in range(1, self.N + 1)))

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


@lru_cache(maxsize=None)
def _length(window: tuple) -> int:
    """The length of the permutation with this window, once per window."""
    return AffinePerm._trusted(window).length()


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


def _closed(u: tuple, members, floor: int, ceil: int) -> BetaSet:
    """Every index below floor, with the downward closure of `members`
    (a collection inside [floor, ceil]) in the order (m, u(m)); u is
    given by its window.

    m joins when some member r >= m has u(r) >= u(m): one scan down from
    ceil, keeping the maximum of u over the members seen, that stops at
    the lowest index outside `members`, as every index below it is in."""
    n = len(u)
    stop = floor
    while stop in members:
        stop += 1
    kept = []
    best = None
    for m in range(ceil, stop - 1, -1):
        c, r = divmod(m - 1, n)
        um = u[r] + n * c  # u(m), inlined: this loop is the hot one
        if m in members:
            if best is None or um > best:
                best = um
            kept.append(m)
        elif best is not None and um <= best:
            kept.append(m)
    lo = stop - 1
    while kept and kept[-1] == lo + 1:
        lo = kept.pop()
    return BetaSet(lo, kept)


def _is_closed(u: tuple, beta: BetaSet) -> bool:
    """Whether (w, beta) is a label, u = w^{-1} by its window: beta equals
    its own downward closure.  A violating pair has lo < i < j <= top,
    so one `_closed` scan over (lo, top] decides it."""
    return _closed(u, beta.extra, beta.lo + 1, beta.top()) == beta


def _violation(w: AffinePerm, beta: BetaSet):
    """First pair (i, j), i not in beta, j in beta, with i < j and
    u(i) < u(j) for u the inverse permutation; None if the label is
    valid.  Such a pair has lo < i < j <= top."""
    u = w.inverse()
    for i in range(beta.lo + 1, beta.top()):
        for j in beta.extra:
            if i < j and i not in beta and u(i) < u(j):
                return (i, j)
    return None


class RBAffElt:
    """Validated label (w, beta)."""

    __slots__ = ("w", "beta")

    def __init__(self, w: AffinePerm, beta: BetaSet) -> None:
        if not _is_closed(w.inverse().window, beta):
            bad = _violation(w, beta)
            raise Incompatible(f"pair (w={w.window}, beta={beta!r}) fails at (i, j)={bad}")
        self.w = w
        self.beta = beta

    @classmethod
    def _trusted(cls, w: AffinePerm, beta: BetaSet) -> "RBAffElt":
        """Wrap a pair known to be a label, without validating it again."""
        out = cls.__new__(cls)
        out.w = w
        out.beta = beta
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RBAffElt)
            and self.w.window == other.w.window
            and self.beta.lo == other.beta.lo
            and self.beta.extra == other.beta.extra
        )

    def __hash__(self) -> int:
        return hash((self.w.window, self.beta.lo, self.beta.extra))

    def __repr__(self) -> str:
        return f"RBAffElt(w={self.w.window}, beta={self.beta!r})"

    def length(self) -> int:
        return _length(self.w.window) + self.beta.ell()

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
# wall-crossing action


_ONE = QPoly.one()
_Q = QPoly.q_power(1)
_GENERIC = _Q - 2


@lru_cache(maxsize=None)
def _wall(window: tuple, i: int):
    """What the wall at i needs of the permutation w alone, shared by
    every label with that window: (w s, w^{-1} and (w s)^{-1} by their
    windows, ascent, (top, low), margin).  (top, low) is (w(i+1), w(i))
    on an ascent and (w(i), w(i+1)) on a descent; margin = spread + N + 1."""
    w = AffinePerm._trusted(window)
    ws = w.after(AffinePerm.simple(len(window), i))
    a, b = w(i), w(i + 1)
    return (ws, w.inverse().window, ws.inverse().window, a < b,
            (b, a) if a < b else (a, b), w.spread() + len(window) + 1)


@lru_cache(maxsize=None)
def _line_classes(x: RBAffElt, i: int):
    """The lines of the P^1 at wall i other than x's own, in three classes:
    (label, weight) for e_b (weight 1), e_a + e_b (weight 1) and
    e_a + c e_b with c outside {0, 1} (weight q - 2), a = w(i), b = w(i+1).

    Why this is the counting oracle's classification in closed form.  In
    x's representative the step L_j is spanned by e_{w(k)}, k <= j, and
    the marked vector is v, the sum of e_k over k in beta.  Moving the
    line at every step j = i mod N (a = w(j), b = w(j+1)) to a line l of
    span(e_a, e_b) changes only the steps L_j, to L_{j-1} + l.
    `oracle._classify` reads a label off two invariants of the flag, both
    intrinsic to the subspaces:

    * the pivots, the index each step adds: b for e_b and max(a, b) for
      e_a + c e_b, c != 0.  So the permutation is w s for e_b and on an
      ascent (a < b), and stays w for the c != 0 lines on a descent;
    * the jump profile J(j), the top index of v modulo L_j.  For a label
      (perm, S) it is max{m in S : u(m) > j}, u = perm^{-1}.  Moving the line
      changes it only at the wall steps, where modulo L_{j-1} + l the
      part p = [a in beta] e_a + [b in beta] e_b of v leaves the
      non-pivot index of l unless p lies on l.

    Write (top, low) = (b, a) on an ascent and (a, b) on a descent: the
    c != 0 lines' permutation puts the larger index top at step j and
    low at step j + 1.  Then the moved flag has the jump profile of
    (perm, S), S being beta changed at each wall step as follows:

    * if top and low are both in beta, p = e_a + e_b lies on the line
      c = 1, so the "one" class loses low; the other lines keep it;
    * if top is in beta and low is not, p leaves low on the c != 0
      lines, so both those classes gain low;
    * for e_b, p leaves a, which beta already had.

    Removing or adding low never moves the profile at another step:
    before step j the member top > low counts too, and from step j + 1
    on low does not count.  A label is fixed by its permutation and
    profile, and closing S downward in the order (m, u(m)) keeps the
    profile (a member added below r in both orders is never a new
    maximum), so the class's label is (perm, S) closed downward
    (`_closed`).  For e_b that is (w s, beta) closed.

    Only steps whose pair lies in [beta.lo - 2 margin, beta.top()]
    matter, margin = spread + N + 1: low < top, and a top outside beta
    changes nothing; deeper down both are in beta, and a dropped low
    comes back with the closure, as some index of the tail above it is
    later in the u order too.  `oracle._label_from_jumps` rebuilds each
    class from its jump profile; tests/test_affine.py checks that it
    agrees on all of universe(2) and universe(3) and a seeded sample of
    universe(4), and the count agrees with the products."""
    w, beta = x.w, x.beta
    n = w.N
    ws, u_w, u_ws, ascent, (top0, low0), margin = _wall(w.window, i)
    floor = beta.lo - 2 * margin
    ceil = beta.top()
    members = {*range(floor, beta.lo + 1), *beta.extra}
    one, generic = set(members), set(members)
    # the wall steps' pairs are (top0 + d, low0 + d) for d = 0 mod N
    for d in range(floor - low0 + (low0 - floor) % n, ceil - top0 + 1, n):
        top, low = top0 + d, low0 + d
        if top not in members:
            continue
        if low in members:
            one.discard(low)
        else:
            one.add(low)
            generic.add(low)
    inf = RBAffElt._trusted(ws, _closed(u_ws, members, floor, ceil))
    # beta closes to itself in the w order, and to inf's in the w s order
    perm, u, same = (ws, u_ws, inf) if ascent else (w, u_w, x)
    one, generic = (
        same if s == members else RBAffElt._trusted(perm, _closed(u, s, floor, ceil))
        for s in (one, generic)
    )
    return ((inf, _ONE), (one, _ONE), (generic, _GENERIC))


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


@lru_cache(maxsize=None)
def _sort_key(x: RBAffElt):
    return (x.length(), x.w.window, x.beta.lo, x.beta.extra)


def predicted_case(x: RBAffElt, i: int):
    """(case, roles): the case of the product at wall i and its labels,
    predicted from the ascent or descent at i and from which line
    classes move beta (`_line_classes`), before any product is formed.

    On an ascent beta is closed in the w order and w(i) < w(i+1), so
    only the "one" class can move beta, dropping a slot: case 2 if it
    does, case 1 if not.  On a descent the c != 0 classes gain a slot
    together (case 3), or the "one" class alone drops one (case 5), or
    neither moves (case 4).  roles names the labels of the shape (see
    `pattern_check`) and the toggled slot; a move of more than one slot
    raises NoTemplateMatch."""
    _, (one, _), (generic, _) = _line_classes(x, i)
    ws, _, _, ascent, _, _ = _wall(x.w.window, i)
    xs = RBAffElt._trusted(ws, x.beta)
    if ascent:
        if one.beta == x.beta:
            return 1, {"xs": xs}
        case, roles, moved = 2, {"xs": xs, "xsp": one}, one
    elif generic.beta != x.beta:
        case, moved = 3, generic
        roles = {"xf": generic, "xfs": RBAffElt._trusted(ws, generic.beta)}
    elif one.beta != x.beta:
        case, roles, moved = 5, {"xs": xs, "xp": one}, one
    else:
        return 4, {"xs": xs}
    gone, came = x.beta.diff(moved.beta)
    toggled = came if case == 3 else gone
    if len(toggled) != 1 or len(gone) + len(came) != 1:
        raise NoTemplateMatch(
            f"case {case} at {x}, position {i} moves beta by {gone} and {came}"
        )
    roles["toggle"] = toggled[0]
    return case, roles


def pattern_check(x: RBAffElt, i: int, product=None) -> int:
    """The case of the wall-crossing product, checked against its shape.

    Shapes, with xs = (w s, beta) the wall label, xp a one-element drop
    from the marked set, and xf a one-element fill:
      1: xs                          (ascent)
      2: xs + xp-of-xs               (ascent, drop)
      3: xf + wall(xf)               (descent, the marked vector moves)
      4: (q-1) x + q xs              (plain descent)
      5: (q-2) x + (q-1)(xp + xs)    (descent, drop)

    The case and the toggled slot are predicted (`predicted_case`); the
    product must equal the predicted shape term for term, or
    NoTemplateMatch is raised.
    """
    if product is None:
        product = ts_action(x, i)
    case, roles = predicted_case(x, i)
    if case == 1:
        shape = {roles["xs"]: _ONE}
    elif case == 2:
        shape = {roles["xs"]: _ONE, roles["xsp"]: _ONE}
    elif case == 3:
        shape = {roles["xf"]: _ONE, roles["xfs"]: _ONE}
    elif case == 4:
        shape = {x: _Q - 1, roles["xs"]: _Q}
    else:
        shape = {x: _GENERIC, roles["xp"]: _Q - 1, roles["xs"]: _Q - 1}
    if product != shape:
        raise NoTemplateMatch(
            f"product at {x}, position {i} is not the case {case} shape: {product}"
        )
    return case


# ---------------------------------------------------------------------------
# enumeration helpers


@lru_cache(maxsize=None)
def universe(N: int, shift_bound: int = 1, beta_bound: int = 2) -> tuple:
    """All valid labels with window displacements and sporadic members
    inside the stated bounds, in a stable order.  Each candidate marked
    set is built once and tested against each permutation's inverse
    (`_is_closed`)."""
    shifts = range(-shift_bound, shift_bound + 1)
    slots = range(1 - beta_bound, beta_bound + 1)
    betas = [
        BetaSet(-beta_bound, members)
        for k in range(len(slots) + 1)
        for members in combinations(slots, k)
    ]
    out = []
    for pi in permutations(range(1, N + 1)):
        for cs in cartesian(shifts, repeat=N):
            w = AffinePerm._trusted(tuple(pi[r] + N * cs[r] for r in range(N)))
            u = w.inverse().window
            out += [RBAffElt._trusted(w, beta) for beta in betas if _is_closed(u, beta)]
    return tuple(sorted(out, key=_sort_key))
