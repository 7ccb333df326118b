"""The class ring over a fixed finite field, with labels split by
irreducible polynomial, its freeness check, and the guard that refuses
a ring too large to check (`check_green_cost`), which counts the labels
without listing any; the table modules are reached as modules, so a
refused request runs none of them.

The freeness check reads one block per size, the checked matrix that
the `pi` table reads too (`bimodule.action_matrix`; `green_ring` says
why that is enough); `green_mul` is the oracle the tests replay.

>>> irreducible_polys(2, 2)  # t + 1 and t^2 + t + 1 over F_2
((1, 1), (1, 1, 1))
>>> green_label_count(2, 2), len(green_labels(2, 2))
(7, 7)
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as cartesian
from typing import Iterable, Mapping

from . import bimodule, combination, costs, hall
from .config import check_prime
from .errors import CostGuard, FieldMismatch, UsageError
from .partitions import (Bipartition, bipartition_count, bipartitions_of, label_size,
                         partitions_of, trim_pair)


# Budget for the labels of the class ring that `green` lists and
# renders; the freeness check reads the matrices of `pi` at each k <= n,
# so n is bounded first by the budget of `pi` (`costs.check_cost`).
# Cold on a 2-vCPU box the slowest accepted rings were `--n 10 --q 2`
# (8,273 labels) at 12.0 s and 55 MB and `--n 9 --q 2` (3,650) at 3.8 s;
# at n = 1 listing grows as q^2: `--n 1 --q 5987` (11,972) took 1.2 s.
MAX_GREEN_LABELS = 12000


def _irreducible_count(q: int, d: int) -> int:
    """Monic irreducibles of degree d over F_q, the coordinate
    polynomial t left out: Gauss's count (1/d) sum_(e | d) mu(d/e) q^e."""
    total = sum(_mobius(d // e) * q**e for e in range(1, d + 1) if d % e == 0)
    return total // d - (d == 1)


def _mobius(n: int) -> int:
    sign, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            sign = -sign
        f += 1
    return -sign if n > 1 else sign


def green_label_count(n: int, q: int) -> int:
    """len(green_labels(n, q)), without listing them.

    A label assigns a pair label of size k_f to each irreducible f with
    sum k_f deg f = n, so the count is the coefficient of x^n in the
    product over degrees d of (sum_k c(k) x^(dk))^(irreducibles of
    degree d), c(k) = `bipartition_count(k)`; each power is taken by
    squaring, so a large field costs no more than a small one."""
    if n < 0:
        return 0
    ways = [1] + [0] * n
    for d in range(1, n + 1):
        top = n // d
        factor = _series_power(
            [bipartition_count(k) for k in range(top + 1)],
            _irreducible_count(q, d),
        )
        ways = [
            sum(ways[m - d * k] * factor[k] for k in range(m // d + 1))
            for m in range(n + 1)
        ]
    return ways[n]


def _series_power(base: list[int], e: int) -> list[int]:
    """base**e as a power series, truncated to len(base) terms."""
    size = len(base)

    def mul(a: list[int], b: list[int]) -> list[int]:
        return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(size)]

    out = [1] + [0] * (size - 1)
    while e:
        if e & 1:
            out = mul(out, base)
        base = mul(base, base)
        e >>= 1
    return out


def check_green_cost(n: int, q: int) -> None:
    """Refuse, before any label is listed, a class ring whose blocks pass
    the budget of `pi` or whose labels, counted, pass MAX_GREEN_LABELS."""
    costs.check_cost(n)
    count = green_label_count(n, q)
    if count > MAX_GREEN_LABELS:
        raise CostGuard(f"class ring at n={n}, q={q} has {count} labels; the budget is "
                        f"{MAX_GREEN_LABELS} labels")


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


@lru_cache(maxsize=None)
def _irreducible_set(q: int, max_deg: int) -> frozenset[tuple[int, ...]]:
    return frozenset(irreducible_polys(q, max_deg))


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
            bp = trim_pair(bp)
            if bp == ((), ()):
                continue
            if len(f) < 2 or f[-1] != 1:
                raise UsageError(f"{f} is not monic of positive degree")
            if f == (0, 1):
                raise UsageError("the coordinate polynomial is excluded")
            if f not in _irreducible_set(q, len(f) - 1):
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
    _gather_labels(q, polys, pure, 0, n, [], out)
    out.sort(key=GreenLabel.sort_key)
    return out


def _gather_labels(q: int, polys: list, pure: bool, start: int, remaining: int,
                   acc: list, out: list) -> None:
    """Append to `out` each label that extends `acc` by polynomials from
    polys[start:] of total weight `remaining`, one level per polynomial
    (so the depth is at most n); module level, since a closure that calls
    itself is a cycle only the collector frees."""
    if remaining == 0:
        out.append(GreenLabel(q, tuple(acc)))
        return
    for idx in range(start, len(polys)):
        f = polys[idx]
        d = len(f) - 1
        if d > remaining:
            break
        for w in range(d, remaining + 1, d):
            shapes = (
                [((), mu) for mu in partitions_of(w // d)]
                if pure
                else bipartitions_of(w // d)
            )
            for bp in shapes:
                _gather_labels(q, polys, pure, idx + 1, remaining - w, acc + [(f, bp)], out)


@lru_cache(maxsize=None)
def _image(side: str, nu, src: Bipartition, qd: int) -> tuple:
    """(target, coefficient) pairs of u_nu acting on u_src at the rank
    they fill; the coefficients are polynomials in q = v**2, read at
    q = qd (q**deg(f) for a polynomial f).  `green_mul` asks for it for
    every label and polynomial it acts on, but it depends only on these
    four arguments."""
    rank = label_size(src) + sum(nu)
    image = bimodule.act(side, hall.u_elt(nu, rank), bimodule.u_bip(src, rank))
    return tuple((tgt, g.bar().to_t_poly().evaluate(qd)) for tgt, g in image.items())


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
        choices = []
        for f, nu_pair in cls._s:
            image = _image(side, nu_pair[1], glab.get(f), cls.q ** (len(f) - 1))
            choices.append([(f, tgt, c) for tgt, c in image])
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
            combination.Combination._accumulate(out, [(GreenLabel(cls.q, support), coeff)])
    return out


def green_freeness_check(n: int, q: int) -> dict:
    """The report of `green_ring`, without its labels."""
    return green_ring(n, q)[1]


def green_ring(n: int, q: int) -> tuple[list["GreenLabel"], dict]:
    """The size-n labels, listed once, and the report that two-sided
    products of plain classes against the empty label hit them through
    a square matrix invertible over Q.

    The row of a pair (a, b) of pure labels is
    `green_mul("left", a, green_mul("right", b, {unit: 1}))`.  The right
    product on the unit is the identity on pure labels, and every
    product splits over the polynomials, so the matrix is block-diagonal
    by the size k_f of each polynomial f, each block the Kronecker
    product over f of `bimodule.action_matrix(k_f, k_f)` read at
    q**deg(f).  That matrix is checked to be triangular with a monomial
    diagonal, so the whole is invertible at every q.  A ring past the
    guard (`check_green_cost`) is refused before any label is listed."""
    check_prime(q)
    check_green_cost(n, q)
    labels = green_labels(n, q)
    for k in range(1, n + 1):
        bimodule.action_matrix(k, k)
    return labels, {"n": n, "q": q, "dimension": len(labels), "passed": True}
