"""Cost models of every request, and the guards that refuse a request
past its budget before any table work.

`check_cost` and `check_size_cost` bound the labels of the tables that
`pi`, `mhl`, `trace` and `mirabolic` build, `check_universe_cost` the
candidate labels of `iwahori mult`, `check_green_cost` the class ring
of `green` and `check_hall_cost` the generator steps of a `hall`
product.  Each counts without building anything, from `partitions` at
most, which this module reaches as a module so that a guard that needs
no label count (`iwahori`) leaves it unrun; a refused request runs no
table module.  A request runs this module only when a payload builder
(in `mirahall.artifacts`) reaches its guard, and
`traces.green_freeness_check` runs the `green` guard for its library
callers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import partitions
from .errors import CostGuard

if TYPE_CHECKING:
    from .partitions import Partition


# Budgets for the tables that `pi`, `mhl` and `trace` build, checked
# before any table work.  MAX_LABELS bounds the labels of the table
# itself, those with at most `rank` rows per component.  Cold on a
# 2-vCPU box, n = 8 at full rank (185 labels) took 3.4 s for `pi` and
# 5.1 s for `mhl`, n = 9 (300 labels) 10.9 s and 154 MB for `pi` and
# 18.7 s for `mhl`.  At n = 10 (481 labels), with the budget raised,
# `pi` took 37.5 s and 379 MB and `mhl` 61.6 s; in one process the
# table alone took 27 s and 171 MB, and the inversion that `mhl` adds
# another 40 s.
MAX_LABELS = 300

# MAX_SIZE_LABELS bounds the size n, whatever the rank; a column lists
# only the targets its step reaches, so it models no column any more.
# Cold, with it raised: `pi --n 12 --N 1` took 0.24 s, `--n 16 --N 2`
# 6.2 s, and a left `mirabolic --src 4,3,2,1|3,2,1 --r 10` (size 26)
# 2.5 s.  It still holds back the right column, which reads a mirrored
# left table far above its size: `--src 6,5|5,4 --r 8` (size 28) took
# 16.9 s and the size-26 source above ran past 150 s.  1770 is n = 13.
MAX_SIZE_LABELS = 1770


def check_cost(n: int, rank: int | None = None) -> None:
    """Refuse a size whose tables would take too long to build, judged
    by label counts before any table work: the labels of the table (at
    most `rank` rows per component; every label of size n without
    `rank`) and every label of size n, each count stopped past its budget."""
    count = partitions.bipartition_count(n, rank, MAX_LABELS)
    if count > MAX_LABELS:
        at = f"n={n}" if rank is None or rank >= n else f"n={n}, N={rank}"
        raise CostGuard(
            f"tables at {at} have at least {count} labels, above the budget "
            f"of {MAX_LABELS}"
        )
    check_size_cost(n)


def check_size_cost(n: int) -> None:
    """Refuse a size with more than MAX_SIZE_LABELS labels in all, the
    ceiling of every `pi`, `mhl`, `trace` and `mirabolic` request."""
    total = partitions.bipartition_count(n, cap=MAX_SIZE_LABELS)
    if total > MAX_SIZE_LABELS:
        raise CostGuard(
            f"size n={n} has at least {total} labels, above the budget of "
            f"{MAX_SIZE_LABELS} at any rank"
        )


# Budget for `iwahori mult --N N --window W`, in the candidate labels
# that universe(N, 1, W) tries: N! 3^N 4^W.  Cold on a 2-vCPU box the
# slowest accepted input is N = 4 at window 2 (31,104 candidates, 6.7 s,
# 176 MB); N = 3 at window 4 (41,472) took 1.1 s and N = 2 at window 6
# (73,728) 0.55 s.  Refused, timed with the budget raised: N = 4 at
# window 3 (124,416) took 12.4 s and 295 MB, N = 3 at window 5
# (165,888) 2.5 s, N = 2 at window 7 (294,912) 2.0 s; N = 5 at window 1
# (116,640) ran past 120 s and 970 MB on an earlier, slower kernel.
MAX_CANDIDATES = 100_000


def check_universe_cost(N: int, window: int) -> None:
    """Refuse the products over universe(N, 1, window) when it would try
    more than MAX_CANDIDATES candidates, counted without listing any."""
    count, k = 1, 0
    while count <= MAX_CANDIDATES and k < N + window:
        k += 1
        count *= 3 * k if k <= N else 4
    if count > MAX_CANDIDATES:
        raise CostGuard(
            f"iwahori mult --N {N} --window {window} tries N! 3^N 4^window"
            f" > {MAX_CANDIDATES} candidate labels"
        )


# Budget for the class ring that `green` lists and checks, in labels:
# `green_freeness_check` takes one product of plain classes per label
# and eliminates over the square matrix of them.  Cold on a 2-vCPU
# box: `--n 8 --q 2` (1,606 labels) in 13 s, `--n 4 --q 5` (2,776) in
# 7 s, `--n 2 --q 31` and `--n 1 --q 1499` in 6 s are accepted;
# `--n 9 --q 2` (3,650 labels) in 60 s and `--n 4 --q 7` (11,124) in
# 111 s are refused.  The labels grow with n and q, and the smallest
# refused input at each q ran past a minute (or, at n = 1, hit the
# recursion limit) before the elimination was fraction-free, so nothing
# that finished within a minute is refused.
MAX_GREEN_LABELS = 3000


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
            [partitions.bipartition_count(k) for k in range(top + 1)],
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
    """Refuse a class ring whose freeness check would run too long,
    judged by its label count before any label is listed.  Labels on
    t + 1 alone already number `bipartition_count(n)`, which bounds the
    sizes whose full count is worth taking."""
    if all(partitions.bipartition_count(k) <= MAX_GREEN_LABELS for k in range(n + 1)):
        count = green_label_count(n, q)
        if count <= MAX_GREEN_LABELS:
            return
        many = f"{count} labels"
    else:
        many = f"more than {MAX_GREEN_LABELS} labels"
    raise CostGuard(
        f"class ring at n={n}, q={q} has {many}; the budget is "
        f"{MAX_GREEN_LABELS} labels"
    )


# Budget for one product `hall_mul(u_x, u_y)`, in `hall_units`.  Cold
# in-process on a 2-vCPU box a unit took 6 to 63 us over the products
# that ran a second or more, slowest for a long first row at high rank.
# Accepted: (14) * (1) at rank 14 (330,960 units) in 15.4 s, (22) * (1)
# at rank 4 (449,306) in 11.1 s.  Refused: (13,1,1) * (1) at rank 16
# (504,712) in 28.3 s, (100) * (100) at rank 2 (535,100) in 20.8 s,
# (15,1) * () at rank 16 (797,190) in 46.0 s.  At 63 us a unit the
# budget is 32 s.
MAX_HALL_UNITS = 500_000


def hall_units(x: Partition, y: Partition, rank: int) -> int:
    """The work of `hall_mul(u_elt(x, rank), u_elt(y, rank))` from cold
    caches, counted without building any table (or some count past the
    budget, once it must pass it).  There is one generator monomial per
    shape dominated by x, each at most x_1 steps; a step runs over at
    most the shapes of n = |x| + |y| and builds tables that cost about
    their longest row, at most n: x_1 (dominated * shapes + n) units."""
    x, y = partitions.trim(x), partitions.trim(y)
    if not x:
        return 0
    n, top = sum(x) + sum(y), x[0]
    if top * (n + 1) > MAX_HALL_UNITS:
        return top * (n + 1)
    shapes = partitions.partition_counts(n, rank, MAX_HALL_UNITS // top)[n]
    if top * (shapes + n) > MAX_HALL_UNITS:
        return top * (shapes + n)
    return top * (partitions.dominated_count(x, rank) * shapes + n)


def check_hall_cost(x: Partition, y: Partition, rank: int) -> None:
    """Refuse a product u_x * u_y at `rank` whose work passes
    MAX_HALL_UNITS, before any table work."""
    if hall_units(x, y, rank) > MAX_HALL_UNITS:
        raise CostGuard(
            f"product {partitions.trim(x)} * {partitions.trim(y)} at rank {rank} "
            f"is past the budget of {MAX_HALL_UNITS} units of work"
        )
