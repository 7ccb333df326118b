"""Cost models of the table requests, and the guards that refuse a
request past its budget before any table work.

`check_cost` and `check_size_cost` bound the labels of the tables that
`pi`, `mhl` (by a budget of its own), `trace` and `mirabolic` build,
`check_universe_cost` the candidate labels of `iwahori mult` and
`check_hall_cost` the generator steps of a `hall` product; the class
ring of `green` is guarded beside its labels (`traces.check_green_cost`,
which bounds its blocks, the matrices of `pi`, by `check_cost`).
Each counts without building anything, from `partitions` at most, which
this module reaches as a module so that a guard that needs no label
count (`iwahori`) leaves it unrun; a refused request runs no table
module.  A request runs this module only when its payload builder (in
its `serve_<subcommand>` module) reaches its guard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import partitions
from .errors import CostGuard

if TYPE_CHECKING:
    from .partitions import Partition


# Budgets for the tables that `pi`, `trace` (MAX_LABELS) and `mhl`
# (MAX_MHL_LABELS) build, checked before any table work; each bounds
# the labels of the table itself, those with at most `rank` rows per
# component.  Cold on a 2-vCPU box, one run each: `pi --n 10` at full
# rank (481 labels) took 7.8 s and 221 MB, `--N 8` (472) 7.5 s,
# `--N 4` (334) 3.6 s; `pi --n 11 --N 4` (480) 7.0 s, `--N 3` (302)
# 2.5 s; `pi --n 12 --N 3` (407) 3.7 s; `trace --n 10` 8.5 s and
# 186 MB.  With the budgets raised, `pi --n 11` (752 labels) took
# 19.3 s and 547 MB.  `mhl` adds an inversion to the table: `mhl --n 9`
# (300 labels) took 7.8 s, and `mhl --n 10` 25.6 s.  Both budgets
# predate these figures; raising them is a re-timing of its own.
MAX_LABELS = 481
MAX_MHL_LABELS = 300

# MAX_SIZE_LABELS bounds the size n, whatever the rank; a column lists
# only the targets its step reaches, so it models no column any more.
# Cold, with it raised: `pi --n 12 --N 1` took 0.24 s, `--n 16 --N 2`
# 6.2 s, and a left `mirabolic --src 4,3,2,1|3,2,1 --r 10` (size 26)
# 2.5 s.  It still holds back the right column, which reads a mirrored
# left table far above its size: `--src 6,5|5,4 --r 8` (size 28) took
# 16.9 s and the size-26 source above ran past 150 s.  1770 is n = 13.
# A low-rank `pi` table lists only the labels that fit its rank
# (`partitions.bipartitions_of(n, rank)`): in process, one run each,
# `pi_table(25, 1)` and `(30, 1)` took 0.16 and 0.39 s at 15 MB, yet
# `pi_table(60, 1)` took 56 s, so some size bound has to stay.  Cold
# with it raised, the faster of two runs: `pi --n 13 --N 2` took 0.78 s
# and 32 MB, `--n 14 --N 2` 1.09 s and 40 MB.
MAX_SIZE_LABELS = 1770


def check_cost(n: int, rank: int | None = None, budget: int = MAX_LABELS) -> None:
    """Refuse a size whose tables would take too long to build, judged
    by label counts before any table work: the labels of the table (at
    most `rank` rows per component; every label of size n without
    `rank`) against `budget`, and every label of size n, each count
    stopped past its budget."""
    count = partitions.bipartition_count(n, rank, budget)
    if count > budget:
        at = f"n={n}" if rank is None or rank >= n else f"n={n}, N={rank}"
        raise CostGuard(
            f"tables at {at} have at least {count} labels, above the budget "
            f"of {budget}"
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
# slowest accepted input is N = 4 at window 2 (31,104 candidates, 6.3 s,
# 159 MB); N = 3 at window 4 (41,472) took 1.3 s and N = 2 at window 6
# (73,728) 0.59 s.  Refused, timed with the budget raised: N = 4 at
# window 3 (124,416) took 12.9 s and 267 MB, N = 3 at window 5
# (165,888) 2.5 s, N = 2 at window 7 (294,912) 2.3 s, and N = 5 at
# window 1 (116,640) 61.6 s and 1.2 GB.
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
    budget, once it must pass it).  There is one chain per shape
    dominated by x, each at most x_1 steps; a step runs over at most
    the shapes of n = |x| + |y| and builds tables that cost about their
    longest row, at most n: x_1 (dominated * shapes + n) units."""
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
