"""Cost models of the `green` and `hall` requests, and the guards that
refuse a request past its budget before any table work.

Both models count without building anything: `green_label_count` the
class-ring labels, `hall_work` the classes that the closed tables of a
Hall product run through.  They need only `partitions`, so a refused
request runs no table module.  `mirahall.cli` imports this module only
for those two requests, and `traces.green_freeness_check` runs the same
guard for its library callers.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CostGuard
from .partitions import (
    Partition,
    bipartition_count,
    conjugate,
    dominance_leq,
    partitions_of,
    trim,
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
            [bipartition_count(k) for k in range(top + 1)], _irreducible_count(q, d)
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
    if all(bipartition_count(k) <= MAX_GREEN_LABELS for k in range(n + 1)):
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


# Budget for one product `hall_mul(u_x, u_y)`, in units of work: a
# generator step of rank r landing on size m builds the closed left
# table of every label of size m at r, and costs the classes those
# tables run through (`_table_classes`) plus a sixteenth per label.
# Cold on a 2-vCPU box a unit took 0.34 to 0.59 ms over 23 products:
# (10) * (1^4) 67,415 units in 24 s and (16) * (1) 195,967 in 96 s are
# accepted; (10,3) * (3,1) 200,413 in 101 s, (5) * (13) 203,328 in
# 89 s and (6,1) * (9,1) 205,402 in 103 s are refused.  A refused
# product takes at least 68 s at the fastest rate seen.
MAX_HALL_WORK = 200_000
LABELS_PER_UNIT = 16


@lru_cache(maxsize=None)
def _table_classes(n: int, top: int) -> tuple[tuple[int, ...], ...]:
    """out[m][r], for m <= n and r <= top: the classes that
    `closed_left_table` runs through at rank r over all labels of size
    m, one per way of taking r rows of nu = lam + mu (rows of equal
    length alike), counted without listing any label.

    The labels with lam + mu = nu number the product over rows of
    nu_i - nu_(i+1) + 1, and the ways to take r rows are the t^r
    coefficient of the product over lengths k of 1 + ... + t^(d_k), d_k
    the rows of length k; both factor over the distinct parts of nu."""
    # grown[s][k]: summed over the partitions of s with largest part k
    grown: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
    grown[0][0] = [1] + [0] * top
    for k in range(n + 1):
        for s in range(n + 1 - k):
            poly = grown[s].get(k)
            if poly is None:
                continue
            for k2 in range(k + 1, n - s + 1):
                weight = k2 - k + 1
                runs = list(poly)
                for d in range(1, (n - s) // k2 + 1):
                    # runs = poly * (1 + t + ... + t^d)
                    for j in range(top, d - 1, -1):
                        runs[j] += poly[j - d]
                    cell = grown[s + k2 * d].setdefault(k2, [0] * (top + 1))
                    for j in range(top + 1):
                        cell[j] += weight * runs[j]
    return tuple(
        tuple(sum(col) for col in zip(*grown[m].values())) for m in range(n + 1)
    )


def _hall_steps(x: Partition, y: Partition, rank: int) -> set[tuple[int, int]]:
    """(size landed on, rank) of every generator step that
    `hall_mul(u_elt(x, rank), u_elt(y, rank))` takes: those of
    `_gen_decomposition` over the shapes it reaches from x (dominated by
    x, at most `rank` rows), from the empty shape, and of each of their
    monomials applied to y."""
    steps = set()
    for mu in partitions_of(sum(x)):
        if len(mu) > rank or not dominance_leq(mu, x):
            continue
        cols = conjugate(mu)
        for start in (0, sum(y)):
            size = start
            for r in reversed(cols):
                size += r
                steps.add((size, r))
    return steps


def hall_work(x: Partition, y: Partition, rank: int) -> int:
    """The work of `hall_mul(u_elt(x, rank), u_elt(y, rank))` from cold
    caches (see MAX_HALL_WORK), counted without building any table."""
    x, y = trim(x), trim(y)
    steps = _hall_steps(x, y, rank)
    if not steps:
        return 0
    classes = _table_classes(max(m for m, _ in steps), max(r for _, r in steps))
    return sum(
        classes[m][r] + bipartition_count(m) // LABELS_PER_UNIT for m, r in steps
    )


def check_hall_cost(x: Partition, y: Partition, rank: int) -> None:
    """Refuse a product u_x * u_y at `rank` whose work passes
    MAX_HALL_WORK, before any table work.  The last step of x's own
    monomial lands on size n = |x| + |y| and lists its labels, so a size
    with more labels than that part of the budget allows is refused
    without listing any shape."""
    x, y = trim(x), trim(y)
    n = sum(x) + sum(y)
    if x and bipartition_count(n) // LABELS_PER_UNIT > MAX_HALL_WORK:
        raise CostGuard(
            f"product {x} * {y} at size {n} is past the budget of "
            f"{MAX_HALL_WORK} units of work in its last step alone"
        )
    work = hall_work(x, y, rank)
    if work > MAX_HALL_WORK:
        raise CostGuard(
            f"product {x} * {y} at rank {rank} takes {work} units of work, "
            f"above the budget of {MAX_HALL_WORK}"
        )
