"""Partitions, bipartitions, and the pair correspondence.

Partitions are plain tuples of weakly decreasing positive ints, () for
empty.  A bipartition is a pair of partitions.  Everything downstream
(counting, tables, traces) keys off the statistics and orders defined
here, so this module has no dependencies beyond the error types.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from typing import Iterator

from .errors import NotInImage, RankTooSmall

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]


def trim(seq) -> Partition:
    """Drop trailing zeros and validate.

    >>> trim((3, 1, 0, 0))
    (3, 1)
    """
    out = tuple(map(int, seq))
    end = len(out)
    while end and out[end - 1] == 0:
        end -= 1
    out = out[:end]
    # positive and weakly decreasing
    if out and (out[-1] < 0 or out != tuple(sorted(out, reverse=True))):
        raise ValueError(f"not weakly decreasing positive: {seq}")
    return out


def trim_pair(bp) -> Bipartition:
    """A pair label with both components trimmed (`trim`)."""
    return (trim(bp[0]), trim(bp[1]))


def size(lam: Partition) -> int:
    return sum(lam)


def label_size(bp: Bipartition) -> int:
    """Boxes in both components of a pair label."""
    return sum(bp[0]) + sum(bp[1])


@lru_cache(maxsize=None)
def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram.

    >>> conjugate((3, 1))
    (2, 1, 1)
    """
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x >= k) for k in range(1, lam[0] + 1))


def n_stat(lam: Partition) -> int:
    """sum (i-1) * lam_i, the staircase weight."""
    return sum(i * x for i, x in enumerate(lam))


def pad(lam: Partition, length: int) -> tuple[int, ...]:
    if len(lam) > length:
        raise ValueError(f"{lam} has more than {length} parts")
    return tuple(lam) + (0,) * (length - len(lam))


def add_parts(lam: Partition, mu: Partition) -> Partition:
    """Componentwise sum, e.g. the type of a direct sum refinement."""
    k = max(len(lam), len(mu))
    return trim(tuple(a + b for a, b in zip(pad(lam, k), pad(mu, k))))


def dominance_leq(a: Partition, b: Partition) -> bool:
    """Dominance: every prefix sum of a is <= the one of b (same size)."""
    if sum(a) != sum(b):
        return False
    ta = tb = 0
    for i in range(max(len(a), len(b))):
        ta += a[i] if i < len(a) else 0
        tb += b[i] if i < len(b) else 0
        if ta > tb:
            return False
    return True


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest part first, lex descending.

    >>> list(partitions_of(3))
    [(3,), (2, 1), (1, 1, 1)]
    """
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


# --- statistics on bipartitions -----------------------------------------


def orbit_dim(nu: Partition, rank: int) -> int:
    """|nu|*(rank-1) - 2*n(nu).

    For |nu| = rank this is the dimension of the conjugacy class of a
    nilpotent matrix with Jordan type nu.
    """
    if len(nu) > rank:
        raise RankTooSmall(f"{nu} has more than {rank} parts")
    return sum(nu) * (rank - 1) - 2 * n_stat(nu)


def pair_orbit_dim(bp: Bipartition, rank: int) -> int:
    """Dimension statistic of the (operator, vector) orbit: orbit_dim + |lam|."""
    lam, mu = bp
    return orbit_dim(add_parts(lam, mu), rank) + sum(lam)


@lru_cache(maxsize=None)
def pair_codim(bp: Bipartition) -> int:
    """2 n(lam) + 2 n(mu) + |mu|; satisfies pair_orbit_dim + pair_codim = n*rank."""
    lam, mu = bp
    return 2 * n_stat(lam) + 2 * n_stat(mu) + sum(mu)


# --- orders and enumeration ----------------------------------------------


def interleaved_key(bp: Bipartition, length: int) -> tuple[int, ...]:
    """(lam_1, mu_1, lam_2, mu_2, ...) padded with zeros to 2*length."""
    lam, mu = bp
    la, mu_ = pad(lam, length), pad(mu, length)
    out = []
    for i in range(length):
        out.append(la[i])
        out.append(mu_[i])
    return tuple(out)


@lru_cache(maxsize=None)
def bipartitions_of(n: int) -> tuple[Bipartition, ...]:
    """All bipartitions of n in descending interleaved-lex order.

    The order is a linear extension of the alternating-sum order
    (largest element first), so triangular systems indexed by it can be
    solved by forward substitution.

    >>> bipartitions_of(2)
    (((2,), ()), ((1,), (1,)), ((1, 1), ()), ((), (2,)), ((), (1, 1)))
    """
    out = [
        (lam, mu)
        for k in range(n, -1, -1)
        for lam in partitions_of(k)
        for mu in partitions_of(n - k)
    ]
    out.sort(key=lambda bp: interleaved_key(bp, n), reverse=True)
    return tuple(out)


def partition_counts(n: int, rows: int | None = None, cap: int | None = None) -> list[int]:
    """out[k]: the partitions of k <= n with at most `rows` rows, by
    conjugation those with parts <= rows, without listing them.  out[n]
    only grows as parts are let in, so with `cap` the count stops once
    out[n] passes it.

    >>> partition_counts(4), partition_counts(4, 2)
    ([1, 1, 2, 3, 5], [1, 1, 2, 2, 3])
    """
    ways = [1] + [0] * n
    for part in range(1, (n if rows is None else min(n, rows)) + 1):
        for k in range(part, n + 1):
            ways[k] += ways[k - part]
        if cap is not None and ways[n] > cap:
            break
    return ways


def bipartition_count(n: int, rows: int | None = None, cap: int | None = None) -> int:
    """len(bipartitions_of(n)), without listing them; with `rows`, only
    the labels whose two partitions have at most `rows` rows each.  With
    `cap` the count may stop once it passes `cap`, so a result above
    `cap` is only a lower bound.

    >>> bipartition_count(2), bipartition_count(2, 1)
    (5, 3)
    """
    if n < 0:
        return 0
    if cap is not None and n >= cap and rows != 0:
        return n + 1  # the labels (k)|(n - k) alone, which fit any rows
    ways = partition_counts(n, rows, cap)
    return sum(ways[k] * ways[n - k] for k in range(n + 1))


def dominated_count(x: Partition, rows: int) -> int:
    """The partitions mu of |x| with mu <= x in dominance and at most
    `rows` rows, without listing them.  Row i of mu brings its first i
    rows to at most x_1 + ... + x_i boxes, and no row passes x_1;
    ways[s][p] counts the tops of mu with s boxes and last row p."""
    m, top = sum(x), (x[0] if x else 0)
    caps = list(accumulate(x)) + [m] * min(rows, m)
    ways, total = {0: [0] * top + [1]}, int(not m)
    for i in range(min(rows, m)):
        # above[s][q]: the tops with s boxes whose last row is >= q
        above = {s: list(accumulate(row[::-1]))[::-1] for s, row in ways.items()}
        if i == min(rows, m) - 1:  # the last row need only finish mu
            return total + (m <= caps[i]) * sum(
                above[m - q][q] for q in range(1, top + 1) if m - q in above
            )
        ways = {}
        for s, row in above.items():
            for q in range(1, min(top, caps[i] - s) + 1):
                ways.setdefault(s + q, [0] * (top + 1))[q] = row[q]
        total += sum(ways.pop(m, ()))
    return total


def vertical_strips(nu: Partition, r: int, rows: int | None = None) -> tuple[Partition, ...]:
    """Every partition nu + (vertical r-strip) with at most `rows` rows,
    largest first.  Within a run of equal parts the new boxes go to the
    top rows, so a strip is the number of boxes each run takes, the run
    of zeros below nu included.

    >>> vertical_strips((2, 1), 2)
    ((3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1))
    """
    runs = [(k, nu.count(k)) for k in sorted(set(nu), reverse=True)]
    runs.append((0, r if rows is None else rows - len(nu)))
    out = [
        sum(((k + 1,) * j + (k,) * (m - j if k else 0)
             for (k, m), j in zip(runs, take)), ())
        for take in product(*(range(min(m, r) + 1) for _, m in runs))
        if sum(take) == r
    ]
    return tuple(sorted(out, reverse=True))


def splits(nu: Partition) -> tuple[Bipartition, ...]:
    """Every pair label (lam, mu) with lam + mu = nu (`add_parts`): row
    by row lam_i runs from max(nu_i - mu_(i-1), 0) to min(nu_i, lam_(i-1)).

    >>> splits((2,))
    (((), (2,)), ((1,), (1,)), ((2,), ()))
    """
    labels: list[Bipartition] = [((), ())]
    for part in nu:
        labels = [
            (lam + (a,), mu + (part - a,))
            for lam, mu in labels
            for a in range(
                max(part - (mu[-1] if mu else part), 0),
                min(part, lam[-1] if lam else part) + 1,
            )
        ]
    return tuple((tuple(filter(None, lam)), tuple(filter(None, mu))) for lam, mu in labels)


def ah_leq(a: Bipartition, b: Bipartition) -> bool:
    """Alternating-sum order on bipartitions of equal size.

    a <= b iff every truncated alternating sum
    (lam_1, lam_1+mu_1, lam_1+mu_1+lam_2, ...) of a is <= that of b.
    """
    if sum(a[0]) + sum(a[1]) != sum(b[0]) + sum(b[1]):
        return False
    length = max(len(a[0]), len(a[1]), len(b[0]), len(b[1])) + 1
    ka = interleaved_key(a, length)
    kb = interleaved_key(b, length)
    ta = tb = 0
    for x, y in zip(ka, kb):
        ta += x
        tb += y
        if ta > tb:
            return False
    return True


# --- the pair correspondence ---------------------------------------------


@lru_cache(maxsize=None)
def upsilon(bp: Bipartition) -> tuple[Partition, Partition]:
    """Send (lam, mu) to (nu, theta): the types of the full space and of
    the quotient by the cyclic subspace generated by the marked vector.

    Model: nu = lam + mu componentwise; on a direct sum of cyclic
    u-modules of sizes nu_i with generators w_i, the vector is
    v = sum_i u^{mu_i} w_i, and theta is the Jordan type of u on the
    quotient by k[u]v.  The quotient type comes out of a height profile:
    u^a v first enters u^m D at m(a) = min over rows i with lam_i > a of
    a + mu_i, and column k of theta loses a box iff m hits k-1.

    >>> upsilon(((1,), (1,)))
    ((2,), (1,))
    >>> upsilon(((1, 1), (1,)))
    ((2, 1), (2,))
    """
    lam, mu = bp
    nu = add_parts(lam, mu)
    lam1 = lam[0] if lam else 0
    marks = set()
    for a in range(lam1):
        heights = [
            a + (mu[i] if i < len(mu) else 0)
            for i in range(len(lam))
            if lam[i] > a
        ]
        marks.add(min(heights))
    nut = conjugate(nu)
    theta_t = tuple(
        nut[k] - (1 if k in marks else 0) for k in range(len(nut))
    )
    assert all(
        theta_t[i] >= theta_t[i + 1] for i in range(len(theta_t) - 1)
    ), f"profile not monotone for {bp}"
    return nu, conjugate(trim(theta_t))


def xi(nu: Partition, theta: Partition) -> Bipartition:
    """Inverse of upsilon.  Raises NotInImage.

    Read directly off the mark set, the columns k with
    nu'_k - theta'_k = 1; a pair with any other column difference than
    0 or 1 is no image.  The a-th mark is m(a) of `upsilon`, so
    g(a) = m(a) - a is the least mu_i over the rows with lam_i > a.
    Those rows form a prefix and mu decreases, so g(a) is mu at the
    last row of the prefix, and g is weakly increasing.  That fixes the
    first row (lam_1 is the number of marks) and then each next row
    from the one above: lam_{i+1} is the number of a with g(a) < mu_i,
    unless mu_{i+1} = mu_i, which takes lam_{i+1} = nu_{i+1} - mu_i;
    the larger of the two is the one that holds.  Every step is forced,
    so a pair has at most one preimage.  The candidate goes back through upsilon before it is
    returned, which rejects every pair outside the image.

    >>> xi((2,), (1,))
    ((1,), (1,))
    """
    nu = trim(nu)
    theta = trim(theta)
    missing = NotInImage(f"no bipartition maps to ({nu}, {theta})")
    nut, tht = conjugate(nu), conjugate(theta)
    if len(tht) > len(nut):
        raise missing
    diff = [nut[k] - (tht[k] if k < len(tht) else 0) for k in range(len(nut))]
    if any(d not in (0, 1) for d in diff):
        raise missing
    g = [k - a for a, k in enumerate(k for k, d in enumerate(diff) if d)]
    lam, mu = [], []
    for i, part in enumerate(nu):
        li = len(g) if i == 0 else max(sum(1 for x in g if x < mu[-1]), part - mu[-1])
        if part < li or (lam and (li > lam[-1] or part - li > mu[-1])):
            raise missing
        lam.append(li)
        mu.append(part - li)
    bp = (trim(lam), trim(mu))
    if upsilon(bp) != (nu, theta):
        raise missing
    return bp


# --- signatures (weakly decreasing integer vectors) -----------------------


def star(lam: Partition, rank: int) -> tuple[int, ...]:
    """Negate-and-reverse on length-`rank` signatures."""
    p = pad(lam, rank)
    return tuple(-x for x in reversed(p))


def shifted(sig: tuple[int, ...], c: int) -> tuple[int, ...]:
    """Add c to every entry."""
    return tuple(x + c for x in sig)
