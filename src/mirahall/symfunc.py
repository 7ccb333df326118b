"""Deformed Kostka polynomials by the charge formula.

`kostka_foulkes` serves K_{lam mu}(t), the sum of t^charge(T) over the
semistandard tableaux T of shape lam and weight mu (`_tableaux`,
`_charge`).  It feeds `hall.c_expand`, and so every cyclic vector of
`pi` and `mhl`.

The independent route, the deformed basis in finitely many variables
from the antisymmetrizer sum and the Kostka table that inverts it
(`oracle.hl_schur_coefficients`, `oracle._kostka_table`), takes
2^(n(n-1)/2) masks per shape; it lives in `oracle`, which only `verify`
and the tests load.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import QPoly
from .partitions import Partition, trim


def _tableaux(lam: Partition, mu: Partition):
    """Row lists of the semistandard tableaux of shape lam and weight mu,
    letter k + 1 placed as a horizontal strip of mu[k] boxes."""
    return _strips(lam, mu, [0] * len(lam), 0, [[] for _ in lam])


# module level: a closure that calls itself is a cycle only the collector frees
def _strips(lam: Partition, mu: Partition, shape: list[int], k: int, rows: list[list[int]]):
    if k == len(mu):
        if shape == list(lam):
            yield rows
        return
    for nxt in _place(lam, shape, 0, mu[k], []):
        filled = [row + [k + 1] * (nxt[i] - shape[i]) for i, row in enumerate(rows)]
        yield from _strips(lam, mu, nxt, k + 1, filled)


def _place(lam: Partition, shape: list[int], i: int, left: int, new: list[int]):
    """Each way to grow rows i on of `shape` by a horizontal strip of `left` boxes."""
    if i == len(lam):
        if left == 0:
            yield list(new)
        return
    top = lam[i] if i == 0 else min(lam[i], shape[i - 1])
    for grow in range(min(top - shape[i], left), -1, -1):
        new.append(shape[i] + grow)
        yield from _place(lam, shape, i + 1, left - grow, new)
        new.pop()


def _charge(word: list[int]) -> int:
    """Lascoux-Schutzenberger charge of a word whose weight is a partition.

    Standard subwords are taken out one at a time: the rightmost 1, then
    reading leftwards and round the end the next 2, and so on while the
    letters last.  Within a subword the index starts at 0 on the 1 and
    goes up by one each time the next letter lies to the right of the
    last one (the search went round the end); the charge is the sum of
    the indices over every subword."""
    word = list(word)
    total = 0
    left = len(word)
    while left:
        pos, index, letter = len(word), 0, 1
        while True:
            hit = next((p for p in range(pos - 1, -1, -1) if word[p] == letter), None)
            if hit is None:
                hit = next(
                    (p for p in range(len(word) - 1, pos - 1, -1) if word[p] == letter),
                    None,
                )
                if hit is None:
                    break
                index += 1
            total += index
            word[hit] = 0
            left -= 1
            pos, letter = hit, letter + 1
    return total


@lru_cache(maxsize=None)
def kostka_foulkes(lam: Partition, mu: Partition) -> QPoly:
    """Deformed Kostka polynomial in t, by the Lascoux-Schutzenberger
    charge formula (Macdonald, Symmetric Functions and Hall Polynomials,
    ch. III §6): K_{lam mu}(t) is the sum of t^charge(T) over the
    semistandard tableaux T of shape lam and weight mu, each read row by
    row from the bottom row up.  It does not depend on a number of
    variables.  The antisymmetriser route (`oracle._kostka_table`) is the
    oracle that `verify` and the tests compare it with.

    >>> kostka_foulkes((2,), (1, 1)).pretty('t')
    't'
    """
    lam, mu = trim(lam), trim(mu)
    if sum(lam) != sum(mu):
        return QPoly.zero()
    powers: dict[int, int] = {}
    for rows in _tableaux(lam, mu):
        c = _charge([x for row in reversed(rows) for x in row])
        powers[c] = powers.get(c, 0) + 1
    return QPoly(powers)


