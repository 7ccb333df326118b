"""Schur functions on the elementary basis, by the dual Jacobi-Trudi
determinant.

`elementary_expansion` writes s_lam as signed monomials in e_1 .. e_rows
(Macdonald, Symmetric Functions and Hall Polynomials, ch. I (3.5)).  It
feeds `hall.c_expand`, which reads each e_r as a generator of the Hall
algebra, and so every cyclic vector of `pi` and `mhl`.

The independent route, the deformed basis in finitely many variables
from the antisymmetrizer sum and the Kostka table that inverts it
(`oracle.hl_schur_coefficients`, `oracle._kostka_table`), takes
2^(n(n-1)/2) masks per shape; it lives in `oracle`, which only `verify`
and the tests load.
"""

from __future__ import annotations

from .partitions import Partition, conjugate, trim


def elementary_expansion(lam: Partition, rows: int) -> dict[tuple[int, ...], int]:
    """s_lam = det(e_{lam'_i - i + j}) expanded into monomials in
    e_1 .. e_rows, each keyed by its descending tuple of degrees, with
    e_0 = 1 and e_r = 0 for r < 0 or r > rows.  The determinant is
    expanded row by row over the set of columns used so far: taking
    column j costs the sign (-1) to the number of used columns right of j.

    >>> sorted(elementary_expansion((2,), 2).items())  # e_1^2 - e_2
    [((1, 1), 1), ((2,), -1)]
    >>> elementary_expansion((1, 1), 2)
    {(2,): 1}
    >>> sorted(elementary_expansion((2, 1), 3).items())  # e_2 e_1 - e_3
    [((2, 1), 1), ((3,), -1)]
    >>> sorted(elementary_expansion((3,), 2).items())  # e_1^3 - 2 e_2 e_1
    [((1, 1, 1), 1), ((2, 1), -2)]
    """
    cols = conjugate(trim(lam))
    # (columns used as a bit mask, degrees so far) -> coefficient
    terms: dict[tuple[int, tuple[int, ...]], int] = {(0, ()): 1}
    for i, c in enumerate(cols):
        grown: dict[tuple[int, tuple[int, ...]], int] = {}
        for (used, degs), coeff in terms.items():
            for j in range(len(cols)):
                r = c - i + j
                if used >> j & 1 or r < 0 or r > rows:
                    continue
                sign = -1 if (used >> j).bit_count() % 2 else 1
                key = (used | 1 << j, tuple(sorted(degs + (r,), reverse=True)) if r else degs)
                grown[key] = grown.get(key, 0) + sign * coeff
        terms = grown
    # every column is used by now, so the degrees alone tell the terms apart
    return {degs: coeff for (_, degs), coeff in terms.items() if coeff}
