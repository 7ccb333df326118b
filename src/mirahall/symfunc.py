"""Symmetric polynomials in finitely many variables, exactly.

Two independent routes are kept deliberately separate: Schur
polynomials come from the dual Jacobi-Trudi determinant in elementary
generators, while the one-parameter deformed basis comes from the
antisymmetrizer sum (divided by its multiplicity weight).  The Kostka
transition table `_kostka_table` inverts the second route and is tested
against the first.

The served deformed Kostka polynomials (`kostka_foulkes`) come from the
charge formula instead, a sum over semistandard tableaux.  The
antisymmetrizer sum takes 2^(n(n-1)/2) masks per shape, so it and
everything built on it (`hl_schur_coefficients`, `_kostka_table`,
`hall_littlewood_in_vars`, `hall.psi`) are the oracle: only `verify`
and the tests reach them.

Coefficients live in Z[v, v^-1] with the deformation parameter stored
as t = v^-2; the table-level functions hand back honest polynomials
in t.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .laurent import LaurentPoly, QPoly
from .partitions import (
    Partition,
    conjugate,
    pad,
    partitions_of,
    trim,
)


class VarPoly:
    """Polynomial in x_1..x_n with LaurentPoly coefficients."""

    __slots__ = ("n_vars", "_c")

    def __init__(self, n_vars: int, coeffs=None):
        self.n_vars = n_vars
        c: dict[tuple[int, ...], LaurentPoly] = {}
        if coeffs:
            for key, val in coeffs.items():
                if isinstance(val, int):
                    val = LaurentPoly.from_int(val)
                if len(key) != n_vars:
                    raise ValueError(f"key {key} has wrong arity")
                if not val.is_zero():
                    prev = c.get(key)
                    c[key] = val if prev is None else prev + val
        self._c = {k: a for k, a in c.items() if not a.is_zero()}

    @classmethod
    def zero(cls, n_vars: int) -> "VarPoly":
        return cls(n_vars)

    @classmethod
    def one(cls, n_vars: int) -> "VarPoly":
        return cls(n_vars, {(0,) * n_vars: 1})

    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, key: tuple[int, ...]) -> LaurentPoly:
        return self._c.get(tuple(key), LaurentPoly.zero())

    def items(self):
        return sorted(self._c.items(), reverse=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VarPoly):
            return NotImplemented
        return self.n_vars == other.n_vars and self._c == other._c

    def __hash__(self):
        return hash((self.n_vars, frozenset(self._c.items())))

    def __add__(self, other: "VarPoly") -> "VarPoly":
        self._check(other)
        out = dict(self._c)
        for k, a in other._c.items():
            out[k] = out.get(k, LaurentPoly.zero()) + a
        return VarPoly(self.n_vars, out)

    def __sub__(self, other: "VarPoly") -> "VarPoly":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            if isinstance(other, int):
                other = LaurentPoly.from_int(other)
            return VarPoly(
                self.n_vars, {k: a * other for k, a in self._c.items()}
            )
        self._check(other)
        out: dict[tuple[int, ...], LaurentPoly] = {}
        for k1, a1 in self._c.items():
            for k2, a2 in other._c.items():
                key = tuple(x + y for x, y in zip(k1, k2))
                prod = a1 * a2
                prev = out.get(key)
                out[key] = prod if prev is None else prev + prod
        return VarPoly(self.n_vars, out)

    __rmul__ = __mul__

    def restrict(self, m: int) -> "VarPoly":
        """Set x_{m+1} = ... = 0 and forget those slots."""
        out = {}
        for k, a in self._c.items():
            if any(k[m:]):
                continue
            out[k[:m]] = a
        return VarPoly(m, out)

    def _check(self, other: "VarPoly") -> None:
        if self.n_vars != other.n_vars:
            raise ValueError("variable counts differ")

    def __repr__(self):
        return f"VarPoly({self.n_vars} vars, {len(self._c)} terms)"


@lru_cache(maxsize=None)
def elementary_in_vars(r: int, n_vars: int) -> VarPoly:
    """e_r(x_1..x_n)."""
    if r < 0 or r > n_vars:
        return VarPoly.zero(n_vars)
    if r == 0:
        return VarPoly.one(n_vars)
    from itertools import combinations

    out = {}
    for sub in combinations(range(n_vars), r):
        key = tuple(1 if i in sub else 0 for i in range(n_vars))
        out[key] = 1
    return VarPoly(n_vars, out)


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


def _tableaux(lam: Partition, mu: Partition):
    """Row lists of the semistandard tableaux of shape lam and weight mu,
    letter k + 1 placed as a horizontal strip of mu[k] boxes."""

    def strips(shape: list[int], k: int, rows: list[list[int]]):
        if k == len(mu):
            if shape == list(lam):
                yield rows
            return
        new: list[int] = []

        def place(i: int, left: int):
            if i == len(lam):
                if left == 0:
                    yield list(new)
                return
            top = lam[i] if i == 0 else min(lam[i], shape[i - 1])
            for grow in range(min(top - shape[i], left), -1, -1):
                new.append(shape[i] + grow)
                yield from place(i + 1, left - grow)
                new.pop()

        for nxt in place(0, mu[k]):
            filled = [
                row + [k + 1] * (nxt[i] - shape[i]) for i, row in enumerate(rows)
            ]
            yield from strips(nxt, k + 1, filled)

    yield from strips([0] * len(lam), 0, [[] for _ in lam])


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
    variables.  The antisymmetriser route (`_kostka_table`) is the
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


def schur_decompose(poly: VarPoly) -> Mapping[Partition, LaurentPoly]:
    """Write a symmetric polynomial on the Schur basis by peeling
    leading monomials.  Raises if the input is not symmetric enough to
    resolve."""
    out: dict[Partition, LaurentPoly] = {}
    rest = poly
    guard = 0
    while not rest.is_zero():
        guard += 1
        if guard > 10000:
            raise AssertionError("schur peel did not terminate")
        key, coeff = rest.items()[0]
        shape = trim(key)
        rest = rest - coeff * schur_in_vars(shape, poly.n_vars)
        out[shape] = out.get(shape, LaurentPoly.zero()) + coeff
    return {k: a for k, a in out.items() if not a.is_zero()}
