"""Integer Laurent polynomials in v, and integer polynomials in q = v**2.

These two dict-backed classes are the arithmetic substrate for every
table in the package.  Coefficients are Python ints, exponents plain
ints, and every operation is exact; division helpers raise instead of
rounding.  Recovering a polynomial from point counts
(`pairs.interpolate`) belongs to the counting oracles.

A polynomial holds one normal dict: int exponents, nonzero int
coefficients.  The public constructors validate what they are given:
they sum repeated exponents, drop zeros and raise NonIntegral on any
exponent or coefficient that is not an integer (`int()` would truncate
0.5 to 0 without a word).  Every arithmetic result (`+`, `-`, `*`,
`**`, `shift`, `bar`, `exact_div`, `to_laurent`, `q_power`, ...) is
already normal by construction and goes through the one trusted
constructor, `_wrap`, which takes the dict as is.  Both classes share
their arithmetic, formatting and JSON code through `_Poly`.

`Combination`, the one sparse combination type (`hall.HallElt`,
`bimodule.MirElt` and `TensorSym`, `oracle.VarPoly`), keeps labels with
LaurentPoly coefficients under the same two constructors.

>>> p = LaurentPoly({1: 1, -1: 1})
>>> (p * p).pretty()
'v^-2 + 2 + v^2'
>>> p.bar() == p
True
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

from .errors import NonIntegral

if TYPE_CHECKING:
    from fractions import Fraction


def _normal(coeffs: Mapping[int, int] | None) -> dict[int, int]:
    """Validated normal dict of `coeffs`: int exponents, repeated ones
    summed, zero coefficients dropped; NonIntegral on an exponent or
    coefficient that int() would change."""
    c: dict[int, int] = {}
    if coeffs:
        for e, a in coeffs.items():
            ie, ia = int(e), int(a)
            if ie != e or ia != a:
                raise NonIntegral(f"term {a!r} * x^{e!r} is not integral")
            c[ie] = c.get(ie, 0) + ia
    return {e: a for e, a in c.items() if a}


def _exact_quotient(num: dict[int, int], den: dict[int, int]) -> dict[int, int]:
    """Exact quotient of two normal dicts read as Laurent polynomials in
    one variable; NonIntegral if it does not divide."""
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return {}
    if len(den) == 1:
        [(e, a)] = den.items()
        out = {}
        for k, c in num.items():
            if c % a:
                raise NonIntegral(f"{c} not divisible by {a}")
            out[k - e] = c // a
        return out
    # long division after shifting both to honest polynomials
    sa, sb = min(num), min(den)
    num = {e - sa: a for e, a in num.items()}
    den = {e - sb: a for e, a in den.items()}
    dd = max(den)
    lead = den[dd]
    quot: dict[int, int] = {}
    while num:
        dn = max(num)
        if dn < dd:
            raise NonIntegral("division leaves a remainder")
        c = num[dn]
        if c % lead:
            raise NonIntegral(f"leading coefficient {c} not divisible by {lead}")
        qc, qe = c // lead, dn - dd
        quot[qe] = qc
        for e, a in den.items():
            k = e + qe
            r = num.get(k, 0) - qc * a
            if r:
                num[k] = r
            elif k in num:
                del num[k]
    return {e + sa - sb: a for e, a in quot.items()}


def _sum(c: dict[int, int], other: dict[int, int], sign: int = 1) -> dict[int, int]:
    """c + sign * other on normal dicts, as a new normal dict."""
    out = dict(c)
    for e, a in other.items():
        s = out.get(e, 0) + sign * a
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _product(c1: dict[int, int], c2: dict[int, int]) -> dict[int, int]:
    """Product of two normal dicts, as a normal dict."""
    if len(c2) == 1:
        [(e2, a2)] = c2.items()
        return {e1 + e2: a1 * a2 for e1, a1 in c1.items()}
    if len(c1) == 1:
        [(e1, a1)] = c1.items()
        return {e1 + e2: a1 * a2 for e2, a2 in c2.items()}
    out: dict[int, int] = {}
    for e1, a1 in c1.items():
        for e2, a2 in c2.items():
            k = e1 + e2
            out[k] = out.get(k, 0) + a1 * a2
    return {k: a for k, a in out.items() if a}


def _wrap(cls, c: dict[int, int]):
    """The trusted constructor: a `cls` holding the normal dict `c`
    (int exponents, nonzero int coefficients), neither checked nor
    copied."""
    p = object.__new__(cls)
    p._c = c
    return p


class _Poly:
    """Integer polynomial in one variable, exponent -> coefficient.
    Immutable once built; the arithmetic shared by both classes."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._c = _normal(coeffs)

    @classmethod
    def zero(cls):
        return _wrap(cls, {})

    @classmethod
    def one(cls):
        return _wrap(cls, {0: 1})

    @classmethod
    def from_int(cls, n: int):
        return cls({0: n})

    @classmethod
    def from_json(cls, d: Mapping[str, int]):
        # the constructor checks the coefficients; int() would truncate
        return cls({int(e): a for e, a in d.items()})

    def to_json(self) -> dict[str, int]:
        return {str(e): a for e, a in sorted(self._c.items())}

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def coeff(self, k: int) -> int:
        return self._c.get(k, 0)

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._c.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        if type(other) is not type(self):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        if isinstance(other, int):
            return _wrap(type(self), _sum(self._c, {0: other})) if other else self
        if type(other) is not type(self):
            return NotImplemented
        return _wrap(type(self), _sum(self._c, other._c))

    __radd__ = __add__

    def __neg__(self):
        return _wrap(type(self), {e: -a for e, a in self._c.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            return _wrap(type(self), _sum(self._c, {0: other}, -1)) if other else self
        if type(other) is not type(self):
            return NotImplemented
        return _wrap(type(self), _sum(self._c, other._c, -1))

    def __rsub__(self, other: int):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return _wrap(type(self), {})
            return _wrap(type(self), {e: a * other for e, a in self._c.items()})
        if type(other) is not type(self):
            return NotImplemented
        return _wrap(type(self), _product(self._c, other._c))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self._negative_power(n)
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def exact_div(self, other):
        """Exact quotient; NonIntegral if it does not divide."""
        return _wrap(type(self), _exact_quotient(self._c, other._c))

    def pretty(self, var: str | None = None) -> str:
        return self._format(var or self.VAR, "^{}", "*", " ", "+ ", "- ")

    def latex(self, var: str | None = None) -> str:
        return self._format(var or self.VAR, "^{{{}}}", "", "", "+", "-")

    def _format(self, var, power, times, sep, plus, minus) -> str:
        if not self._c:
            return "0"
        bits = []
        for e, a in sorted(self._c.items()):
            if e == 0:
                term = str(abs(a))
            else:
                p = var if e == 1 else var + power.format(e)
                term = p if abs(a) == 1 else f"{abs(a)}{times}{p}"
            if not bits:
                bits.append(term if a > 0 else f"-{term}")
            else:
                bits.append((plus if a > 0 else minus) + term)
        return sep.join(bits)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.pretty()})"


class LaurentPoly(_Poly):
    """Element of Z[v, v^-1].  Immutable once built."""

    __slots__ = ()
    VAR = "v"

    @classmethod
    def v_power(cls, k: int, coeff: int = 1) -> "LaurentPoly":
        """coeff * v**k."""
        return cls({k: coeff})

    def support(self) -> list[int]:
        return sorted(self._c)

    def _negative_power(self, n: int) -> "LaurentPoly":
        mono = self.as_monomial()
        if mono is None or mono[1] not in (1, -1):
            raise ValueError("negative power of a non-unit")
        e, a = mono
        return _wrap(LaurentPoly, {e * n: 1 if (a == 1 or n % 2 == 0) else -1})

    def bar(self) -> "LaurentPoly":
        """Involution v -> v**-1."""
        return _wrap(LaurentPoly, {-e: a for e, a in self._c.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v**k."""
        return _wrap(LaurentPoly, {e + k: a for e, a in self._c.items()})

    def as_monomial(self) -> tuple[int, int] | None:
        """(exponent, coefficient) if a single term, else None."""
        if len(self._c) != 1:
            return None
        [(e, a)] = self._c.items()
        return e, a

    def is_unit_monomial(self) -> bool:
        mono = self.as_monomial()
        return mono is not None and mono[1] in (1, -1)

    def evaluate(self, x: "Fraction | int") -> Fraction:
        """Value at v = x, exact rational arithmetic."""
        from fractions import Fraction

        x = Fraction(x)
        if x == 0 and self._c and min(self._c) < 0:
            raise ZeroDivisionError("negative exponent at v=0")
        total = Fraction(0)
        for e, a in self._c.items():
            total += a * x ** e
        return total

    def to_t_poly(self) -> "QPoly":
        """Reinterpret as a polynomial in t where t = v**-2.

        Raises NonIntegral when an exponent is positive or odd.
        """
        out: dict[int, int] = {}
        for e, a in self._c.items():
            if e > 0 or e % 2:
                raise NonIntegral(f"exponent {e} is not of the form -2k")
            out[-e // 2] = a
        return _wrap(QPoly, out)

    @classmethod
    def from_t_poly(cls, p: "QPoly") -> "LaurentPoly":
        """Substitute t = v**-2 into a polynomial in t."""
        return _wrap(cls, {-2 * e: a for e, a in p._c.items()})


class QPoly(_Poly):
    """Element of Z[q], exponents >= 0."""

    __slots__ = ()
    VAR = "q"

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._c = _normal(coeffs)
        # every key is integral by now, zero coefficients' keys included
        if coeffs and min(coeffs) < 0:
            raise ValueError(f"negative exponent {int(min(coeffs))} in QPoly")

    @classmethod
    def q_power(cls, k: int, coeff: int = 1) -> "QPoly":
        """coeff * q**k, for int k >= 0 and int coeff."""
        if k < 0:
            raise ValueError(f"negative exponent {k} in QPoly")
        return _wrap(cls, {k: coeff} if coeff else {})

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return max(self._c) if self._c else -1

    def _negative_power(self, n: int) -> "QPoly":
        raise ValueError("negative power in Z[q]")

    def exact_div(self, other: "QPoly") -> "QPoly":
        """Exact quotient in Z[q]; NonIntegral if it does not divide even
        in Z[q, q^-1], ValueError if the quotient needs a negative power."""
        out = super().exact_div(other)
        if out._c and min(out._c) < 0:
            raise ValueError(f"negative exponent {min(out._c)} in QPoly")
        return out

    def evaluate(self, x: int) -> int:
        """Value at q = x (Horner)."""
        total = 0
        for e in range(self.degree(), -1, -1):
            total = total * x + self._c.get(e, 0)
        return total

    def to_laurent(self) -> LaurentPoly:
        """Substitute q = v**2."""
        return _wrap(LaurentPoly, {2 * e: a for e, a in self._c.items()})


class Combination:
    """Finite sparse combination: label -> nonzero LaurentPoly, at a
    positive rank (None for a type without one).

    A subclass gives its label rule, `_label(key, rank)`: the normal
    label, or None for a label that does not fit the rank (the term is
    dropped).  The validating constructor runs every key through it,
    sums repeated labels, drops zero sums and raises TypeError on a
    coefficient that is neither an int nor a LaurentPoly.  Arithmetic
    results and the tables' sums (`_accumulate`) are normal by
    construction and go through `_trusted`, which takes the dict as is."""

    __slots__ = ("rank", "_c")

    def __init__(self, rank, coeffs=None):
        if rank is not None and rank < 1:
            raise ValueError(f"rank {rank} is not positive")
        self.rank, self._c = rank, {}
        for key, val in (coeffs or {}).items():
            if isinstance(val, int):
                val = LaurentPoly.from_int(val)
            elif not isinstance(val, LaurentPoly):
                raise TypeError(f"coefficient {val!r} is not an int or LaurentPoly")
            label = self._label(key, rank)
            if label is not None:
                self._accumulate(self._c, [(label, val)])

    @classmethod
    def _trusted(cls, rank, c: dict):
        out = object.__new__(cls)
        out.rank, out._c = rank, c
        return out

    @staticmethod
    def _accumulate(acc: dict, terms) -> None:
        """Add (label, coefficient) terms into `acc`, dropping zero
        sums; any coefficients with `+` and a zero that is falsy."""
        for k, a in terms:
            prev = acc.get(k)
            total = a if prev is None else prev + a
            if total:
                acc[k] = total
            else:
                acc.pop(k, None)

    @classmethod
    def zero(cls, rank):
        return cls(rank)

    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, key) -> LaurentPoly:
        # a label that does not fit is None, never a key
        return self._c.get(self._label(key, self.rank), LaurentPoly.zero())

    def items(self) -> list:
        return sorted(self._c.items(), reverse=True)

    def _check(self, other) -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} and {other.rank}")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.rank == other.rank and self._c == other._c

    def __hash__(self) -> int:
        return hash((self.rank, frozenset(self._c.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self._c)
        self._accumulate(out, other._c.items())
        return self._trusted(self.rank, out)

    def __sub__(self, other):
        return self + -1 * other

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, LaurentPoly)):
            return NotImplemented
        return self._trusted(
            self.rank, {k: p for k, a in self._c.items() if (p := a * scalar)}
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        bits = [f"{k}:{a.pretty()}" for k, a in self.items()] or ["0"]
        return f"{type(self).__name__}({' + '.join(bits)})"


@lru_cache(maxsize=None)
def gauss_binomial(n: int, k: int) -> QPoly:
    """q-binomial coefficient as a polynomial in q.

    Counts k-dimensional subspaces of an n-dimensional space over a
    field with q elements.

    >>> gauss_binomial(4, 2).pretty()
    '1 + q + 2*q^2 + q^3 + q^4'
    """
    if k < 0 or k > n:
        return QPoly.zero()
    if k == 0 or k == n:
        return QPoly.one()
    return gauss_binomial(n - 1, k - 1) + QPoly.q_power(k) * gauss_binomial(n - 1, k)
