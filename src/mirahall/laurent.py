"""Integer Laurent polynomials in v, and integer polynomials in q = v**2.

These two dict-backed classes are the arithmetic substrate for every
table in the package.  Coefficients are Python ints, exponents plain
ints, and every operation is exact; division helpers raise instead of
rounding.  Recovering a polynomial from point counts
(`pairs.interpolate`) belongs to the counting oracles.

>>> p = LaurentPoly({1: 1, -1: 1})
>>> (p * p).pretty()
'v^-2 + 2 + v^2'
>>> p.bar() == p
True
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import NonIntegral

if TYPE_CHECKING:
    from fractions import Fraction


class LaurentPoly:
    """Element of Z[v, v^-1].  Immutable once built."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c: dict[int, int] = {}
        if coeffs:
            for e, a in coeffs.items():
                if a:
                    c[int(e)] = c.get(int(e), 0) + int(a)
        self._c = {e: a for e, a in c.items() if a}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    @classmethod
    def v_power(cls, k: int, coeff: int = 1) -> "LaurentPoly":
        """coeff * v**k."""
        return cls({k: coeff})

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def coeff(self, k: int) -> int:
        return self._c.get(k, 0)

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._c.items())

    def support(self) -> list[int]:
        return sorted(self._c)

    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return min(self._c)

    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return max(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        out = dict(self._c)
        for e, a in other._c.items():
            out[e] = out.get(e, 0) + a
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -a for e, a in self._c.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-other if isinstance(other, LaurentPoly) else -LaurentPoly({0: other}))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly({0: other}) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return LaurentPoly({e: a * other for e, a in self._c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                k = e1 + e2
                out[k] = out.get(k, 0) + a1 * a2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            mono = self.as_monomial()
            if mono is None or mono[1] not in (1, -1):
                raise ValueError("negative power of a non-unit")
            e, a = mono
            return LaurentPoly({e * n: 1 if (a == 1 or n % 2 == 0) else -1})
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def bar(self) -> "LaurentPoly":
        """Involution v -> v**-1."""
        return LaurentPoly({-e: a for e, a in self._c.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v**k."""
        return LaurentPoly({e + k: a for e, a in self._c.items()})

    def as_monomial(self) -> tuple[int, int] | None:
        """(exponent, coefficient) if a single term, else None."""
        if len(self._c) != 1:
            return None
        [(e, a)] = self._c.items()
        return e, a

    def is_unit_monomial(self) -> bool:
        mono = self.as_monomial()
        return mono is not None and mono[1] in (1, -1)

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient in Z[v, v^-1]; NonIntegral if it does not divide."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly()
        mono = other.as_monomial()
        if mono is not None:
            e, a = mono
            out = {}
            for k, c in self._c.items():
                if c % a:
                    raise NonIntegral(f"{c} not divisible by {a}")
                out[k - e] = c // a
            return LaurentPoly(out)
        # long division after shifting both to honest polynomials
        sa, sb = self.min_exp(), other.min_exp()
        num = {e - sa: a for e, a in self._c.items()}
        den = {e - sb: a for e, a in other._c.items()}
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
        return LaurentPoly({e + sa - sb: a for e, a in quot.items()})

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
        return QPoly(out)

    @classmethod
    def from_t_poly(cls, p: "QPoly") -> "LaurentPoly":
        """Substitute t = v**-2 into a polynomial in t."""
        return cls({-2 * e: a for e, a in p.items()})

    def to_json(self) -> dict[str, int]:
        return {str(e): a for e, a in sorted(self._c.items())}

    @classmethod
    def from_json(cls, d: Mapping[str, int]) -> "LaurentPoly":
        return cls({int(e): int(a) for e, a in d.items()})

    def pretty(self, var: str = "v") -> str:
        if not self._c:
            return "0"
        bits = []
        for e, a in sorted(self._c.items()):
            if e == 0:
                term = str(abs(a))
            else:
                p = var if e == 1 else f"{var}^{e}"
                term = p if abs(a) == 1 else f"{abs(a)}*{p}"
            if not bits:
                bits.append(term if a > 0 else f"-{term}")
            else:
                bits.append(f"+ {term}" if a > 0 else f"- {term}")
        return " ".join(bits)

    def latex(self, var: str = "v") -> str:
        if not self._c:
            return "0"
        bits = []
        for e, a in sorted(self._c.items()):
            if e == 0:
                term = str(abs(a))
            else:
                p = var if e == 1 else f"{var}^{{{e}}}"
                term = p if abs(a) == 1 else f"{abs(a)}{p}"
            if not bits:
                bits.append(term if a > 0 else f"-{term}")
            else:
                bits.append(f"+{term}" if a > 0 else f"-{term}")
        return "".join(bits)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.pretty()})"


class QPoly:
    """Element of Z[q], exponents >= 0."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c: dict[int, int] = {}
        if coeffs:
            for e, a in coeffs.items():
                e = int(e)
                if e < 0:
                    raise ValueError(f"negative exponent {e} in QPoly")
                if a:
                    c[e] = c.get(e, 0) + int(a)
        self._c = {e: a for e, a in c.items() if a}

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    @classmethod
    def from_int(cls, n: int) -> "QPoly":
        return cls({0: n})

    @classmethod
    def q_power(cls, k: int, coeff: int = 1) -> "QPoly":
        return cls({k: coeff})

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "QPoly":
        """Ascending coefficient list: [c0, c1, ...] -> c0 + c1 q + ..."""
        return cls({e: a for e, a in enumerate(coeffs)})

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def coeff(self, k: int) -> int:
        return self._c.get(k, 0)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._c.items())

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return max(self._c) if self._c else -1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = QPoly({0: other})
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __add__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            other = QPoly({0: other})
        out = dict(self._c)
        for e, a in other._c.items():
            out[e] = out.get(e, 0) + a
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly({e: -a for e, a in self._c.items()})

    def __sub__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            other = QPoly({0: other})
        return self + (-other)

    def __rsub__(self, other: int) -> "QPoly":
        return QPoly({0: other}) - self

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly({e: a * other for e, a in self._c.items()}) if other else QPoly()
        if not isinstance(other, QPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + a1 * a2
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power in Z[q]")
        out = QPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def exact_div(self, other: "QPoly") -> "QPoly":
        """Exact quotient in Z[q]; NonIntegral if it does not divide."""
        lp = self.to_laurent().exact_div(other.to_laurent())
        out: dict[int, int] = {}
        for e, a in lp.items():
            if e % 2:
                raise NonIntegral("quotient has odd v-exponent")
            out[e // 2] = a
        return QPoly(out)

    def evaluate(self, x: int) -> int:
        """Value at q = x (Horner)."""
        total = 0
        for e in range(self.degree(), -1, -1):
            total = total * x + self._c.get(e, 0)
        return total

    def to_laurent(self) -> LaurentPoly:
        """Substitute q = v**2."""
        return LaurentPoly({2 * e: a for e, a in self._c.items()})

    def to_json(self) -> dict[str, int]:
        return {str(e): a for e, a in sorted(self._c.items())}

    @classmethod
    def from_json(cls, d: Mapping[str, int]) -> "QPoly":
        return cls({int(e): int(a) for e, a in d.items()})

    def pretty(self, var: str = "q") -> str:
        return LaurentPoly({e: a for e, a in self._c.items()}).pretty(var)

    def latex(self, var: str = "q") -> str:
        return LaurentPoly({e: a for e, a in self._c.items()}).latex(var)

    def __repr__(self) -> str:
        return f"QPoly({self.pretty()})"


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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True



DEFAULT_PRIMES = (2, 3, 5, 7, 11)
