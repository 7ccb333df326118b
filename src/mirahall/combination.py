"""`Combination`, the one sparse combination type (`hall.HallElt`,
`bimodule.MirElt` and `TensorSym`, `oracle.VarPoly`): labels with
`laurent.LaurentPoly` coefficients, under a validating and a trusted
constructor as the polynomials are."""

from .laurent import LaurentPoly


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

    def apply(self, column):
        """The linear extension of `column`: `column(label)` yields
        (label, LaurentPoly) terms already normal for this type, each
        scaled here by the label's coefficient and summed."""
        out: dict = {}
        for k, a in self._c.items():
            self._accumulate(out, ((t, a * g) for t, g in column(k)))
        return self._trusted(self.rank, out)

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
