"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Slopes, continued fractions and boundary-tight inequality checks all need
exact decisions ("is this ratio rational?", "which side of the threshold?")
that binary floats cannot give.  A :class:`Quad` stores ``a + b*sqrt(d)``
with ``a``, ``b`` exact :class:`fractions.Fraction` and ``d`` a squarefree
positive integer, and supports field arithmetic, exact comparisons and
exact ``floor``.  Rationals are the special case ``b == 0`` (canonically
``d == 1``).

Mixing two different radicands is only defined where the result stays in
a single quadratic field (pure-surd ratios such as sqrt2/sqrt3 reduce to
sqrt6); anything else raises ``ValueError``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from numbers import Rational


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Return (s, d) with n == s*s*d and d squarefree, for n >= 1."""
    if n < 1:
        raise ValueError("radicand must be a positive integer")
    s, d, f = 1, 1, 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    return s, d * n


@functools.total_ordering
class Quad:
    """An element a + b*sqrt(d) of a real quadratic field."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if d < 1:
            raise ValueError("radicand must be >= 1")
        if b == 0:
            d = 1
        elif d == 1:
            a, b = a + b, Fraction(0)
        else:
            s, d0 = squarefree_decompose(d)
            if d0 == 1:
                a, b, d = a + b * s, Fraction(0), 1
            else:
                b, d = b * s, d0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Quad is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def sqrt(n) -> "Quad":
        """Exact sqrt of a non-negative rational n."""
        n = Fraction(n)
        if n < 0:
            raise ValueError("sqrt of negative rational")
        if n == 0:
            return Quad(0)
        # sqrt(p/q) = sqrt(p*q)/q
        return Quad(0, Fraction(1, n.denominator), n.numerator * n.denominator)

    @staticmethod
    def of(x) -> "Quad":
        if isinstance(x, Quad):
            return x
        if isinstance(x, Rational):
            return Quad(Fraction(x))
        if isinstance(x, float):
            return Quad(Fraction(x))
        raise TypeError(f"cannot coerce {type(x).__name__} to Quad")

    # -- predicates --------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Quad):
            return other
        if isinstance(other, (int, Fraction)):
            return Quad(other)
        return NotImplemented

    def _join(self, other: "Quad") -> int:
        """Common radicand, or raise if the fields are incompatible."""
        if self.b == 0:
            return other.d
        if other.b == 0 or self.d == other.d:
            return self.d
        raise ValueError(f"incompatible radicands sqrt{self.d} and sqrt{other.d}")

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d = self._join(o)
        return Quad(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.b != 0 and o.b != 0 and self.d != o.d:
            if self.a == 0 and o.a == 0:
                # pure surds: b1*sqrt(d1) * b2*sqrt(d2) = b1*b2*sqrt(d1*d2)
                return Quad(0, self.b * o.b, self.d * o.d)
            raise ValueError(f"incompatible radicands sqrt{self.d} and sqrt{o.d}")
        d = self._join(o)
        return Quad(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.a == 0 and o.b == 0:
            raise ZeroDivisionError("division by zero Quad")
        if self.b != 0 and o.b != 0 and self.d != o.d:
            if self.a == 0 and o.a == 0:
                # (b1 sqrt d1)/(b2 sqrt d2) = (b1/(b2 d2)) sqrt(d1 d2)
                return Quad(0, self.b / (o.b * o.d), self.d * o.d)
            raise ValueError(f"incompatible radicands sqrt{self.d} and sqrt{o.d}")
        d = self._join(o)
        norm = o.a * o.a - o.b * o.b * d
        if norm == 0:
            raise ZeroDivisionError("division by zero Quad")
        conj = Quad(o.a, -o.b, d)
        num = self * conj
        return Quad(num.a / norm, num.b / norm, d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- order -------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d
        lhs, rhs = a * a, b * b * self.d
        if a > 0:  # b < 0
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign()

    def __eq__(self, other):
        try:
            c = self._cmp(other)
        except (TypeError, ValueError):
            return NotImplemented
        return c == 0 if c is not NotImplemented else NotImplemented

    def __lt__(self, other):
        c = self._cmp(other)
        return c < 0 if c is not NotImplemented else NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __floor__(self) -> int:
        if self.b == 0:
            return math.floor(self.a)
        n = math.floor(float(self))
        # float guess can be off by one near integers; fix exactly
        while self._cmp(n) < 0:
            n -= 1
        while self._cmp(n + 1) >= 0:
            n += 1
        return n

    def __repr__(self):
        if self.b == 0:
            return f"Quad({self.a})"
        return f"Quad({self.a} + {self.b}*sqrt{self.d})"


SQRT2 = Quad.sqrt(2)
SQRT3 = Quad.sqrt(3)
INV_SQRT2 = Quad(0, Fraction(1, 2), 2)
GOLDEN = Quad(Fraction(1, 2), Fraction(1, 2), 5)
