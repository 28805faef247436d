"""Exact arithmetic in the real quadratic field Q(sqrt(q)).

Every amplitude produced by the wave propagators on a tree with branching
number q is of the form a + b*sqrt(q) with rational a, b: the time step
multiplies by 1/sqrt(q), and all remaining coefficients are rational.
``QSurd`` implements this field exactly (arbitrary-precision rationals via
``fractions.Fraction``), so conservation laws can be asserted as equalities
instead of tolerances.  A float64 backend shares the same operation surface
and is selected through ``ScalarMode``; a whole computation runs in a single
mode, and mixing modes inside one expression raises.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import isfinite, isqrt
from typing import Union

from .errors import ModeError, ParameterError

Scalar = Union["QSurd", float]
RationalLike = Union[int, Fraction]


class ScalarMode(Enum):
    EXACT = "exact"
    FLOAT64 = "float64"


@lru_cache(maxsize=None)
def _square_root_if_perfect(q: int) -> int | None:
    r = isqrt(q)
    return r if r * r == q else None


@lru_cache(maxsize=None)
def _sqrt_bracket(q: int, bits: int) -> tuple[Fraction, Fraction]:
    # lo <= sqrt(q) <= hi with hi - lo = 2^-bits
    n = isqrt(q << (2 * bits))
    return Fraction(n, 1 << bits), Fraction(n + 1, 1 << bits)


def _coerce_rational(value) -> Fraction | None:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return None


class QSurd:
    """Exact element a + b*sqrt(q) of Q(sqrt(q)), q >= 2.

    The representation is a normal form: a and b are reduced fractions, and
    when q is a perfect square the b component is folded into a.  Equality is
    therefore structural.  Values are immutable and hashable.
    """

    __slots__ = ("_a", "_b", "_q")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, q: int | None = None):
        if q is None:
            raise ParameterError("QSurd requires the branching parameter q")
        if not isinstance(q, int) or q < 2:
            raise ParameterError(f"q must be an integer >= 2, got {q!r}")
        fa = _coerce_rational(a)
        fb = _coerce_rational(b)
        if fa is None or fb is None:
            raise ParameterError("QSurd components must be int or Fraction")
        root = _square_root_if_perfect(q)
        if root is not None and fb:
            fa += fb * root
            fb = Fraction(0)
        object.__setattr__(self, "_a", fa)
        object.__setattr__(self, "_b", fb)
        object.__setattr__(self, "_q", q)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("QSurd is immutable")

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def q(self) -> int:
        return self._q

    @classmethod
    def zero(cls, q: int) -> QSurd:
        return cls(0, 0, q)

    @classmethod
    def one(cls, q: int) -> QSurd:
        return cls(1, 0, q)

    @classmethod
    def sqrt(cls, q: int) -> QSurd:
        return cls(0, 1, q)

    def _check_compatible(self, other: QSurd) -> None:
        if self._q != other._q:
            raise ParameterError(
                f"cannot combine QSurd values over q={self._q} and q={other._q}"
            )

    def _coerce(self, other) -> QSurd | None:
        if isinstance(other, QSurd):
            self._check_compatible(other)
            return other
        r = _coerce_rational(other)
        if r is None:
            return None
        return QSurd(r, 0, self._q)

    # -- ring/field operations -------------------------------------------

    def __add__(self, other) -> QSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSurd(self._a + o._a, self._b + o._b, self._q)

    __radd__ = __add__

    def __sub__(self, other) -> QSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSurd(self._a - o._a, self._b - o._b, self._q)

    def __rsub__(self, other) -> QSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> QSurd:
        return QSurd(-self._a, -self._b, self._q)

    def __pos__(self) -> QSurd:
        return self

    def __mul__(self, other) -> QSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSurd(
            self._a * o._a + self._q * self._b * o._b,
            self._a * o._b + self._b * o._a,
            self._q,
        )

    __rmul__ = __mul__

    def inverse(self) -> QSurd:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("QSurd division by zero")
        return QSurd(self._a / n, -self._b / n, self._q)

    def __truediv__(self, other) -> QSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> QSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> QSurd:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QSurd.one(self._q)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> QSurd:
        """Galois conjugate a - b*sqrt(q)."""
        return QSurd(self._a, -self._b, self._q)

    def norm(self) -> Fraction:
        """Field norm a^2 - q*b^2 (zero iff the value is zero)."""
        return self._a * self._a - self._q * self._b * self._b

    # -- predicates and order --------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, QSurd):
            return (
                self._q == other._q
                and self._a == other._a
                and self._b == other._b
            )
        r = _coerce_rational(other)
        if r is None:
            return NotImplemented
        return self._b == 0 and self._a == r

    def __hash__(self):
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, self._q))

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(q)."""
        a, b = self._a, self._b
        if b == 0:
            return -1 if a < 0 else (1 if a > 0 else 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        lhs, rhs = a * a, self._q * b * b
        if lhs == rhs:
            return 0
        if a > 0:  # b < 0
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def _compare(self, other) -> int | None:
        o = self._coerce(other)
        if o is None:
            return None
        return (self - o).sign()

    def __lt__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c >= 0

    def __abs__(self) -> QSurd:
        return -self if self.sign() < 0 else self

    # -- conversions -------------------------------------------------------

    def to_float(self) -> float:
        """Correctly rounded nearest double.

        Brackets sqrt(q) between rationals of increasing precision until both
        endpoints of the enclosing interval round to the same double; for
        b != 0 the value is irrational, so the loop terminates.
        """
        if self._b == 0:
            return float(self._a)
        bits = 64
        while True:
            lo, hi = _sqrt_bracket(self._q, bits)
            if self._b > 0:
                xlo, xhi = self._a + self._b * lo, self._a + self._b * hi
            else:
                xlo, xhi = self._a + self._b * hi, self._a + self._b * lo
            flo, fhi = float(xlo), float(xhi)
            if flo == fhi:
                return flo
            bits *= 2

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self) -> str:
        return f"QSurd({self._a}, {self._b}, q={self._q})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        if self._a == 0:
            return f"{self._b}*sqrt({self._q})"
        sign = "+" if self._b > 0 else "-"
        return f"{self._a}{sign}{abs(self._b)}*sqrt({self._q})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"a": str(self._a), "b": str(self._b)}

    @classmethod
    def from_json(cls, obj: dict, q: int) -> QSurd:
        return cls(Fraction(obj["a"]), Fraction(obj["b"]), q)


# -- mode-generic scalar helpers -------------------------------------------
#
# Operators are written once against these helpers; ScalarMode.EXACT yields
# QSurd values and ScalarMode.FLOAT64 plain floats with the same surface.


def scalar_zero(q: int, mode: ScalarMode) -> Scalar:
    return QSurd.zero(q) if mode is ScalarMode.EXACT else 0.0


def scalar_from_fraction(value: RationalLike, q: int, mode: ScalarMode) -> Scalar:
    if mode is ScalarMode.EXACT:
        return QSurd(value, 0, q)
    return float(Fraction(value))


def sqrt_q_power(q: int, k: int, mode: ScalarMode) -> Scalar:
    """q^(k/2) for integer k (the weight ladder of all transforms)."""
    if mode is ScalarMode.FLOAT64:
        return float(q) ** (k / 2)
    if k % 2 == 0:
        return QSurd(Fraction(q) ** (k // 2), 0, q)
    return QSurd(0, Fraction(q) ** ((k - 1) // 2), q)


def scalar_is_zero(value: Scalar) -> bool:
    if isinstance(value, QSurd):
        return value.is_zero()
    return value == 0.0


def scalar_to_float(value: Scalar) -> float:
    if isinstance(value, QSurd):
        return value.to_float()
    return float(value)


def ensure_mode(value: Scalar, mode: ScalarMode, q: int) -> Scalar:
    """Validate that a user-supplied value belongs to the computation mode;
    float64 values must be finite."""
    if mode is ScalarMode.EXACT:
        if isinstance(value, QSurd):
            if value.q != q:
                raise ParameterError(f"scalar over q={value.q} used in a q={q} computation")
            return value
        r = _coerce_rational(value)
        if r is not None:
            return QSurd(r, 0, q)
        raise ModeError(f"exact computation cannot accept {type(value).__name__}")
    if isinstance(value, QSurd):
        raise ModeError("float64 computation cannot accept exact scalars")
    value = float(value)
    if not isfinite(value):
        raise ParameterError(f"float64 values must be finite, got {value!r}")
    return value


def scalar_to_json(value: Scalar):
    if isinstance(value, QSurd):
        return value.to_json()
    return value


def scalar_from_json(obj, q: int, mode: ScalarMode) -> Scalar:
    if mode is ScalarMode.EXACT:
        if isinstance(obj, dict):
            return QSurd.from_json(obj, q)
        return QSurd(Fraction(str(obj)), 0, q)
    if isinstance(obj, dict):
        raise ModeError("float64 data cannot be built from exact scalar objects")
    return float(obj)


def scalar_sum(values, q: int, mode: ScalarMode) -> Scalar:
    total = scalar_zero(q, mode)
    for v in values:
        total = total + v
    return total
