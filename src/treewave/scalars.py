"""Exact arithmetic in the real quadratic field Q(sqrt(q)).

Every amplitude produced by the wave propagators on a tree with branching
number q is of the form a + b*sqrt(q) with rational a, b: the time step
multiplies by 1/sqrt(q), and all remaining coefficients are rational.
``QSurd`` implements this field exactly as an integer triple (A, B, D)
standing for (A + B*sqrt(q)) / D, the slot form of the packed functions in
``treewave.levels``, so conservation laws can be asserted as equalities
instead of tolerances.  A float64 backend shares the same operation surface
and is selected through ``ScalarMode``; a whole computation runs in a single
mode, and mixing modes inside one expression raises.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd, isfinite, isqrt, lcm
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
def _sqrt_floor(q: int, bits: int) -> int:
    # n / 2^bits <= sqrt(q) <= (n + 1) / 2^bits
    return isqrt(q << (2 * bits))


def surd_sign(a, b, q: int) -> int:
    """Exact sign of a + b*sqrt(q), for integer or rational a and b."""
    if b == 0:
        return -1 if a < 0 else (1 if a > 0 else 0)
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    lhs, rhs = a * a, q * b * b
    if lhs == rhs:
        return 0
    if a > 0:  # b < 0
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


def surd_to_float(q: int, a: int, b: int, den: int) -> float:
    """Correctly rounded nearest double of (a + b*sqrt(q)) / den, for
    integers a, b and den > 0, with b == 0 when q is a perfect square.

    Brackets sqrt(q) between n / 2^k and (n + 1) / 2^k, k = 64, 128, ...,
    until both ends of the enclosing interval round to the same double
    (int / int true division rounds correctly); for b != 0 the value is
    irrational, so the loop terminates.
    """
    if not b:
        return a / den
    bits = 64
    while True:
        n, scaled, over = _sqrt_floor(q, bits), a << bits, den << bits
        lo, hi = (scaled + b * n) / over, (scaled + b * (n + 1)) / over
        if lo == hi:
            return lo
        bits *= 2


def ratio_text(x: int, den: int) -> str:
    """str(Fraction(x, den)) for den > 0, without building the Fraction."""
    common = gcd(x, den)
    x, den = x // common, den // common
    return str(x) if den == 1 else f"{x}/{den}"


@total_ordering
class QSurd:
    """Exact element (A + B*sqrt(q)) / D of Q(sqrt(q)), q >= 2.

    The integers are a normal form: D > 0, gcd(A, B, D) = 1, and B = 0 when
    q is a perfect square (sqrt(q) is folded into A).  Equality is therefore
    structural.  Values are immutable and hashable; ``a`` and ``b`` are the
    rational parts A/D and B/D.
    """

    __slots__ = ("_v",)  # (A, B, D, q)

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, q: int | None = None):
        if q is None:
            raise ParameterError("QSurd requires the branching parameter q")
        if not isinstance(q, int) or q < 2:
            raise ParameterError(f"q must be an integer >= 2, got {q!r}")
        if not isinstance(a, (int, Fraction)) or not isinstance(b, (int, Fraction)):
            raise ParameterError("QSurd components must be int or Fraction")
        den = lcm(a.denominator, b.denominator)
        x, y = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        root = _square_root_if_perfect(q)
        if root is not None and y:
            x, y = x + y * root, 0
            common = gcd(x, den)
            x, den = x // common, den // common
        _set(self, (x, y, den, q))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("QSurd is immutable")

    def __reduce__(self):  # copy and pickle rebuild the normal form as it is
        return _canonical, self._v

    @property
    def a(self) -> Fraction:
        return Fraction(self._v[0], self._v[2])

    @property
    def b(self) -> Fraction:
        return Fraction(self._v[1], self._v[2])

    @property
    def q(self) -> int:
        return self._v[3]

    @property
    def slots(self) -> tuple[int, int, int]:
        """The normal form (A, B, D)."""
        return self._v[:3]

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def zero(cls, q: int) -> QSurd:
        return cls(0, 0, q)

    @classmethod
    def one(cls, q: int) -> QSurd:
        return cls(1, 0, q)

    @classmethod
    def sqrt(cls, q: int) -> QSurd:
        return cls(0, 1, q)

    def _coerce(self, other) -> QSurd | None:
        if isinstance(other, QSurd):
            if other._v[3] != self._v[3]:
                raise ParameterError(
                    f"cannot combine QSurd values over q={self._v[3]} and q={other._v[3]}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return _canonical(other.numerator, 0, other.denominator, self._v[3])
        return None

    # -- ring/field operations -------------------------------------------

    def _sum(self, other, sign: int) -> QSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a, b, d, q), (x, y, e, _) = self._v, o._v
        if d == e:
            return surd_from_slots(q, a + sign * x, b + sign * y, d)
        return surd_from_slots(q, a * e + sign * x * d, b * e + sign * y * d, d * e)

    def __add__(self, other) -> QSurd:
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> QSurd:
        return self._sum(other, -1)

    def __rsub__(self, other) -> QSurd:
        o = self._coerce(other)
        return NotImplemented if o is None else o._sum(self, -1)

    def __neg__(self) -> QSurd:
        a, b, d, q = self._v
        return _canonical(-a, -b, d, q)

    def __pos__(self) -> QSurd:
        return self

    def _times(self, x: int, y: int, e: int) -> QSurd:
        """self * (x + y*sqrt(q)) / e."""
        a, b, d, q = self._v
        return surd_from_slots(q, a * x + q * b * y, a * y + b * x, d * e)

    def __mul__(self, other) -> QSurd:
        o = self._coerce(other)
        return NotImplemented if o is None else self._times(*o._v[:3])

    __rmul__ = __mul__

    def _inverted(self) -> tuple[int, int, int]:
        """(X, Y, E) with (X + Y*sqrt(q)) / E = 1 / self and E > 0."""
        a, b, d, q = self._v
        n = a * a - q * b * b
        if not n:
            raise ZeroDivisionError("QSurd division by zero")
        return (d * a, -d * b, n) if n > 0 else (-d * a, d * b, -n)

    def inverse(self) -> QSurd:
        return surd_from_slots(self._v[3], *self._inverted())

    def __truediv__(self, other) -> QSurd:
        o = self._coerce(other)
        return NotImplemented if o is None else self._times(*o._inverted())

    def __rtruediv__(self, other) -> QSurd:
        o = self._coerce(other)
        return NotImplemented if o is None else o._times(*self._inverted())

    def __pow__(self, exponent: int) -> QSurd:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QSurd.one(self.q)
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
        a, b, d, q = self._v
        return _canonical(a, -b, d, q)

    def norm(self) -> Fraction:
        """Field norm a^2 - q*b^2 (zero iff the value is zero)."""
        a, b, d, q = self._v
        return Fraction(a * a - q * b * b, d * d)

    # -- predicates and order --------------------------------------------

    def is_zero(self) -> bool:
        return not self._v[0] and not self._v[1]

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, QSurd):
            return self._v == other._v
        if isinstance(other, (int, Fraction)):
            a, b, d, _ = self._v
            return not b and a == other.numerator and d == other.denominator
        return NotImplemented

    def __hash__(self):
        a, b, d, _ = self._v
        if b:
            return hash(self._v)
        return hash(a) if d == 1 else hash(Fraction(a, d))

    def sign(self) -> int:
        """Exact sign of the real number (A + B*sqrt(q)) / D."""
        a, b, _, q = self._v
        return surd_sign(a, b, q)

    def __lt__(self, other):  # the other orders follow from this and __eq__
        o = self._coerce(other)
        return NotImplemented if o is None else (self - o).sign() < 0

    def __abs__(self) -> QSurd:
        return -self if self.sign() < 0 else self

    # -- conversions -------------------------------------------------------

    def to_float(self) -> float:
        """Correctly rounded nearest double (``surd_to_float``)."""
        a, b, d, q = self._v
        return surd_to_float(q, a, b, d)

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self) -> str:
        a, b, d, q = self._v
        return f"QSurd({ratio_text(a, d)}, {ratio_text(b, d)}, q={q})"

    def __str__(self) -> str:
        a, b, d, q = self._v
        if not b:
            return ratio_text(a, d)
        if not a:
            return f"{ratio_text(b, d)}*sqrt({q})"
        sign = "+" if b > 0 else "-"
        return f"{ratio_text(a, d)}{sign}{ratio_text(abs(b), d)}*sqrt({q})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        a, b, d, _ = self._v
        return {"a": ratio_text(a, d), "b": ratio_text(b, d)}

    @classmethod
    def from_json(cls, obj: dict, q: int) -> QSurd:
        return cls(Fraction(obj["a"]), Fraction(obj["b"]), q)


_set = QSurd._v.__set__


def _canonical(a: int, b: int, d: int, q: int) -> QSurd:
    """The QSurd of a triple already in normal form; nothing is checked."""
    value = object.__new__(QSurd)
    _set(value, (a, b, d, q))
    return value


def surd_from_slots(q: int, a: int, b: int, d: int) -> QSurd:
    """The QSurd (a + b*sqrt(q)) / d of integer slots with d > 0 and, as in
    the packed form, b = 0 when q is a perfect square: only gcd(a, b, d) is
    divided out."""
    if d != 1:
        common = gcd(a, b, d)
        if common != 1:
            a, b, d = a // common, b // common, d // common
    return _canonical(a, b, d, q)


# -- mode-generic scalar helpers -------------------------------------------
#
# Operators are written once against these helpers; ScalarMode.EXACT yields
# QSurd values and ScalarMode.FLOAT64 plain floats with the same surface.


def scalar_zero(q: int, mode: ScalarMode) -> Scalar:
    return QSurd.zero(q) if mode is ScalarMode.EXACT else 0.0


def scalar_from_fraction(value: RationalLike, q: int, mode: ScalarMode) -> Scalar:
    if mode is ScalarMode.EXACT:
        return _canonical(value.numerator, 0, value.denominator, q)
    return float(value)


def sqrt_q_power(q: int, k: int, mode: ScalarMode) -> Scalar:
    """q^(k/2) for integer k (the weight ladder of all transforms)."""
    if mode is ScalarMode.FLOAT64:
        return float(q) ** (k / 2)
    power = q ** (abs(k) // 2)
    num, den = (power, 1) if k >= 0 else (1, power * q ** (k % 2))
    if k % 2 == 0:
        return _canonical(num, 0, den, q)
    root = _square_root_if_perfect(q)  # odd k: sqrt(q) * num / den
    return surd_from_slots(q, num * root, 0, den) if root else _canonical(0, num, den, q)


def ensure_mode(value: Scalar, mode: ScalarMode, q: int) -> Scalar:
    """Validate that a user-supplied value belongs to the computation mode;
    float64 values must be finite."""
    if mode is ScalarMode.EXACT:
        if isinstance(value, QSurd):
            if value.q != q:
                raise ParameterError(f"scalar over q={value.q} used in a q={q} computation")
            return value
        if isinstance(value, (int, Fraction)):
            return _canonical(value.numerator, 0, value.denominator, q)
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
    """The sum of ``values``: float64 adds them in order from 0.0, exact
    values add their integer slots over a common denominator, and one
    ``QSurd`` is built at the end.  An int or Fraction is coerced as by
    ``+``; a value over another q is refused."""
    if mode is not ScalarMode.EXACT:
        total = 0.0
        for v in values:
            total = total + v
        return total
    a, b, d, zero = 0, 0, 1, QSurd.zero(q)
    for v in values:
        x, y, e, r = v._v if v.__class__ is QSurd else (zero + v)._v
        if r != q:
            raise ParameterError(f"cannot combine QSurd values over q={q} and q={r}")
        if e != d:
            common = lcm(d, e)
            a, b = a * (common // d), b * (common // d)
            x, y, d = x * (common // e), y * (common // e), common
        a, b = a + x, b + y
    return surd_from_slots(q, a, b, d)
