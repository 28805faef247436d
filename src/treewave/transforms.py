"""Horocycle-summation transform between radial profiles and height sequences.

The forward transform of a radial profile f is the weighted horocycle sum

    A f(h) = q^(h/2) * sum_{x : h(x) = h} f(|x|),

an even sequence with the closed form

    A f(h) = q^(|h|/2) f(|h|) + ((q-1)/q) * sum_{k>=1} q^(|h|/2+k) f(|h|+2k).

Its dual averages a height function over spheres,

    A* f(n) = (1/delta(n)) * sum_{|x| = n} q^(h(x)/2) f(h(x)),

and both inverses are the finite telescoping sums implemented below.  Each
inner sum of a closed form runs over one parity class of the index, so the
closed routes read running sums over the classes, R(i) = x(i) + R(i +- 2)
(``_class_sums``), in O(radius) additions.  They compute in Q(sqrt q) only:
a float64 input is taken exactly (each float is a rational), transformed,
and each output rounded once (``surd_to_float``), so a float64 value is the
correctly rounded exact one and no float summation order is involved.
Every transform is offered with an independent brute-force route (explicit
vertex enumeration inside a ball) next to the closed form; exact agreement
of the two routes is what pins down the height-sign convention.

The Fourier layer F f(lambda) = sum_h q^(i*lambda*h) f(h) completes the
factorization of the spherical transform as F o A; it is tau-periodic with
tau = 2*pi/log(q) and exists only in float mode.  ``fourier_table``
transforms several sequences of one q on one frequency grid, computing each
phase q^(i*lambda*h) once per (lambda, h); ``fourier_height`` is its one-
sequence, one-frequency case, so both give the same bits.  Transform radii
(``n`` of ``dual_abel``, ``up_to`` of ``dual_abel_inverse``) are ints; a
bool, float or str is refused naming the field.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, mul

from .errors import DomainError, ModeError, ParameterError
from .functions import HeightSequence, RadialProfile, _check_time
from .scalars import (
    QSurd,
    Scalar,
    ScalarMode,
    scalar_from_fraction,
    scalar_sum,
    sqrt_q_power,
)
from .topology import Ball, VertexAddress, _check_q, _check_radius, sphere, sphere_volume

EXACT = ScalarMode.EXACT


def _check_method(method: str) -> None:
    if method not in ("brute", "closed"):
        raise ParameterError(f"method must be 'brute' or 'closed', got {method!r}")


def _exact(c, keys) -> list[QSurd]:
    """The values of c at keys in Q(sqrt q); a float64 value is taken as
    the rational it is."""
    if c.mode is EXACT:
        return [c[key] for key in keys]
    return [scalar_from_fraction(Fraction(c[key]), c.q, EXACT) for key in keys]


def _rounded(value: QSurd, mode: ScalarMode, field: str) -> Scalar:
    """An exact transform value in the mode of its input: float64 rounds it
    once (``surd_to_float``), and refuses a value beyond the double range."""
    if mode is EXACT:
        return value
    try:
        return value.to_float()
    except OverflowError:
        raise ParameterError(
            f"field {field!r}: a float64 transform value lies beyond the double range"
        ) from None


def _class_sums(terms: list, step: int) -> list:
    """The running sums of ``terms`` over each parity class of the index,
    R(i) = x(i) + R(i + step): suffix sums for step 2, prefix sums for -2."""
    sums = list(terms)
    for i in range(len(sums) - 3, -1, -1) if step > 0 else range(2, len(sums)):
        sums[i] = sums[i] + sums[i + step]
    return sums


def abel(p: RadialProfile, method: str = "closed") -> HeightSequence:
    """The horocycle sum of p: the closed form q^(d/2) p(d) + T(d+2) at
    depth d = |h|, with T the suffix class sum of ((q-1)/q) q^(m/2) p(m),
    or the brute sum over the vertices of a ball."""
    _check_method(method)
    radius = p.support_radius()
    if radius < 0:
        return HeightSequence(p.q, p.mode)
    if method == "brute":
        return _abel_brute(p, radius)
    q, zero = p.q, QSurd.zero(p.q)
    weighted = [sqrt_q_power(q, m, EXACT) * v for m, v in enumerate(_exact(p, range(radius + 1)))]
    tail = _class_sums([w * Fraction(q - 1, q) for w in weighted] + [zero, zero], 2)
    entries = {}
    for d in range(radius + 1):
        entries[d] = entries[-d] = _rounded(weighted[d] + tail[d + 2], p.mode, "p")
    return HeightSequence(q, p.mode, entries)


def _abel_brute(p: RadialProfile, radius: int) -> HeightSequence:
    # Enumerates the ball spanned by supp p, f(|x|) read once per depth;
    # every vertex with f(|x|) != 0 puts it in the bucket of its height,
    # and each bucket is added by ``scalar_sum`` in ball order.
    q, mode = p.q, p.mode
    values = [p[depth] for depth in range(radius + 1)]
    buckets: dict[int, list[Scalar]] = {}
    for vertex in Ball(q, radius):
        value = values[vertex.depth]
        if value:
            buckets.setdefault(vertex.height(), []).append(value)
    return HeightSequence(q, mode, [
        (h, scalar_sum(terms, q, mode) * sqrt_q_power(q, h, mode)) for h, terms in buckets.items()
    ])


def abel_inverse(s: HeightSequence) -> RadialProfile:
    """The telescoping inverse, at n the suffix class sum of
    q^(-j/2) {s(j) - s(j+2)} over j = n, n+2, ...; defined on even
    sequences only."""
    if not s.is_even():
        raise DomainError("the inverse transform is defined on even sequences only")
    radius = s.support_radius()
    if radius < 0:
        return RadialProfile(s.q, s.mode)
    q, values = s.q, _exact(s, range(radius + 3))
    terms = [sqrt_q_power(q, -j, EXACT) * (values[j] - values[j + 2]) for j in range(radius + 1)]
    sums = _class_sums(terms, 2)
    return RadialProfile(q, s.mode, [(n, _rounded(v, s.mode, "s")) for n, v in enumerate(sums)])


def dual_abel(s: HeightSequence, n: int, method: str = "closed") -> Scalar:
    """The sphere mean A* s(n): the closed form

        q^(-n/2) [q (s(n) + s(-n)) + (q-1) sum_{|k| <= n-2, k = n mod 2} s(k)] / (q+1),

    one class sum over the heights of S(n), or the brute sum over the
    sphere S(n)."""
    _check_method(method)
    _check_radius(n, "n")
    if method == "brute":
        ball = Ball(s.q, n)
        origin = VertexAddress.origin(s.q)
        weight = scalar_from_fraction(Fraction(1, sphere_volume(s.q, n)), s.q, s.mode)
        total = scalar_sum(
            (
                sqrt_q_power(s.q, x.height(), s.mode) * s[x.height()]
                for x in sphere(origin, n, ball)
            ),
            s.q,
            s.mode,
        )
        return total * weight
    if n == 0:
        return s[0]
    q, values = s.q, _exact(s, range(-n, n + 1, 2))
    total = (values[0] + values[-1]) * q + scalar_sum(values[1:-1], q, EXACT) * (q - 1)
    return _rounded(total * Fraction(1, q + 1) * sqrt_q_power(q, -n, EXACT), s.mode, "s")


def dual_abel_inverse(m: RadialProfile, up_to: int | None = None) -> HeightSequence:
    """Inverse of the sphere-averaging transform, consuming means indexed by
    N and returning the even extension of the reconstructed sequence.

    For h = 0 the value is m(0); for h >= 1 it is

        (1/2) [q^(h/2) m(h) + q^(-h/2) m(h mod 2) + q^(1-h/2) P(h-2)],

    with P the prefix class sum of q^j {m(j+2) - m(j)}; the class sum that
    starts from m(0)/q and m(1)/q gives the last two terms in one.  The
    reconstruction can be nonzero beyond the support of m (absent means are
    zero, not unknown), so ``up_to`` widens the reconstructed height range;
    it defaults to the support radius.
    """
    if up_to is not None:
        _check_radius(up_to, "up_to")
    q, mode = m.q, m.mode
    radius = m.support_radius() if up_to is None else max(up_to, m.support_radius())
    if radius < 0:
        return HeightSequence(q, mode)
    values = _exact(m, range(radius + 1))
    steps = [(values[j] - values[j - 2]) * q ** (j - 2) for j in range(2, radius + 1)]
    prefix = _class_sums([v * Fraction(1, q) for v in values[:2]] + steps, -2)
    entries: dict[int, Scalar] = {0: m[0]}
    for h in range(1, radius + 1):
        total = sqrt_q_power(q, h, EXACT) * values[h] + sqrt_q_power(q, 2 - h, EXACT) * prefix[h]
        entries[h] = entries[-h] = _rounded(total * Fraction(1, 2), mode, "m")
    return HeightSequence(q, mode, entries)


def cos_q(lam: float, q: int) -> float:
    """(q^(i*lam) + q^(-i*lam))/2 = cos(lam * log q)."""
    _check_q(q)
    return math.cos(lam * math.log(q))


def sin_q(lam: float, q: int) -> float:
    _check_q(q)
    return math.sin(lam * math.log(q))


def sine_ratio_q(n: int, lam: float, q: int) -> float:
    """sin_q(n*lam)/sin_q(lam) evaluated without division:
    sum_{k=0}^{n-1} cos((n-1-2k) * lam * log q), which extends continuously
    through the zeros of the denominator (value n at lam = 0); odd in n,
    as S_(-n) = -S_n."""
    _check_time(n)
    _check_q(q)
    if n < 0:
        return -sine_ratio_q(-n, lam, q)
    theta = lam * math.log(q)
    return sum(math.cos((n - 1 - 2 * k) * theta) for k in range(n))


def fourier_table(sequences, grid) -> list[list[complex]]:
    """Per sequence, [F f(lambda) for lambda in grid] with F f(lambda) =
    sum_h q^(i*lambda*h) f(h); float mode only, one q for all.

    Each phase q^(i*lambda*h) is computed once per (lambda, h) over the
    heights of all sequences, and each transform adds value * phase in
    increasing h from complex(0.0), so a value is the same float as the
    sum for that one sequence and frequency."""
    sequences = list(sequences)
    if any(s.mode is not ScalarMode.FLOAT64 for s in sequences):
        raise ModeError("the Fourier layer needs float64 data; convert with as_float64()")
    if len({s.q for s in sequences}) > 1:
        raise ParameterError("field 'q': the sequences of one Fourier table must share q")
    if not sequences:
        return []
    log_q = math.log(sequences[0].q)
    terms = [tuple(zip(*s.items())) or ((), ()) for s in sequences]
    heights = sorted(set(chain.from_iterable(hs for hs, _ in terms)))
    rows: list[list[complex]] = [[] for _ in sequences]
    for lam in grid:
        phase = {h: cmath.exp(1j * lam * h * log_q) for h in heights}
        for row, (hs, values) in zip(rows, terms):
            row.append(reduce(add, map(mul, values, map(phase.__getitem__, hs)), complex(0.0)))
    return rows


def fourier_height(s: HeightSequence, lam: float) -> complex:
    """F f(lambda) = sum_h q^(i*lambda*h) f(h); float mode only."""
    return fourier_table([s], [lam])[0][0]
