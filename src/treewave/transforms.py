"""Horocycle-summation transform between radial profiles and height sequences.

The forward transform of a radial profile f is the weighted horocycle sum

    A f(h) = q^(h/2) * sum_{x : h(x) = h} f(|x|),

an even sequence with the closed form

    A f(h) = q^(|h|/2) f(|h|) + ((q-1)/q) * sum_{k>=1} q^(|h|/2+k) f(|h|+2k).

Its dual averages a height function over spheres,

    A* f(n) = (1/delta(n)) * sum_{|x| = n} q^(h(x)/2) f(h(x)),

and both inverses are the finite telescoping sums implemented below.  Every
transform is offered with an independent brute-force route (explicit vertex
enumeration inside a ball) next to the closed form; exact agreement of the
two routes is what pins down the height-sign convention.

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
from .functions import HeightSequence, RadialProfile
from .scalars import (
    Scalar,
    ScalarMode,
    scalar_from_fraction,
    scalar_sum,
    scalar_zero,
    sqrt_q_power,
)
from .topology import Ball, VertexAddress, _check_radius, sphere, sphere_volume


def _check_method(method: str) -> None:
    if method not in ("brute", "closed"):
        raise ParameterError(f"method must be 'brute' or 'closed', got {method!r}")


def abel(p: RadialProfile, method: str = "closed") -> HeightSequence:
    """The horocycle sum of p: the closed form, one sum over f(|h|),
    f(|h|+2), ... per depth |h|, or the brute sum over the vertices of a
    ball."""
    _check_method(method)
    radius = p.support_radius()
    if radius < 0:
        return HeightSequence(p.q, p.mode)
    if method == "brute":
        return _abel_brute(p, radius)
    q, mode = p.q, p.mode
    ratio = scalar_from_fraction(Fraction(q - 1, q), q, mode)
    # each product once per radius; the sums add them in the same order
    weighted = [sqrt_q_power(q, m, mode) * p[m] for m in range(radius + 1)]
    tail = [ratio * sqrt_q_power(q, m, mode) * p[m] for m in range(radius + 1)]
    entries = {}
    for d in range(radius + 1):
        total = weighted[d]
        for m in range(d + 2, radius + 1, 2):
            total = total + tail[m]
        entries[d] = entries[-d] = total
    return HeightSequence(q, mode, entries)


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
    """Telescoping inverse sum_{k>=0} q^(-n/2-k) {f(n+2k) - f(n+2k+2)};
    defined on even sequences only."""
    if not s.is_even():
        raise DomainError("the inverse transform is defined on even sequences only")
    radius = s.support_radius()
    if radius < 0:
        return RadialProfile(s.q, s.mode)
    q, mode = s.q, s.mode
    shrink = [scalar_from_fraction(Fraction(1, q**k), q, mode) for k in range(radius // 2 + 1)]
    entries = {}
    for n in range(radius + 1):
        lead = sqrt_q_power(q, -n, mode)
        total = scalar_zero(q, mode)
        for k in range((radius - n) // 2 + 1):
            total = total + lead * shrink[k] * (s[n + 2 * k] - s[n + 2 * k + 2])
        entries[n] = total
    return RadialProfile(q, mode, entries)


def dual_abel(s: HeightSequence, n: int, method: str = "closed") -> Scalar:
    """The sphere mean A* s(n): the closed form

        q^(-n/2) [2q e(n) + (q-1) sum_{|k| <= n-2, k = n mod 2} e(k)] / (q+1)

    on the even part e(k) = (s(k) + s(-k))/2, or the brute sum over the
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
    q, mode = s.q, s.mode
    edge = scalar_from_fraction(Fraction(2 * q, q + 1), q, mode)
    inner = scalar_from_fraction(Fraction(q - 1, q + 1), q, mode)
    half = scalar_from_fraction(Fraction(1, 2), q, mode)
    # e(k) = e(-k) bit for bit (float addition commutes): one read per depth
    even = {k: (s[k] + s[-k]) * half for k in range(n % 2, n + 1, 2)}
    total = edge * even[n]
    for k in range(2 - n, n - 1, 2):
        total = total + inner * even[abs(k)]
    return total * sqrt_q_power(q, -n, mode)


def dual_abel_inverse(m: RadialProfile, up_to: int | None = None) -> HeightSequence:
    """Inverse of the sphere-averaging transform, consuming means indexed by
    N and returning the even extension of the reconstructed sequence.

    For h = 0 the value is m(0); for h >= 1 it is

        (1/2) q^(h/2) m(h) + (1/2) q^(-h/2) m(h mod 2)
        + (1/2) sum_k q^(h/2-2k+1) {m(h-2k+2) - m(h-2k)}

    with k running to (h-1)/2 for odd h and to h/2 for even h.  The
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
    half = scalar_from_fraction(Fraction(1, 2), q, mode)
    entries: dict[int, Scalar] = {0: m[0]}
    for h in range(1, radius + 1):
        total = half * sqrt_q_power(q, h, mode) * m[h]
        total = total + half * sqrt_q_power(q, -h, mode) * m[h % 2]
        top = (h - 1) // 2 if h % 2 else h // 2
        for k in range(1, top + 1):
            diff = m[h - 2 * k + 2] - m[h - 2 * k]
            total = total + half * sqrt_q_power(q, h - 4 * k + 2, mode) * diff
        entries[h] = total
        entries[-h] = total
    return HeightSequence(q, mode, entries)


def cos_q(lam: float, q: int) -> float:
    """(q^(i*lam) + q^(-i*lam))/2 = cos(lam * log q)."""
    return math.cos(lam * math.log(q))


def sin_q(lam: float, q: int) -> float:
    return math.sin(lam * math.log(q))


def sine_ratio_q(n: int, lam: float, q: int) -> float:
    """sin_q(n*lam)/sin_q(lam) evaluated without division:
    sum_{k=0}^{n-1} cos((n-1-2k) * lam * log q), which extends continuously
    through the zeros of the denominator (value n at lam = 0)."""
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
