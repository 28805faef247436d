"""The four combinatorial Laplace-type operators and the spectral constants.

On the integer line:      L f(n) = f(n) - (f(n+1) + f(n-1))/2.
On the tree:              L f(x) = f(x) - (1/(q+1)) * sum_{y in S(x,1)} f(y).
Radial part (profiles):   f(0) - f(1) at n = 0,
                          f(n) - f(n-1)/(q+1) - q f(n+1)/(q+1) at n >= 1.
Two-step Laplacian:       Lt f(x) = f(x) - (1/(q(q+1))) * sum_{y in S(x,2)} f(y).

The l2-spectrum of the tree Laplacian is [1-gamma, 1+gamma] with
gamma = 2/(sqrt(q) + 1/sqrt(q)), and the two-step operator satisfies
Lt = ((q+1)/q) * L * (2 - L), with spectrum [gamma_tilde, (q+1)/q].
Spectrum membership is only ever asserted through Rayleigh-quotient
inequalities on finitely supported data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .functions import HeightSequence, RadialProfile, TreeFunction
from .scalars import QSurd, Scalar, ScalarMode, scalar_from_fraction, scalar_zero


def gamma(q: int, mode: ScalarMode = ScalarMode.EXACT) -> Scalar:
    """Spectral half-width 2/(sqrt(q) + 1/sqrt(q)) = 2*sqrt(q)/(q+1), in (0,1)."""
    if mode is ScalarMode.EXACT:
        return QSurd(0, Fraction(2, q + 1), q)
    return 2.0 * math.sqrt(q) / (q + 1)


def gamma_tilde(q: int, mode: ScalarMode = ScalarMode.EXACT) -> Scalar:
    """Bottom (q-1)^2 / (q(q+1)) of the two-step Laplacian spectrum, in (0,1)."""
    return scalar_from_fraction(Fraction((q - 1) ** 2, q * (q + 1)), q, mode)


def tau(q: int) -> float:
    """Period 2*pi/log(q) of the q-exponential Fourier transform."""
    return 2.0 * math.pi / math.log(q)


@dataclass(frozen=True)
class SpectralConstants:
    q: int
    mode: ScalarMode = ScalarMode.EXACT

    @property
    def gamma(self) -> Scalar:
        return gamma(self.q, self.mode)

    @property
    def gamma_tilde(self) -> Scalar:
        return gamma_tilde(self.q, self.mode)

    @property
    def tau(self) -> float:
        return tau(self.q)


def laplacian_line(f: HeightSequence) -> HeightSequence:
    """f(n) - (f(n+1) + f(n-1))/2 on the integer line."""
    half = scalar_from_fraction(Fraction(1, 2), f.q, f.mode)
    out: dict[int, Scalar] = {}
    zero = scalar_zero(f.q, f.mode)
    for n, value in f.items():
        out[n] = out.get(n, zero) + value
        out[n + 1] = out.get(n + 1, zero) - value * half
        out[n - 1] = out.get(n - 1, zero) - value * half
    return HeightSequence(f.q, f.mode, out)


def laplacian_tree(f: TreeFunction) -> TreeFunction:
    """f(x) - (1/(q+1)) * sum over the q+1 neighbours of x, on level arrays
    (the neighbour sum of ``adjacency_sum``)."""
    return TreeFunction._from_levels(f._as_levels().laplacian())


def radial_laplacian(p: RadialProfile) -> RadialProfile:
    """Radial part of the tree Laplacian acting on profiles."""
    q = p.q
    low = scalar_from_fraction(Fraction(1, q + 1), q, p.mode)
    high = scalar_from_fraction(Fraction(q, q + 1), q, p.mode)
    limit = p.support_radius() + 1
    out: dict[int, Scalar] = {}
    for n in range(limit + 1):
        if n == 0:
            out[n] = p[0] - p[1]
        else:
            out[n] = p[n] - p[n - 1] * low - p[n + 1] * high
    return RadialProfile(q, p.mode, out)


def two_step_laplacian(f: TreeFunction) -> TreeFunction:
    """f(x) - (1/(q(q+1))) * sum over the q(q+1) vertices at distance 2,
    on level arrays, where the distance-2 sum is Adj^2 - (q+1) I."""
    return TreeFunction._from_levels(f._as_levels().two_step_laplacian())


def rayleigh_quotient(operator, f) -> Scalar:
    """<Af, f> / <f, f> for the counting inner product; exact in exact mode."""
    image = operator(f)
    numerator = image.dot(f)
    denominator = f.dot(f)
    return numerator / denominator
