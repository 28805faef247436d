"""Distance-kernel algebra: the radial fast path of the wave solver.

Every propagator is a radial convolution, i.e. it acts as

    (T f)(x) = sum_y k(d(x, y)) f(y)

for a kernel k depending on the distance alone, and the leapfrog recurrence
preserves this class.  Kernels therefore evolve by the radial adjacency
action

    (A k)(0) = (q+1) k(1),        (A k)(m) = k(m-1) + q k(m+1)  (m >= 1),

which turns a time step on an exponentially large ball into a step on a
profile of linear size.  The radial route is what makes verification at
large |n| possible at all: the support ball of a snapshot grows like q^|n|,
while its kernel grows linearly.

The operators themselves (the neighbour sum, the leapfrog step, M_n, C_n,
S_n and the Laplacians) are written once in ``treewave.wave`` and
``treewave.laplacians`` for vertex functions and profiles alike, and a radial
solution is a ``WaveTrajectory`` of profiles.  This module keeps what is
radial only: the closed kernels of the propagators, an independent leapfrog
route to the same kernels, the convolution of a profile with a kernel, the
pointwise evaluation of a kernel solution, and ``radial_solve``, whose closed
route convolves the data with the propagator kernels.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ParameterError
from .functions import RadialProfile, TreeFunction
from .scalars import QSurd, Scalar, ScalarMode, scalar_from_fraction, scalar_zero, sqrt_q_power
from .topology import VertexAddress, distance, distance_count  # noqa: F401 (re-exported)
from .wave import WaveTrajectory, _solve, adjacency_sum


def radial_adjacency(p: RadialProfile) -> RadialProfile:
    """Neighbour sum of the radial function x -> p(|x|), as a profile."""
    return adjacency_sum(p)


def m_kernel(q: int, n: int, mode: ScalarMode) -> RadialProfile:
    """Distance kernel of M_n: q^(-n/2) on distances d <= n with n - d even."""
    if n < -1:
        raise ParameterError(f"M_n needs n >= -1, got {n}")
    if n == -1:
        return RadialProfile(q, mode)
    weight = sqrt_q_power(q, -n, mode)
    return RadialProfile(q, mode, [(d, weight) for d in range(n % 2, n + 1, 2)])


def propagator_kernels(q: int, n: int, mode: ScalarMode) -> tuple[RadialProfile, RadialProfile]:
    """Closed-form kernels (c_n, s_n) with u(., n) = c_n * f + s_n * g
    (radial convolutions); c_0 is the identity kernel and s_0 = 0."""
    if n == 0:
        return RadialProfile.delta(q, mode), RadialProfile(q, mode)
    half = scalar_from_fraction(Fraction(1, 2), q, mode)
    cosine = (m_kernel(q, abs(n), mode) - m_kernel(q, abs(n) - 2, mode)).scale(half)
    sine = m_kernel(q, abs(n) - 1, mode)
    if n < 0:
        sine = -sine
    return cosine, sine


def kernel_family_recurrence(
    q: int, n_max: int, mode: ScalarMode
) -> dict[int, tuple[RadialProfile, RadialProfile]]:
    """Kernels for |n| <= n_max via the leapfrog recurrence only.

    Bootstrapped from the initial conditions alone: the position family
    starts at (delta, Adj delta/(2 sqrt q)) and the velocity family at
    (0, delta), then k_{n+1} = Adj k_n / sqrt(q) - k_{n-1} in both time
    directions.  No closed-form operator enters this route.
    """
    delta, zero = RadialProfile.delta(q, mode), RadialProfile(q, mode)
    c_family = _solve(delta, zero, n_max, "recurrence", None, radial_adjacency).snapshots
    s_family = _solve(zero, delta, n_max, "recurrence", None, radial_adjacency).snapshots
    return {n: (c_family[n], s_family[n]) for n in range(-n_max, n_max + 1)}


def radial_convolve(kernel: RadialProfile, p: RadialProfile) -> RadialProfile:
    """Apply the radial operator with distance kernel ``kernel`` to the
    radial function x -> p(|x|):

        out(m) = sum_d kernel(d) * sum_r #{|y|=r, d(x,y)=d} * p(r),

    on integer pairs over the product of the two denominators, with one
    scalar built per output entry.
    """
    if kernel.q != p.q or kernel.mode != p.mode:
        raise ParameterError("kernel and profile must share q and scalar mode")
    return RadialProfile._from_levels(p._as_levels().convolve(kernel._as_levels()))


def evaluate_kernel_solution(
    c_kernel: RadialProfile,
    s_kernel: RadialProfile,
    f: TreeFunction,
    g: TreeFunction,
    x: VertexAddress,
) -> Scalar:
    """u(x, n) = sum_y c_n(d(x,y)) f(y) + sum_y s_n(d(x,y)) g(y): the
    solution evaluated at one vertex directly from the displayed sums, with
    the data grouped by their distance to x first."""
    q, mode = f.q, f.mode
    total = scalar_zero(q, mode)
    for kernel, data in ((c_kernel, f), (s_kernel, g)):
        support = kernel.support()
        for d, value in _distance_sums(data, x).items():
            if d in support:
                total = total + kernel[d] * value
    return total


def _distance_sums(data: TreeFunction, x: VertexAddress) -> dict[int, Scalar]:
    """d -> the sum of data(y) over the data vertices y with d(x, y) = d, in
    one pass over the data; exact values are summed as integer pairs over
    one common denominator."""
    values = data.value_map()
    if data.mode is not ScalarMode.EXACT:
        sums: dict[int, Scalar] = {}
        for y, value in values.items():
            d = distance(x, y)
            sums[d] = sums.get(d, 0.0) + value
        return sums
    den = lcm(*(part.denominator for value in values.values() for part in (value.a, value.b)))
    pairs: dict[int, tuple[int, int]] = {}
    for y, value in values.items():
        d = distance(x, y)
        a, b = pairs.get(d, (0, 0))
        pairs[d] = (
            a + value.a.numerator * (den // value.a.denominator),
            b + value.b.numerator * (den // value.b.denominator),
        )
    return {d: QSurd(Fraction(a, den), Fraction(b, den), data.q) for d, (a, b) in pairs.items()}


def radial_solve(
    f: RadialProfile,
    g: RadialProfile,
    n_range,
    solver: str = "closed",
) -> WaveTrajectory:
    """Solve the Cauchy problem for radial data entirely on profiles: the
    body of ``treewave.wave.solve``, with the closed route convolving the
    data with the propagator kernels."""

    def closed(n: int) -> RadialProfile:
        c_kernel, s_kernel = propagator_kernels(f.q, n, f.mode)
        return radial_convolve(c_kernel, f) + radial_convolve(s_kernel, g)

    return _solve(f, g, n_range, solver, closed, radial_adjacency)
