"""Kinetic/potential energies, conservation, equipartition gap, Huygens shells.

For a solved trajectory u the kinetic energy at time n is

    K(n) = (1/2) * sum_x |{u(x, n+1) - u(x, n-1)}/2|^2

and the potential energy has two equivalent faces, both computed here:

    P(n) = (1/(4q)) * sum_{d(x,y)=2} |{u(x,n) - u(y,n)}/2|^2
           - ((q-1)^2/(8q)) * sum_x |u(x,n)|^2
         = ((q+1)/8) * sum_x (Lt - gamma_tilde) u(x,n) * u(x,n),

where Lt is the 2-step Laplacian and the pair sum runs over ordered pairs.
The total energy K + P is conserved exactly, equals
(1/4) <(1 - C_2) f, f> + (1/2) <g, g> in terms of the initial data, and the
gap K - P decays like q^(-|n|), with the operator identities

    K(n) - P(n) = -(1/4) <(1-C_2) C_{2n} f, f> + (1/2) <C_{2n} g, g>
                  - (1/2) <S_{2n} f, (1-C_2) g>

providing an independent route to the same number.  Every global sum is
finite because snapshots have finite support; no truncation tolerance is
ever introduced.  The ``radial_*`` variants evaluate the same quantities on
profile trajectories through sphere-volume weights, which is what makes
large |n| reachable for radial data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import ConsistencyError, ParameterError
from .functions import RadialProfile, TreeFunction
from .laplacians import gamma_tilde, two_step_laplacian
from .radial import RadialTrajectory, distance_counts, propagator_kernels, radial_convolve
from .scalars import (
    Scalar,
    ScalarMode,
    scalar_from_fraction,
    scalar_zero,
    sqrt_q_power,
)
from .topology import VertexAddress, sphere_volume
from .wave import WaveTrajectory, m_operator


@dataclass(frozen=True)
class EnergyReport:
    n: int
    kinetic: Scalar
    potential: Scalar
    total: Scalar
    gap: Scalar


@dataclass(frozen=True)
class HuygensReport:
    n: int
    shell_margin: int
    interior_mass: Scalar
    interior_gradient: Scalar
    interior_kinetic: Scalar


@dataclass(frozen=True)
class PropagationRow:
    n: int
    support_radius: int
    scaled_amplitude: Scalar


@dataclass(frozen=True)
class PropagationReport:
    data_radius: int
    rows: list[PropagationRow]
    within_cone: bool


def _two_sphere(vertex: VertexAddress):
    for nb in vertex.neighbors():
        for nb2 in nb.neighbors():
            if nb2 != vertex:
                yield nb2


def kinetic_energy(u: WaveTrajectory, n: int) -> Scalar:
    plus, minus = u.snapshot(n + 1), u.snapshot(n - 1)
    if u.mode is ScalarMode.FLOAT64:
        diff = plus - minus
        return diff.dot(diff) * 0.125
    return plus._as_levels().kinetic(minus._as_levels())


def potential_energy(u: WaveTrajectory, n: int, route: str = "pair") -> Scalar:
    if route == "pair":
        return _potential_pair(u.snapshot(n), u.q, u.mode)
    if route == "two_step":
        return _potential_two_step(u.snapshot(n), u.q, u.mode)
    raise ParameterError(f"route must be 'pair' or 'two_step', got {route!r}")


def _potential_pair(state: TreeFunction, q: int, mode: ScalarMode) -> Scalar:
    if mode is ScalarMode.FLOAT64:
        return _potential_pair_float(state, q)
    return state._as_levels().potential_pair()


def _potential_pair_float(state: TreeFunction, q: int) -> float:
    support = state.support()
    pair_total = 0.0
    for x, value in state.items():
        for y in _two_sphere(x):
            diff = value - state[y]
            pair_total += diff * diff
        outside = sum(1 for y in _two_sphere(x) if y not in support)
        pair_total += outside * value * value
    return pair_total / (16 * q) - state.dot(state) * ((q - 1) ** 2 / (8 * q))


def _potential_two_step(state: TreeFunction, q: int, mode: ScalarMode) -> Scalar:
    weight = scalar_from_fraction(Fraction(q + 1, 8), q, mode)
    if mode is ScalarMode.FLOAT64:
        shifted = two_step_laplacian(state) - state.scale(gamma_tilde(q, mode))
        return shifted.dot(state) * weight
    levels = state._as_levels()
    image = two_step_laplacian(state)._as_levels()
    return (image.dot(levels) - gamma_tilde(q, mode) * levels.dot(levels)) * weight


def energies(u: WaveTrajectory, n: int) -> EnergyReport:
    """Energy report at time n; in exact mode the two potential routes are
    required to agree identically."""
    kinetic = kinetic_energy(u, n)
    pair = potential_energy(u, n, "pair")
    if u.mode is ScalarMode.EXACT:
        operator_route = potential_energy(u, n, "two_step")
        if pair != operator_route:
            raise ConsistencyError(
                f"pair-sum and 2-step potential energies disagree at n={n}"
            )
    return EnergyReport(n=n, kinetic=kinetic, potential=pair, total=kinetic + pair, gap=kinetic - pair)


def total_energy(u: WaveTrajectory, n_values=None) -> tuple[Scalar, list[EnergyReport]]:
    """Per-time energy table (pair-sum potential) and the reference total at
    the time closest to 0.  Conservation itself is asserted by callers."""
    if n_values is None:
        solved = u.n_values()
        n_values = [n for n in solved if n - 1 in u.snapshots and n + 1 in u.snapshots]
    if not n_values:
        raise ParameterError("no interior times available for energies")
    reports = []
    for n in n_values:
        kinetic = kinetic_energy(u, n)
        potential = potential_energy(u, n, "pair")
        reports.append(
            EnergyReport(n=n, kinetic=kinetic, potential=potential, total=kinetic + potential, gap=kinetic - potential)
        )
    reference = min(reports, key=lambda r: abs(r.n)).total
    return reference, reports


def total_energy_closed_form(f: TreeFunction, g: TreeFunction) -> Scalar:
    """(1/4) <(1 - C_2) f, f> + (1/2) <g, g> directly from the data."""
    if f.q != g.q or f.mode != g.mode:
        raise ParameterError("initial data must share q and scalar mode")
    q, mode = f.q, f.mode
    half = scalar_from_fraction(Fraction(1, 2), q, mode)
    quarter = scalar_from_fraction(Fraction(1, 4), q, mode)
    c2f = (m_operator(2, f) - f).scale(half)
    return (f - c2f).dot(f) * quarter + g.dot(g) * half


def _apply_cosine(order: int, f: TreeFunction) -> TreeFunction:
    # C_k for even k >= 0
    if order == 0:
        return f
    half = scalar_from_fraction(Fraction(1, 2), f.q, f.mode)
    return (m_operator(order, f) - m_operator(order - 2, f)).scale(half)


def _apply_sine(order: int, f: TreeFunction) -> TreeFunction:
    # S_k, sign included
    if order == 0:
        return TreeFunction.zero(f.q, f.mode)
    out = m_operator(abs(order) - 1, f)
    return -out if order < 0 else out


def equipartition_gap(u: WaveTrajectory, n: int) -> tuple[Scalar, Scalar]:
    """The gap K(n) - P(n) via direct energy sums and via the operator
    pairings in the initial data; exact mode makes both identical."""
    direct = kinetic_energy(u, n) - potential_energy(u, n, "pair")
    q, mode = u.q, u.mode
    quarter = scalar_from_fraction(Fraction(1, 4), q, mode)
    half = scalar_from_fraction(Fraction(1, 2), q, mode)
    f, g = u.f, u.g

    c2n_f = _apply_cosine(2 * abs(n), f)
    term_f = (c2n_f - _apply_cosine(2, c2n_f)).dot(f) * quarter
    term_g = _apply_cosine(2 * abs(n), g).dot(g) * half
    s2n_f = _apply_sine(2 * n, f)
    term_cross = s2n_f.dot(g - _apply_cosine(2, g)) * half
    operator_route = -term_f + term_g - term_cross
    return direct, operator_route


def gap_bound_constant(f: TreeFunction, g: TreeFunction) -> Scalar:
    """Constant C(f, g) with |K(n) - P(n)| <= C * q^(-|n|) for |n| >= 1,
    assembled from l1 norms:  the propagator bounds
    ||C_{2n} v||_inf <= ((q-1)/2) q^(-|n|) ||v||_1,
    ||S_{2n} v||_inf <= sqrt(q) q^(-|n|) ||v||_1  and
    ||(1 - C_2) v||_1 <= ((q - 1/q)/2 + 2) ||v||_1."""
    q, mode = f.q, f.mode
    lam = scalar_from_fraction(Fraction(q * q - 1 + 4 * q, 2 * q), q, mode)
    f1 = f.l1_norm()
    g1 = g.l1_norm()
    w_f = scalar_from_fraction(Fraction(q - 1, 8), q, mode)
    w_g = scalar_from_fraction(Fraction(q - 1, 4), q, mode)
    w_cross = sqrt_q_power(q, 1, mode) * scalar_from_fraction(Fraction(1, 2), q, mode)
    return w_f * lam * f1 * f1 + w_g * g1 * g1 + w_cross * lam * f1 * g1


def default_shell_margin(n: int) -> int:
    """floor(sqrt(|n|)): grows without bound yet is o(|n|)."""
    return isqrt(abs(n))


def huygens_report(u: WaveTrajectory, n: int, shell_margin: int | None = None) -> HuygensReport:
    """The three interior sums over {|x| < |n| - margin}: squared amplitude,
    squared distance-2 differences (both endpoints interior) and squared
    centered time differences."""
    margin = default_shell_margin(n) if shell_margin is None else shell_margin
    if margin < 0:
        raise ParameterError("shell margin must be >= 0")
    limit = abs(n) - margin
    q, mode = u.q, u.mode
    state = u.snapshot(n)
    zero = scalar_zero(q, mode)

    mass = zero
    for x, value in state.items():
        if x.depth < limit:
            mass = mass + value * value

    gradient = zero
    support = state.support()
    for x, value in state.items():
        if x.depth >= limit:
            continue
        outside = 0
        for y in _two_sphere(x):
            if y.depth >= limit:
                continue
            if y in support:
                diff = value - state[y]
                gradient = gradient + diff * diff
            else:
                gradient = gradient + value * value
                outside += 1
        if outside:
            # mirrored ordered pairs whose first coordinate is off-support
            gradient = gradient + value * value * scalar_from_fraction(outside, q, mode)
    # note: pairs with both coordinates off the support contribute zero

    diff_state = u.snapshot(n + 1) - u.snapshot(n - 1)
    kinetic = zero
    for x, value in diff_state.items():
        if x.depth < limit:
            kinetic = kinetic + value * value

    return HuygensReport(
        n=n,
        shell_margin=margin,
        interior_mass=mass,
        interior_gradient=gradient,
        interior_kinetic=kinetic,
    )


def propagation_bounds(u: WaveTrajectory) -> PropagationReport:
    """Measured support radius and q^(|n|/2)-scaled amplitude per time, with
    the exact light-cone check supp u(., n) inside the ball |n| + N."""
    data_radius = u.data_radius()
    rows = []
    within = True
    for n in u.n_values():
        state = u.snapshot(n)
        radius = state.support_radius()
        scaled = state.max_abs() * sqrt_q_power(u.q, abs(n), u.mode)
        rows.append(PropagationRow(n=n, support_radius=radius, scaled_amplitude=scaled))
        if radius > abs(n) + data_radius:
            within = False
    return PropagationReport(data_radius=data_radius, rows=rows, within_cone=within)


# -- radial counterparts -----------------------------------------------------


def _radial_dot(p1: RadialProfile, p2: RadialProfile) -> Scalar:
    total = scalar_zero(p1.q, p1.mode)
    for m, value in p1.items():
        other = p2[m]
        total = total + value * other * scalar_from_fraction(sphere_volume(p1.q, m), p1.q, p1.mode)
    return total


def radial_kinetic_energy(u: RadialTrajectory, n: int) -> Scalar:
    diff = u.snapshot(n + 1) - u.snapshot(n - 1)
    eighth = scalar_from_fraction(Fraction(1, 8), u.q, u.mode)
    return _radial_dot(diff, diff) * eighth


def radial_potential_energy(u: RadialTrajectory, n: int, route: str = "pair") -> Scalar:
    q, mode = u.q, u.mode
    state = u.snapshot(n)
    if route == "two_step":
        counts_cache: dict[int, dict[int, int]] = {}
        entries = {}
        for m in range(state.support_radius() + 3):
            counts = counts_cache.setdefault(m, distance_counts(q, m, 2))
            neighbour_sum = scalar_zero(q, mode)
            for r, count in counts.items():
                neighbour_sum = neighbour_sum + state[r] * scalar_from_fraction(count, q, mode)
            entries[m] = state[m] - neighbour_sum * scalar_from_fraction(
                Fraction(1, q * (q + 1)), q, mode
            )
        shifted = RadialProfile(q, mode, entries) - state.scale(gamma_tilde(q, mode))
        return _radial_dot(shifted, state) * scalar_from_fraction(Fraction(q + 1, 8), q, mode)
    if route != "pair":
        raise ParameterError(f"route must be 'pair' or 'two_step', got {route!r}")
    pair_total = scalar_zero(q, mode)
    for m in range(state.support_radius() + 3):
        shell = scalar_from_fraction(sphere_volume(q, m), q, mode)
        for r, count in distance_counts(q, m, 2).items():
            diff = state[m] - state[r]
            if not isinstance(diff, float) and diff.is_zero():
                continue
            pair_total = pair_total + shell * scalar_from_fraction(count, q, mode) * diff * diff
    pair_weight = scalar_from_fraction(Fraction(1, 16 * q), q, mode)
    mass_weight = scalar_from_fraction(Fraction((q - 1) ** 2, 8 * q), q, mode)
    return pair_total * pair_weight - _radial_dot(state, state) * mass_weight


def radial_energies(u: RadialTrajectory, n: int) -> EnergyReport:
    kinetic = radial_kinetic_energy(u, n)
    pair = radial_potential_energy(u, n, "pair")
    if u.mode is ScalarMode.EXACT:
        operator_route = radial_potential_energy(u, n, "two_step")
        if pair != operator_route:
            raise ConsistencyError(
                f"pair-sum and 2-step radial potential energies disagree at n={n}"
            )
    return EnergyReport(n=n, kinetic=kinetic, potential=pair, total=kinetic + pair, gap=kinetic - pair)


def radial_total_energy(u: RadialTrajectory, n_values=None) -> tuple[Scalar, list[EnergyReport]]:
    if n_values is None:
        n_values = [n for n in u.n_values() if n - 1 in u.snapshots and n + 1 in u.snapshots]
    if not n_values:
        raise ParameterError("no interior times available for energies")
    reports = []
    for n in n_values:
        kinetic = radial_kinetic_energy(u, n)
        potential = radial_potential_energy(u, n, "pair")
        reports.append(
            EnergyReport(n=n, kinetic=kinetic, potential=potential, total=kinetic + potential, gap=kinetic - potential)
        )
    reference = min(reports, key=lambda r: abs(r.n)).total
    return reference, reports


def radial_equipartition_gap(u: RadialTrajectory, n: int) -> tuple[Scalar, Scalar]:
    """Same two routes as the vertex-level gap, with the operator pairings
    evaluated through distance kernels and sphere-volume weights."""
    direct = radial_kinetic_energy(u, n) - radial_potential_energy(u, n, "pair")
    q, mode = u.q, u.mode
    quarter = scalar_from_fraction(Fraction(1, 4), q, mode)
    half = scalar_from_fraction(Fraction(1, 2), q, mode)
    f, g = u.f, u.g
    c2_kernel, _ = propagator_kernels(q, 2, mode)
    c2n_kernel, _ = propagator_kernels(q, 2 * abs(n), mode)
    s2n_kernel = propagator_kernels(q, 2 * n, mode)[1]

    c2n_f = radial_convolve(c2n_kernel, f)
    term_f = _radial_dot(c2n_f - radial_convolve(c2_kernel, c2n_f), f) * quarter
    term_g = _radial_dot(radial_convolve(c2n_kernel, g), g) * half
    term_cross = _radial_dot(
        radial_convolve(s2n_kernel, f), g - radial_convolve(c2_kernel, g)
    ) * half
    return direct, -term_f + term_g - term_cross


def radial_huygens_report(u: RadialTrajectory, n: int, shell_margin: int | None = None) -> HuygensReport:
    margin = default_shell_margin(n) if shell_margin is None else shell_margin
    if margin < 0:
        raise ParameterError("shell margin must be >= 0")
    limit = abs(n) - margin
    q, mode = u.q, u.mode
    state = u.snapshot(n)
    zero = scalar_zero(q, mode)

    mass = zero
    for m in range(max(limit, 0)):
        value = state[m]
        mass = mass + value * value * scalar_from_fraction(sphere_volume(q, m), q, mode)

    gradient = zero
    for m in range(max(limit, 0)):
        shell = scalar_from_fraction(sphere_volume(q, m), q, mode)
        for r, count in distance_counts(q, m, 2).items():
            if r >= limit:
                continue
            diff = state[m] - state[r]
            gradient = gradient + shell * scalar_from_fraction(count, q, mode) * diff * diff

    diff_state = u.snapshot(n + 1) - u.snapshot(n - 1)
    kinetic = zero
    for m in range(max(limit, 0)):
        value = diff_state[m]
        kinetic = kinetic + value * value * scalar_from_fraction(sphere_volume(q, m), q, mode)

    return HuygensReport(
        n=n,
        shell_margin=margin,
        interior_mass=mass,
        interior_gradient=gradient,
        interior_kinetic=kinetic,
    )


def radial_propagation_bounds(u: RadialTrajectory) -> PropagationReport:
    data_radius = u.data_radius()
    rows = []
    within = True
    for n in u.n_values():
        state = u.snapshot(n)
        radius = state.support_radius()
        values = [abs(v) for _, v in state.items()]
        peak = max(values) if values else scalar_zero(u.q, u.mode)
        scaled = peak * sqrt_q_power(u.q, abs(n), u.mode)
        rows.append(PropagationRow(n=n, support_radius=radius, scaled_amplitude=scaled))
        if radius > abs(n) + data_radius:
            within = False
    return PropagationReport(data_radius=data_radius, rows=rows, within_cone=within)
