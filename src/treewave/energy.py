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

    K(n) - P(n) = -(1/4) <C_{2n} f, (1-C_2) f> + (1/2) <C_{2n} g, g>
                  - (1/2) <S_{2n} f, (1-C_2) g>

providing an independent route to the same number (C_2 is self-adjoint, so
(1 - C_2) acts on the data in every term).  Every global sum is
finite because snapshots have finite support; no truncation tolerance is
ever introduced.

Each quantity is written once, for a trajectory of vertex functions or of
radial profiles alike.  The sums themselves (kinetic energy, mass, the pair
sum, inner products and the Huygens interior sums) run in
``treewave.levels`` on a snapshot's packed form, in either scalar mode; the
layout supplies the weights, the distance-2 pairs and the neighbour sum of
the two-step image Adj^2 - (q+1) I.  The operator side of the gap applies
C_k and S_k to the initial data only, through ``treewave.wave``
(``m_operator`` reads the parity sums of the data, vertex data in the
orbit layout of R and profiles as orbit data of radius 0, in both number
types); none of it takes a neighbour sum, so it stays independent of the
leapfrog.  Profiles carry one entry per radius weighted by the sphere
volume, which keeps large |n| reachable for radial data.  The ``radial_*`` functions are the same
quantities under the names the benchmark traces.

An energy table has one report, with the direct gap K - P, per interior
time of the trajectory; checks and tables read these reports and the rows of
``propagation_bounds`` rather than recompute them.  The equipartition
table compares a report's gap with the operator route alone
(``_operator_gap``).  Reports and rows are named tuples: immutable, read by
field name, and copied with one field changed by ``_replace``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .errors import ConsistencyError, ParameterError
from .functions import TreeFunction
from .laplacians import gamma_tilde, two_step_laplacian
from .scalars import Scalar, ScalarMode, scalar_from_fraction, sqrt_q_power
from .topology import _check_radius
from .wave import WaveTrajectory, c_operator, s_operator


class EnergyReport(NamedTuple):
    n: int
    kinetic: Scalar
    potential: Scalar
    total: Scalar
    gap: Scalar


class HuygensReport(NamedTuple):
    n: int
    shell_margin: int
    interior_mass: Scalar
    interior_gradient: Scalar
    interior_kinetic: Scalar


class PropagationRow(NamedTuple):
    n: int
    support_radius: int
    scaled_amplitude: Scalar


class PropagationReport(NamedTuple):
    data_radius: int
    rows: list[PropagationRow]
    within_cone: bool


# -- sums over one snapshot ----------------------------------------------------
#
# Every sum runs on the packed form (``_as_levels()``) of a snapshot, which
# every container keeps once built; ``treewave.levels`` supplies the layout's
# weights and distance-2 pairs.


def kinetic_energy(u: WaveTrajectory, n: int) -> Scalar:
    return u.snapshot(n + 1)._as_levels().kinetic(u.snapshot(n - 1)._as_levels())


def _potential_pair(state) -> Scalar:
    return state._as_levels().potential_pair()


def _potential_two_step(state) -> Scalar:
    """((q+1)/8) <(Lt - gamma_tilde) u, u> with the image Lt u."""
    q, mode = state.q, state.mode
    levels = state._as_levels()
    image = two_step_laplacian(state)._as_levels()
    weight = scalar_from_fraction(Fraction(q + 1, 8), q, mode)
    return (image.dot(levels) - gamma_tilde(q, mode) * levels.dot(levels)) * weight


def potential_energy(u: WaveTrajectory, n: int, route: str = "pair") -> Scalar:
    if route == "pair":
        return _potential_pair(u.snapshot(n))
    if route == "two_step":
        return _potential_two_step(u.snapshot(n))
    raise ParameterError(f"route must be 'pair' or 'two_step', got {route!r}")


def _report(n: int, kinetic: Scalar, potential: Scalar) -> EnergyReport:
    total, gap = kinetic + potential, kinetic - potential
    return EnergyReport(n=n, kinetic=kinetic, potential=potential, total=total, gap=gap)


def energies(u: WaveTrajectory, n: int) -> EnergyReport:
    """Energy report at time n; in exact mode the two potential routes are
    required to agree identically."""
    pair = potential_energy(u, n, "pair")
    if u.mode is ScalarMode.EXACT:
        two_step = potential_energy(u, n, "two_step")
        if pair != two_step:
            raise ConsistencyError(
                f"pair-sum and 2-step potential energies disagree at n={n}: "
                f"pair sum {pair}, two-step {two_step}"
            )
    return _report(n, kinetic_energy(u, n), pair)


def _direct_sums(u, n: int, kinetic, potential) -> tuple[Scalar, Scalar]:
    """(K(n), P(n)) with the pair-sum potential, summed once per trajectory
    and time (``WaveTrajectory._energy_sums``)."""
    sums = u._energy_sums
    if n not in sums:
        sums[n] = kinetic(u, n), potential(u, n, "pair")
    return sums[n]


def _energy_table(u, kinetic, potential) -> tuple[Scalar, list[EnergyReport]]:
    n_values = u.interior_times()
    if not n_values:
        raise ParameterError("no interior times available for energies")
    reports = [_report(n, *_direct_sums(u, n, kinetic, potential)) for n in n_values]
    reference = min(reports, key=lambda r: abs(r.n)).total
    return reference, reports


def total_energy(u: WaveTrajectory) -> tuple[Scalar, list[EnergyReport]]:
    """Energy table (pair-sum potential) at every interior time of u, and
    the reference total at the time closest to 0.  Conservation itself is
    asserted by callers; the ``gap`` of each report is the direct K - P."""
    return _energy_table(u, kinetic_energy, potential_energy)


def total_energy_closed_form(f: TreeFunction, g: TreeFunction) -> Scalar:
    """(1/4) <(1 - C_2) f, f> + (1/2) <g, g> directly from the data."""
    if f.q != g.q or f.mode != g.mode:
        raise ParameterError("initial data must share q and scalar mode")
    q, mode = f.q, f.mode
    half = scalar_from_fraction(Fraction(1, 2), q, mode)
    quarter = scalar_from_fraction(Fraction(1, 4), q, mode)
    return (f - c_operator(2, f)).dot(f) * quarter + g.dot(g) * half


def _gap(u, n: int, kinetic, potential) -> tuple[Scalar, Scalar]:
    """Direct K(n) - P(n) and the operator pairings in the initial data."""
    kinetic_n, potential_n = _direct_sums(u, n, kinetic, potential)
    return kinetic_n - potential_n, _operator_gap(u, n)


def _operator_gap(u: WaveTrajectory, n: int) -> Scalar:
    """K(n) - P(n) from the operator pairings in the initial data alone,
    the route that callers holding an energy report compare its gap with.

    C_2 is self-adjoint for the counting inner product, so the f-term
    <(1 - C_2) C_{2|n|} f, f> is taken as <C_{2|n|} f, f - C_2 f>: every
    operator acts on the data itself, whose exact M_n reads parity sums in
    the data's own layout.  The images f - C_2 f and g - C_2 g are built
    once per trajectory (``WaveTrajectory._gap_images``), and the three
    pairings of C_{2|n|} f, C_{2|n|} g and S_{2|n|} f once per |n|
    (``WaveTrajectory._gap_pairings``): S_{-2|n|} f = -S_{2|n|} f, so the
    cross pairing at -n is the negation of the one at |n|."""
    q, mode = u.q, u.mode
    quarter = scalar_from_fraction(Fraction(1, 4), q, mode)
    half = scalar_from_fraction(Fraction(1, 2), q, mode)
    m, f, g, pairings = abs(n), u.f, u.g, u._gap_pairings
    if m not in pairings:
        image_f, image_g = u._gap_images
        operands = ((c_operator, f, image_f), (c_operator, g, g), (s_operator, f, image_g))
        pairings[m] = [op(2 * m, x)._as_levels().dot(y._as_levels()) for op, x, y in operands]
    term_f, term_g, cross = pairings[m]
    return -(term_f * quarter) + term_g * half - (cross if n >= 0 else -cross) * half


def equipartition_gap(u: WaveTrajectory, n: int) -> tuple[Scalar, Scalar]:
    """The gap K(n) - P(n) via direct energy sums and via the operator
    pairings in the initial data (through ``m_operator``); exact mode makes
    both identical."""
    return _gap(u, n, kinetic_energy, potential_energy)


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
    squared distance-2 differences (ordered pairs, both endpoints interior)
    and squared centered time differences."""
    margin = default_shell_margin(n) if shell_margin is None else shell_margin
    _check_radius(margin, "shell_margin", "shell margin")
    mass, gradient, kinetic = u.snapshot(n)._as_levels().huygens_sums(
        u.snapshot(n + 1)._as_levels(), u.snapshot(n - 1)._as_levels(), abs(n) - margin
    )
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


# -- the names the benchmark traces on radial trajectories ------------------------


def radial_kinetic_energy(u: WaveTrajectory, n: int) -> Scalar:
    return kinetic_energy(u, n)


def radial_potential_energy(u: WaveTrajectory, n: int, route: str = "pair") -> Scalar:
    return potential_energy(u, n, route)


def radial_total_energy(u: WaveTrajectory) -> tuple[Scalar, list[EnergyReport]]:
    return _energy_table(u, radial_kinetic_energy, radial_potential_energy)


def radial_equipartition_gap(u: WaveTrajectory, n: int) -> tuple[Scalar, Scalar]:
    return _gap(u, n, radial_kinetic_energy, radial_potential_energy)
