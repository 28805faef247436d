import random
from fractions import Fraction

import pytest

from treewave import energy, wave
from treewave.energy import (
    default_shell_margin,
    energies,
    equipartition_gap,
    gap_bound_constant,
    huygens_report,
    kinetic_energy,
    potential_energy,
    propagation_bounds,
    radial_equipartition_gap,
    radial_total_energy,
    total_energy,
    total_energy_closed_form,
)
from treewave.errors import ConsistencyError, ParameterError
from treewave.functions import RadialProfile, TreeFunction
from treewave.levels import Levels
from treewave.radial import propagator_kernels, radial_convolve, radial_solve
from treewave.sampling import random_data_pair
from treewave.scalars import QSurd, ScalarMode, scalar_from_fraction, sqrt_q_power
from treewave.topology import Ball, VertexAddress
from treewave.wave import WaveTrajectory, c_operator, propagators, s_operator, solve

EXACT = ScalarMode.EXACT


def exact(value, q=2):
    return QSurd(value, 0, q)


def delta_trajectory(q=2, radius=8, solver="recurrence"):
    f = TreeFunction.delta(q, EXACT)
    g = TreeFunction.zero(q, EXACT)
    return solve(f, g, radius, solver=solver)


def random_data(q, radius, rng):
    f_entries, g_entries = {}, {}
    for vertex in Ball(q, radius):
        fv, gv = rng.randint(-2, 2), rng.randint(-2, 2)
        if fv:
            f_entries[vertex] = QSurd(fv, 0, q)
        if gv:
            g_entries[vertex] = QSurd(gv, 0, q)
    return TreeFunction(q, EXACT, f_entries), TreeFunction(q, EXACT, g_entries)


def test_kinetic_energy_vanishes_at_zero_for_position_data():
    u = delta_trajectory(radius=2)
    assert kinetic_energy(u, 0).is_zero()


def test_potential_energy_reference_value():
    # q = 2, f = delta, g = 0: P(0) = 5/16 by both routes
    u = delta_trajectory(radius=2)
    assert potential_energy(u, 0, "pair") == exact(Fraction(5, 16))
    assert potential_energy(u, 0, "two_step") == exact(Fraction(5, 16))
    report = energies(u, 0)
    assert report.total == exact(Fraction(5, 16))
    assert report.gap == -exact(Fraction(5, 16))


@pytest.mark.parametrize("layout", ("vertex", "radial"))
def test_energies_take_both_potential_routes(monkeypatch, layout):
    # the pair sum and the two-step sum are equal in exact mode, so only a
    # corrupted two-step sum shows that energies() really compares two routes
    if layout == "vertex":
        u = delta_trajectory(radius=2)
    else:
        u = radial_solve(RadialProfile.delta(2, EXACT), RadialProfile(2, EXACT), 2)
    two_step = energy._potential_two_step
    monkeypatch.setattr(energy, "_potential_two_step", lambda state: two_step(state) + exact(1))
    assert potential_energy(u, 0, "two_step") == exact(Fraction(21, 16))
    with pytest.raises(ConsistencyError, match="n=0"):
        energies(u, 0)


def test_potential_mismatch_names_the_time_and_both_values(monkeypatch):
    u = delta_trajectory(radius=3)
    two_step = energy._potential_two_step
    shift = QSurd.sqrt(2)
    monkeypatch.setattr(energy, "_potential_two_step", lambda state: two_step(state) + shift)
    with pytest.raises(ConsistencyError) as caught:
        energies(u, 1)
    assert str(caught.value) == (
        "pair-sum and 2-step potential energies disagree at n=1: "
        "pair sum 9/128, two-step 9/128+1*sqrt(2)"
    )


def test_energy_conservation_delta_instance():
    u = delta_trajectory(radius=9)
    reference, reports = total_energy(u)
    assert reference == exact(Fraction(5, 16))
    for report in reports:
        assert report.total == reference
        assert report.kinetic.sign() >= 0
        assert report.potential.sign() >= 0


def test_energy_conservation_random_data():
    rng = random.Random(3)
    for q in (2, 3):
        f, g = random_data(q, 1, rng)
        u = solve(f, g, 6, solver="recurrence")
        reference, reports = total_energy(u)
        for report in reports:
            assert report.total == reference
        assert reference == total_energy_closed_form(f, g)


def test_closed_form_when_position_part_vanishes():
    rng = random.Random(5)
    _, g = random_data(2, 1, rng)
    f = TreeFunction.zero(2, EXACT)
    half = exact(Fraction(1, 2))
    assert total_energy_closed_form(f, g) == g.dot(g) * half
    u = solve(f, g, 4, solver="recurrence")
    reference, _ = total_energy(u)
    assert reference == g.dot(g) * half


def test_gap_reference_sequence():
    # q = 2, f = delta, g = 0: K(n) - P(n) = -2^(-n-5) for n >= 2
    u = delta_trajectory(radius=7)
    for n in range(2, 6):
        direct, operator_route = equipartition_gap(u, n)
        assert direct == operator_route
        assert direct == exact(Fraction(-1, 2 ** (n + 5)))
    assert energies(u, 2).gap == exact(Fraction(-1, 128))


def test_gap_reference_sequence_radial_to_two_hundred():
    trajectory = radial_solve(
        RadialProfile.delta(2, EXACT), RadialProfile(2, EXACT), 201, solver="recurrence"
    )
    for n in range(2, 201):
        direct, operator_route = radial_equipartition_gap(trajectory, n)
        assert direct == operator_route
        assert direct == exact(Fraction(-1, 2 ** (n + 5)))


def test_gap_for_velocity_delta():
    # f = 0, g = delta: gap(n) = -((q-1)/4) q^(-|n|) for |n| >= 1
    for q in (2, 3):
        f = RadialProfile(q, EXACT)
        g = RadialProfile.delta(q, EXACT)
        trajectory = radial_solve(f, g, 7, solver="recurrence")
        for n in (1, 3, 6, -4):
            direct, operator_route = radial_equipartition_gap(trajectory, n)
            assert direct == operator_route
            expected = QSurd(Fraction(-(q - 1), 4 * q ** abs(n)), 0, q)
            assert direct == expected


def test_gap_routes_agree_for_random_data():
    rng = random.Random(7)
    f, g = random_data(2, 1, rng)
    u = solve(f, g, 4, solver="recurrence")
    for n in (-3, -1, 0, 1, 2, 3):
        direct, operator_route = equipartition_gap(u, n)
        assert direct == operator_route


def test_gap_images_are_built_once_per_trajectory(monkeypatch):
    # C_2 f and C_2 g enter every time's operator gap through f - C_2 f and
    # g - C_2 g: two C_2 for the trajectory, plus the C_{2|n|} of |n| = 1,
    # whose pairings n = 1 and n = -1 share
    f, g = random_data_pair(3, 1, random.Random(13))
    u = solve(f, g, 4, solver="recurrence")
    calls = []
    original = energy.c_operator

    def counted(n, x):
        calls.append((abs(n), x is f, x is g))
        return original(n, x)

    monkeypatch.setattr(energy, "c_operator", counted)
    monkeypatch.setattr(wave, "c_operator", counted)
    for n in range(-3, 4):
        direct, operator_route = equipartition_gap(u, n)
        assert direct == operator_route
    assert calls.count((2, True, False)) == 1 + 1  # the image, C_2 f at |n| = 1
    assert calls.count((2, False, True)) == 1 + 1
    assert u._gap_images == (f - original(2, f), g - original(2, g))


def test_direct_energy_sums_are_summed_once_per_time(monkeypatch):
    f, g = random_data_pair(2, 1, random.Random(17))
    u = solve(f, g, 5, solver="recurrence")
    times = []
    kinetic = energy.kinetic_energy
    monkeypatch.setattr(energy, "kinetic_energy", lambda u, n: times.append(n) or kinetic(u, n))
    gaps = {n: equipartition_gap(u, n)[0] for n in (-2, -1, 0, 1, 2)}
    _, reports = total_energy(u)
    assert sorted(times) == u.interior_times()
    assert all(report.gap == gaps[report.n] for report in reports if report.n in gaps)


def _around(f, g, n):
    """Closed snapshots at n - 1, n and n + 1 only: what K(n) and P(n) read."""
    snapshots = {k: propagators(k, f, g) for k in (n - 1, n, n + 1)}
    return WaveTrajectory(q=f.q, mode=f.mode, f=f, g=g, snapshots=snapshots)


def _composed_gap(u, n):
    """The operator gap with the f-term as <(1 - C_2) C_{2|n|} f, f>: C_2 acts
    on C_{2|n|} f, whose tail makes M_2 scatter over Ball(R + 2|n| + 2).  A
    reference for the pairing that commutes C_2 onto the data."""
    q = u.q
    quarter = scalar_from_fraction(Fraction(1, 4), q, EXACT)
    half = scalar_from_fraction(Fraction(1, 2), q, EXACT)
    f, g = u.f, u.g
    c2n_f = c_operator(2 * abs(n), f)
    term_f = (c2n_f - c_operator(2, c2n_f)).dot(f) * quarter
    term_g = c_operator(2 * abs(n), g).dot(g) * half
    term_cross = s_operator(2 * n, f).dot(g - c_operator(2, g)) * half
    return -term_f + term_g - term_cross


@pytest.mark.parametrize(
    "q, radius, times",
    [(2, 2, (8, 9, 50, 200)), (3, 2, (8, 9, 50, 200)), (9, 1, (8, 9, 50))],
)
def test_operator_gap_equals_the_direct_gap_at_long_times(q, radius, times):
    f, g = random_data_pair(q, radius, random.Random(5))
    for n in times:
        for signed in (n, -n):
            direct, operator_route = equipartition_gap(_around(f, g, signed), signed)
            assert direct == operator_route


@pytest.mark.parametrize("q", [2, 3])
def test_operator_gap_builds_no_vertex_row_deeper_than_the_data(monkeypatch, q):
    # every packed form the operator route builds at |n| = 200 keeps vertex
    # rows to the data radius only: C_2 never meets C_{2|n|} f's tail
    f, g = random_data_pair(q, 2, random.Random(5))
    u = _around(f, g, 200)
    radii = []
    init = Levels.__init__

    def traced(self, q, mode, den, parts, lead=0, pairs=None):
        # after a leading parity run of ``lead`` depths, the rows start at depth lead
        radii.append(min(lead + len(parts[0]) - 1, self._orbit_radius))
        init(self, q, mode, den, parts, lead, pairs)

    monkeypatch.setattr(Levels, "__init__", traced)
    energy._operator_gap(u, 200)
    energy._operator_gap(u, -200)
    assert radii and max(radii) <= 2


@pytest.mark.parametrize("q, radius, reach", [(2, 2, 6), (3, 2, 3)])
def test_operator_gap_equals_the_composed_pairing(q, radius, reach):
    f, g = random_data_pair(q, radius, random.Random(9))
    u = solve(f, g, reach, solver="closed")
    for n in range(-reach, reach + 1):
        assert energy._operator_gap(u, n) == _composed_gap(u, n)


def test_gap_decay_bound():
    rng = random.Random(11)
    for q in (2, 3):
        f, g = random_data(q, 1, rng)
        u = solve(f, g, 7, solver="recurrence")
        bound = gap_bound_constant(f, g)
        for n in range(1, 7):
            direct = kinetic_energy(u, n) - potential_energy(u, n, "pair")
            scaled = abs(direct) * sqrt_q_power(q, 2 * n, EXACT)
            assert scaled <= bound


@pytest.mark.parametrize(
    "q, expected",
    [
        (2, [Fraction(11, 32), Fraction(1, 4), QSurd(Fraction(19, 32), Fraction(11, 8), 2)]),
        (3, [Fraction(5, 6), Fraction(1, 2), QSurd(Fraction(4, 3), Fraction(5, 3), 3)]),
    ],
)
def test_gap_bound_constant_of_delta_data(q, expected):
    # C(f, g) is only ever used as an upper bound, so its coefficients are
    # pinned here: (delta, 0), (0, delta) and (delta, delta) at the origin
    delta, zero = TreeFunction.delta(q, EXACT), TreeFunction.zero(q, EXACT)
    pairs = [(delta, zero), (zero, delta), (delta, delta)]
    assert [gap_bound_constant(f, g) for f, g in pairs] == expected


def test_plus_operator_identities():
    # (1/8)(C_{n+1}-C_{n-1})^2 + (1/4)(1-C_2)C_n^2 collapses to (1/4)(1-C_2),
    # the velocity analogue to 1/2, and the cross combination to 0
    for q in (2, 3):
        delta = RadialProfile.delta(q, EXACT)
        c2 = propagator_kernels(q, 2, EXACT)[0]
        eighth = scalar_from_fraction(Fraction(1, 8), q, EXACT)
        quarter = scalar_from_fraction(Fraction(1, 4), q, EXACT)
        half = scalar_from_fraction(Fraction(1, 2), q, EXACT)
        for n in range(7):
            c_plus = propagator_kernels(q, n + 1, EXACT)[0]
            c_minus = propagator_kernels(q, n - 1, EXACT)[0] if n >= 1 else propagator_kernels(q, 1, EXACT)[0]
            s_plus = propagator_kernels(q, n + 1, EXACT)[1]
            s_minus = propagator_kernels(q, n - 1, EXACT)[1]
            c_n = propagator_kernels(q, n, EXACT)[0]
            s_n = propagator_kernels(q, n, EXACT)[1]

            dc = c_plus - c_minus
            ds = s_plus - s_minus
            cc = radial_convolve(c_n, c_n)
            ss = radial_convolve(s_n, s_n)
            cs = radial_convolve(c_n, s_n)

            u_plus = radial_convolve(dc, dc).scale(eighth) + (
                cc - radial_convolve(c2, cc)
            ).scale(quarter)
            assert u_plus == (delta - c2).scale(quarter)

            v_plus = radial_convolve(ds, ds).scale(eighth) + (
                ss - radial_convolve(c2, ss)
            ).scale(quarter)
            assert v_plus == delta.scale(half)

            w_plus = radial_convolve(dc, ds).scale(eighth) + (
                cs - radial_convolve(c2, cs)
            ).scale(quarter)
            assert not w_plus


def test_huygens_reference_value():
    # q = 2, f = delta, g = 0, n = 6, margin 2: interior mass 7/256
    u = delta_trajectory(radius=7)
    report = huygens_report(u, 6, 2)
    assert report.interior_mass == exact(Fraction(7, 256))
    radial = radial_solve(RadialProfile.delta(2, EXACT), RadialProfile(2, EXACT), 7)
    radial_report = huygens_report(radial, 6, 2)
    assert radial_report.interior_mass == report.interior_mass
    assert radial_report.interior_gradient == report.interior_gradient
    assert radial_report.interior_kinetic == report.interior_kinetic


def test_huygens_degenerate_margin_empties_interior():
    u = delta_trajectory(radius=5)
    report = huygens_report(u, 4, 4)
    assert report.interior_mass.is_zero()
    assert report.interior_gradient.is_zero()
    assert report.interior_kinetic.is_zero()


def test_huygens_interior_decay_on_square_schedule():
    trajectory = radial_solve(
        RadialProfile.delta(2, EXACT), RadialProfile(2, EXACT), 18, solver="recurrence"
    )
    reports = {
        n: huygens_report(trajectory, n, default_shell_margin(n))
        for n in (4, 9, 16)
    }
    # pinned interior masses: 63/2048 at n=9 exceeds 1/64 at n=4 (time-parity
    # alternation), so only the combined interior content decreases strictly
    assert reports[4].interior_mass == exact(Fraction(1, 64))
    assert reports[9].interior_mass == exact(Fraction(63, 2048))
    assert reports[16].interior_mass == exact(Fraction(2047, 262144))
    totals = [
        r.interior_mass + r.interior_gradient + r.interior_kinetic
        for r in (reports[4], reports[9], reports[16])
    ]
    for earlier, later in zip(totals, totals[1:]):
        assert later < earlier
    # the delta solution is flat inside the light cone, so the interior
    # distance-2 differences vanish identically
    for report in reports.values():
        assert report.interior_gradient.is_zero()
    # along same-parity times each individual sum does decrease
    assert reports[16].interior_mass < reports[4].interior_mass
    assert reports[16].interior_kinetic < reports[4].interior_kinetic


def test_default_shell_margin():
    assert default_shell_margin(4) == 2
    assert default_shell_margin(9) == 3
    assert default_shell_margin(-16) == 4
    assert default_shell_margin(26) == 5


def test_propagation_bounds_delta():
    u = delta_trajectory(radius=6)
    report = propagation_bounds(u)
    assert report.within_cone
    assert report.data_radius == 0
    for row in report.rows:
        assert row.support_radius == abs(row.n)
        if abs(row.n) >= 2:
            assert row.scaled_amplitude == exact(Fraction(1, 2))


def test_propagation_scaled_amplitude_bounded_for_random_data():
    # |u(x,n)| * q^(|n|/2) <= ((q-1)/2) ||f||_1 + sqrt(q) ||g||_1 uniformly
    rng = random.Random(17)
    for q in (2, 3):
        f, g = random_data(q, 1, rng)
        u = solve(f, g, 6, solver="recurrence")
        bound = (
            f.l1_norm() * QSurd(Fraction(q - 1, 2), 0, q)
            + g.l1_norm() * sqrt_q_power(q, 1, EXACT)
        )
        report = propagation_bounds(u)
        for row in report.rows:
            assert row.scaled_amplitude <= bound


def test_propagation_bounds_flag_a_snapshot_outside_the_cone():
    # delta data (N = 0) and a hand-built u(., 1) reaching depth 2 > |n| + N
    f, g = TreeFunction.delta(2, EXACT), TreeFunction.zero(2, EXACT)
    outside = TreeFunction.delta(2, EXACT, at=VertexAddress(2, (0, 1)))
    u = WaveTrajectory(q=2, mode=EXACT, f=f, g=g, snapshots={0: f, 1: outside})
    report = propagation_bounds(u)
    assert not report.within_cone
    assert [(row.n, row.support_radius) for row in report.rows] == [(0, 0), (1, 2)]
    inside = TreeFunction.delta(2, EXACT, at=VertexAddress(2, (1,)))
    assert propagation_bounds(
        WaveTrajectory(q=2, mode=EXACT, f=f, g=g, snapshots={0: f, 1: inside})
    ).within_cone


def test_propagation_bounds_zero_data():
    u = solve(TreeFunction.zero(2, EXACT), TreeFunction.zero(2, EXACT), 3)
    report = propagation_bounds(u)
    assert report.within_cone
    for row in report.rows:
        assert row.support_radius == -1
        assert row.scaled_amplitude.is_zero()


def test_radial_energy_matches_vertex_energy():
    rng = random.Random(13)
    q = 2
    profile = RadialProfile(q, EXACT, [(n, exact(rng.randint(-2, 2), q)) for n in range(2)])
    g_profile = RadialProfile.delta(q, EXACT)
    radial = radial_solve(profile, g_profile, 5, solver="recurrence")
    vertex = solve(
        TreeFunction.from_radial(profile), TreeFunction.from_radial(g_profile), 5,
        solver="recurrence",
    )
    for n in (-3, 0, 2, 4):
        assert energies(radial, n) == energies(vertex, n)
    radial_reference, _ = radial_total_energy(radial)
    vertex_reference, _ = total_energy(vertex)
    assert radial_reference == vertex_reference
    assert propagation_bounds(radial).within_cone


def test_float_mode_energy_conservation():
    f = TreeFunction.delta(2, ScalarMode.FLOAT64)
    g = TreeFunction.zero(2, ScalarMode.FLOAT64)
    u = solve(f, g, 8, solver="recurrence")
    reference, reports = total_energy(u)
    assert reference == pytest.approx(5 / 16)
    for report in reports:
        assert abs(report.total - reference) <= 1e-10 * reference


def test_huygens_symmetric_in_time_for_position_data():
    trajectory = radial_solve(
        RadialProfile.delta(2, EXACT), RadialProfile(2, EXACT), 8, solver="recurrence"
    )
    forward = huygens_report(trajectory, 6, 2)
    backward = huygens_report(trajectory, -6, 2)
    assert forward.interior_mass == backward.interior_mass
    assert forward.interior_gradient == backward.interior_gradient
    assert forward.interior_kinetic == backward.interior_kinetic


def test_minus_operator_identities():
    # the gap combinations collapse onto the doubled-time propagators:
    # (1/8)(C_{n+1}-C_{n-1})^2 - (1/4)(1-C_2)C_n^2  == -(1/4)(1-C_2)C_{2n}
    # (1/8)(S_{n+1}-S_{n-1})^2 - (1/4)(1-C_2)S_n^2  ==  (1/2)C_{2n}
    # and the cross combination gives -(1/4)(1-C_2)S_{2n}
    for q in (2, 3):
        eighth = scalar_from_fraction(Fraction(1, 8), q, EXACT)
        quarter = scalar_from_fraction(Fraction(1, 4), q, EXACT)
        half = scalar_from_fraction(Fraction(1, 2), q, EXACT)
        c2 = propagator_kernels(q, 2, EXACT)[0]

        def one_minus_c2(profile):
            return profile - radial_convolve(c2, profile)

        for n in range(7):
            c_plus = propagator_kernels(q, n + 1, EXACT)[0]
            c_minus = propagator_kernels(q, abs(n - 1), EXACT)[0]
            s_plus = propagator_kernels(q, n + 1, EXACT)[1]
            s_minus = propagator_kernels(q, n - 1, EXACT)[1]
            c_n = propagator_kernels(q, n, EXACT)[0]
            s_n = propagator_kernels(q, n, EXACT)[1]
            c_2n = propagator_kernels(q, 2 * n, EXACT)[0]
            s_2n = propagator_kernels(q, 2 * n, EXACT)[1]

            dc, ds = c_plus - c_minus, s_plus - s_minus
            u_minus = radial_convolve(dc, dc).scale(eighth) - one_minus_c2(
                radial_convolve(c_n, c_n)
            ).scale(quarter)
            assert u_minus == -one_minus_c2(c_2n).scale(quarter)

            v_minus = radial_convolve(ds, ds).scale(eighth) - one_minus_c2(
                radial_convolve(s_n, s_n)
            ).scale(quarter)
            assert v_minus == c_2n.scale(half)

            w_minus = radial_convolve(dc, ds).scale(eighth) - one_minus_c2(
                radial_convolve(c_n, s_n)
            ).scale(quarter)
            assert w_minus == -one_minus_c2(s_2n).scale(quarter)


def test_energy_refusals_name_their_field():
    trajectory = delta_trajectory(radius=2)
    with pytest.raises(ParameterError, match="'leapfrog'"):
        potential_energy(trajectory, 0, route="leapfrog")
    with pytest.raises(ParameterError, match="shell margin"):
        huygens_report(trajectory, 1, shell_margin=-1)
    single = solve(TreeFunction.delta(2, EXACT), TreeFunction.zero(2, EXACT), (0, 1))
    with pytest.raises(ParameterError, match="no interior times"):
        total_energy(single)
    with pytest.raises(ParameterError, match="q and scalar mode"):
        total_energy_closed_form(TreeFunction.delta(2, EXACT), TreeFunction.zero(3, EXACT))
