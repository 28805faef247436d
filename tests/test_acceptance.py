"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 1-9 are stated once, as the checks of ``treewave.verify``: each test
calls its check (or checks) with pinned parameters, at least the reach of
``treewave verify --size standard``, and asserts that the check passed.  Only
assertions that no check makes are written here: the kernel-evaluation route
of criterion 1, the radial q=3 and float64 parts of criterion 3, and the
vertex-level reach test.  Exact-mode criteria use equality (tolerance 0);
float tolerances are stated inline.
"""

import random
import resource
import time
from fractions import Fraction

from treewave.energy import energies, radial_total_energy, total_energy, total_energy_closed_form
from treewave.functions import RadialProfile, TreeFunction
from treewave.radial import evaluate_kernel_solution, propagator_kernels, radial_solve
from treewave.sampling import random_data_pair, random_radial_profile, sample_vertices
from treewave.scalars import QSurd, ScalarMode
from treewave.topology import Ball
from treewave.verify import (
    check_asgeirsson,
    check_energy_conservation,
    check_equipartition,
    check_huygens,
    check_multipliers,
    check_oracle_equivalence,
    check_propagation,
    check_transform_closed_forms,
    check_transform_inversions,
)
from treewave.wave import solve

EXACT = ScalarMode.EXACT


def _accept(criterion: int, check, qs, **params) -> None:
    result = check(qs, random.Random(f"criterion{criterion}:{check.__name__}"), **params)
    assert result.passed, f"{result.name}: {result.detail}"
    print(f"acceptance criterion {criterion}: PASS — {result.name} [{result.detail}]")


def test_criterion_1_oracle_equivalence():
    """Closed-form propagator vs leapfrog recurrence, q in {2,3,4}, random
    integer data in ball 3, kernels for |n| <= 12, exact equality, < 60 s."""
    started = time.perf_counter()
    vertex_n = {2: 10, 3: 6, 4: 4}
    _accept(1, check_oracle_equivalence, (2, 3, 4), n_max=12, data_radius=3, vertex_n=vertex_n)

    # a third route: the displayed kernel sums evaluated vertex by vertex
    # against the leapfrog, at sampled vertices of every radius to reach + 4
    for q, reach in vertex_n.items():
        rng = random.Random(f"criterion1:sample:{q}")
        f, g = random_data_pair(q, 3, rng)
        leapfrog = solve(f, g, reach, solver="recurrence")
        samples = list(Ball(q, 2)) + sample_vertices(q, reach + 4, rng, per_radius=2)
        for n in leapfrog.n_values():
            c_kernel, s_kernel = propagator_kernels(q, n, EXACT)
            state = leapfrog.snapshot(n)
            for x in samples:
                assert state[x] == evaluate_kernel_solution(c_kernel, s_kernel, f, g, x)

    assert time.perf_counter() - started < 60.0


def test_criterion_2_abel_round_trips():
    """Inversion round trips and brute/closed agreement, supports <= 6."""
    _accept(2, check_transform_closed_forms, (2, 3, 4), profile_radius=6, sequence_radius=6)
    _accept(2, check_transform_inversions, (2, 3, 4))


def test_criterion_3_energy_conservation():
    """E(n) = E(0) exactly for |n| <= 12; float drift <= 1e-10 * E(0)."""
    # exact, vertex-level, q = 2; E(n) reads times n - 1 and n + 1
    _accept(3, check_energy_conservation, (2,), n_max=13)

    # exact, radial representation, q = 3
    rng = random.Random("criterion3:radial")
    fp, gp = random_radial_profile(3, 2, rng), random_radial_profile(3, 2, rng)
    reference, reports = radial_total_energy(radial_solve(fp, gp, 13, solver="recurrence"))
    assert [r.n for r in reports] == list(range(-12, 13))
    assert all(report.total == reference for report in reports)

    # float64 mode
    f, g = random_data_pair(2, 1, random.Random("criterion3:float"), mode=ScalarMode.FLOAT64)
    reference, reports = total_energy(solve(f, g, 13, solver="recurrence"))
    assert [r.n for r in reports] == list(range(-12, 13))
    assert all(abs(report.total - reference) <= 1e-10 * reference for report in reports)


def test_criterion_4_closed_form_total_energy():
    """E(0) equals the closed form in the data; delta instance gives 5/16."""
    _accept(4, check_energy_conservation, (2, 3, 4), n_max=2)


def _check_vertex_reach(q, reach):
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


def test_vertex_level_reach():
    """Vertex-level delta trajectories at the reach target, exact, < 60 s:
    q=2 on (0, 20) with E = 5/16 and gap = -1/2^(n+5), q=3 on (0, 12) with
    E equal to the closed form; the last snapshots equal the radial route
    at every vertex.  The printed peak RSS is that of the whole test
    process, which holds every snapshot of the larger trajectory."""
    started = time.perf_counter()
    for q, reach in ((2, 20), (3, 12)):
        _check_vertex_reach(q, reach)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"vertex-level reach: PASS — |n| = 20 (q=2) and 12 (q=3), {elapsed:.1f}s, "
        f"peak RSS {peak_mb:.0f} MB"
    )


def _irrational_data(q, radius, rng):
    """A value (a + b*sqrt(q)) / den, with a, b != 0 and mixed den, at every
    vertex of Ball(radius)."""
    values = []
    for vertex in Ball(q, radius):
        den = rng.choice((1, 2, 3, 5, 6))
        a, b = rng.choice((-4, -3, -1, 1, 2, 5)), rng.choice((-2, -1, 1, 3))
        values.append((vertex, QSurd(Fraction(a, den), Fraction(b, den), q)))
    return TreeFunction(q, EXACT, values)


def test_orbit_layout_reach():
    """Random irrational data on Ball(3), q=2 and q=3, leapfrog on |n| <= 60
    (the orbit layout of radius 3), exact, < 10 s: E(n) equals the closed
    form in the data at every interior n, the pair-sum and 2-step potentials
    agree at the last one, and the snapshots at the ends and at n = 37 equal
    the kernel sums at sampled vertices of every radius to 63."""
    started = time.perf_counter()
    for q in (2, 3):
        rng = random.Random(f"orbit-reach:{q}")
        f, g = _irrational_data(q, 3, rng), _irrational_data(q, 3, rng)
        trajectory = solve(f, g, 60, solver="recurrence")
        expected = total_energy_closed_form(f, g)
        _, reports = total_energy(trajectory)
        assert [r.n for r in reports] == list(range(-59, 60))
        assert all(report.total == expected for report in reports)
        energies(trajectory, 59)  # raises unless the two potentials agree
        samples = sample_vertices(q, 63, rng, per_radius=2)
        for n in (-60, 37, 60):
            c_kernel, s_kernel = propagator_kernels(q, n, EXACT)
            state = trajectory.snapshot(n)
            assert state.support_radius() == 3 + abs(n)
            for x in samples:
                assert state[x] == evaluate_kernel_solution(c_kernel, s_kernel, f, g, x)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"orbit-layout reach: PASS — |n| = 60 (q=2, 3, data on Ball(3)), {elapsed:.1f}s")


def test_criterion_5_equipartition():
    """Pinned gap sequence -2^(-n-5) for 2 <= n <= 10, and the q^(-|n|)
    decay bound with the l1 constant on random data, 1 <= |n| <= 6."""
    _accept(5, check_equipartition, (2, 3), decay_n=6)


def test_criterion_6_finite_speed_and_decay():
    """Support inside the light cone exactly (random data on ball 2, |n| <= 5);
    for the delta instance to |n| = 12, support radius exactly |n| and scaled
    amplitude (q-1)/2 at |n| >= 2."""
    _accept(6, check_propagation, (2, 3, 4), n_max=5, data_radius=2, delta_n=12)


def test_criterion_7_asgeirsson():
    """Mean-value hypothesis and double-sphere symmetry, m, n <= 4, exact,
    at 20 random base pairs."""
    _accept(7, check_asgeirsson, (2,), pairs=20)


def test_criterion_8_multipliers():
    """|F(A(C_n p)) - cos_q(n lambda) F(A p)| <= 1e-10 and the S_n analogue,
    n <= 6, 100 sampled frequencies, q in {2,3}."""
    for q in (2, 3):
        _accept(8, check_multipliers, (q,), samples=100)


def test_criterion_9_huygens():
    """Interior shell sums on the square-root schedule and the pinned
    reference interior_mass(6, 2) = 7/256 (the reading is explained in
    ``check_huygens``)."""
    _accept(9, check_huygens, (2,))
