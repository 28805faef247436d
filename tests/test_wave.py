import random
from fractions import Fraction

import pytest

from treewave.errors import ParameterError, TruncationError
from treewave.functions import RadialProfile, TreeFunction, radial_profile_of
from treewave.radial import (
    distance_count,
    evaluate_kernel_solution,
    kernel_family_recurrence,
    m_kernel,
    propagator_kernels,
    radial_convolve,
    radial_solve,
)
from treewave.scalars import QSurd, ScalarMode, sqrt_q_power
from treewave.topology import Ball, VertexAddress, distance, sphere, sphere_volume
from treewave.transforms import dual_abel_inverse
from treewave.wave import (
    asgeirsson_field,
    asgeirsson_verify,
    m_operator,
    propagators,
    solve,
    step_recurrence,
)

EXACT = ScalarMode.EXACT


def distance_counts(q, m, d):
    """Distribution of |y| over the sphere S(x, d) for |x| = m."""
    counts = {r: distance_count(q, m, d, r) for r in range(abs(m - d), m + d + 1, 2)}
    return {r: c for r, c in counts.items() if c}


def exact(value, q):
    return QSurd(value, 0, q)


def random_data(q, radius, rng, mode=EXACT):
    entries = {}
    for vertex in Ball(q, radius):
        value = rng.randint(-3, 3)
        if value:
            entries[vertex] = (
                QSurd(value, 0, q) if mode is EXACT else float(value)
            )
    f = TreeFunction(q, mode, entries)
    entries_g = {}
    for vertex in Ball(q, radius):
        value = rng.randint(-2, 2)
        if value:
            entries_g[vertex] = (
                QSurd(value, 0, q) if mode is EXACT else float(value)
            )
    return f, TreeFunction(q, mode, entries_g)


# -- M_n ---------------------------------------------------------------------


def test_m_zero_is_identity_and_m_minus_one_vanishes():
    rng = random.Random(1)
    f, _ = random_data(2, 2, rng)
    assert m_operator(0, f) == f
    assert not m_operator(-1, f)
    with pytest.raises(ParameterError):
        m_operator(-2, f)


def test_m_one_of_delta():
    out = m_operator(1, TreeFunction.delta(2, EXACT))
    expected = sqrt_q_power(2, -1, EXACT)
    for v in sphere(VertexAddress.origin(2), 1, Ball(2, 1)):
        assert out[v] == expected
    assert out[VertexAddress.origin(2)].is_zero()


def test_m_two_of_delta():
    out = m_operator(2, TreeFunction.delta(2, EXACT))
    half = exact(Fraction(1, 2), 2)
    assert out[VertexAddress.origin(2)] == half
    for v in sphere(VertexAddress.origin(2), 2, Ball(2, 2)):
        assert out[v] == half
    for v in sphere(VertexAddress.origin(2), 1, Ball(2, 1)):
        assert out[v].is_zero()


# -- propagators ---------------------------------------------------------------


def test_position_propagator_at_one():
    f = TreeFunction.delta(2, EXACT)
    g = TreeFunction.zero(2, EXACT)
    out = propagators(1, f, g)
    expected = sqrt_q_power(2, -1, EXACT) * exact(Fraction(1, 2), 2)
    for v in sphere(VertexAddress.origin(2), 1, Ball(2, 1)):
        assert out[v] == expected
    assert out.support_radius() == 1


def test_velocity_propagator_at_one_is_identity():
    f = TreeFunction.zero(2, EXACT)
    g = TreeFunction.delta(2, EXACT)
    assert propagators(1, f, g) == g
    assert propagators(-1, f, g) == -g


def test_position_propagator_at_two():
    f = TreeFunction.delta(2, EXACT)
    g = TreeFunction.zero(2, EXACT)
    out = propagators(2, f, g)
    assert out[VertexAddress.origin(2)] == exact(Fraction(-1, 4), 2)
    for v in sphere(VertexAddress.origin(2), 2, Ball(2, 2)):
        assert out[v] == exact(Fraction(1, 4), 2)
    for v in sphere(VertexAddress.origin(2), 1, Ball(2, 1)):
        assert out[v].is_zero()


# -- recurrence ---------------------------------------------------------------


def test_step_recurrence_reproduces_time_two():
    f = TreeFunction.delta(2, EXACT)
    g = TreeFunction.zero(2, EXACT)
    u1 = propagators(1, f, g)
    assert step_recurrence(f, u1) == propagators(2, f, g)


def test_step_recurrence_zero_states():
    z = TreeFunction.zero(3, EXACT)
    assert not step_recurrence(z, z)


def test_step_recurrence_is_reversible():
    rng = random.Random(5)
    u_prev, u_curr = random_data(2, 2, rng)
    u_next = step_recurrence(u_prev, u_curr)
    assert step_recurrence(u_next, u_curr) == u_prev


# -- solve ---------------------------------------------------------------------


def test_even_symmetry_for_position_data():
    f = TreeFunction.delta(2, EXACT)
    g = TreeFunction.zero(2, EXACT)
    trajectory = solve(f, g, 6, solver="recurrence")
    for n in range(7):
        assert trajectory.snapshot(-n) == trajectory.snapshot(n)


def test_odd_symmetry_for_velocity_data():
    f = TreeFunction.zero(2, EXACT)
    g = TreeFunction.delta(2, EXACT)
    trajectory = solve(f, g, 6, solver="recurrence")
    for n in range(7):
        assert trajectory.snapshot(-n) == -trajectory.snapshot(n)


def test_solvers_agree_exactly():
    rng = random.Random(9)
    for q in (2, 3):
        f, g = random_data(q, 2, rng)
        closed = solve(f, g, 5, solver="closed")
        leapfrog = solve(f, g, 5, solver="recurrence")
        for n in range(-5, 6):
            assert closed.snapshot(n) == leapfrog.snapshot(n)


def test_solve_rejects_small_ball_naming_the_time():
    f = TreeFunction.delta(2, EXACT)
    g = TreeFunction.zero(2, EXACT)
    with pytest.raises(TruncationError, match="n=3"):
        solve(f, g, 6, ball=Ball(2, 4))


_BAD_RANGES = [(-2.7, 3), (0, 2.5), 2.5, (Fraction(1, 2), 3), (0, 1, 2), "ab", -1, (1, 3), (2, 1)]


@pytest.mark.parametrize("n_range", _BAD_RANGES, ids=repr)
@pytest.mark.parametrize("solver", ("closed", "recurrence"))
def test_solve_rejects_bad_time_range(n_range, solver):
    f, g = TreeFunction.delta(2, EXACT), TreeFunction.zero(2, EXACT)
    with pytest.raises(ParameterError, match="range"):
        solve(f, g, n_range, solver=solver)


@pytest.mark.parametrize("n_range", _BAD_RANGES, ids=repr)
@pytest.mark.parametrize("solver", ("closed", "recurrence"))
def test_radial_solve_rejects_bad_time_range(n_range, solver):
    p, z = RadialProfile.delta(2, EXACT), RadialProfile(2, EXACT)
    with pytest.raises(ParameterError, match="range"):
        radial_solve(p, z, n_range, solver=solver)


def test_time_range_accepts_integer_pairs_and_a_radius():
    f, g = TreeFunction.delta(2, EXACT), TreeFunction.zero(2, EXACT)
    assert solve(f, g, (-1, 2), solver="recurrence").n_values() == [-1, 0, 1, 2]
    p, z = RadialProfile.delta(2, EXACT), RadialProfile(2, EXACT)
    assert radial_solve(p, z, (0, 2), solver="recurrence").n_values() == [0, 1, 2]
    assert radial_solve(p, z, 0).n_values() == [0]


def test_trajectory_invariants():
    rng = random.Random(13)
    f, g = random_data(2, 1, rng)
    trajectory = solve(f, g, 3, solver="recurrence")
    assert trajectory.snapshot(0) == f
    half = exact(Fraction(1, 2), 2)
    assert (trajectory.snapshot(1) - trajectory.snapshot(-1)).scale(half) == g


def test_solve_linearity():
    rng = random.Random(17)
    f1, g1 = random_data(2, 1, rng)
    f2, g2 = random_data(2, 1, rng)
    combined = solve(f1 + f2, g1 + g2, 4)
    split1 = solve(f1, g1, 4)
    split2 = solve(f2, g2, 4)
    for n in range(-4, 5):
        assert combined.snapshot(n) == split1.snapshot(n) + split2.snapshot(n)


def test_finite_propagation_speed():
    rng = random.Random(19)
    f, g = random_data(2, 2, rng)
    trajectory = solve(f, g, 5)
    for n in trajectory.n_values():
        assert trajectory.snapshot(n).support_radius() <= abs(n) + 2


def test_amplitude_decay_for_delta_data():
    f = TreeFunction.delta(2, EXACT)
    g = TreeFunction.zero(2, EXACT)
    trajectory = solve(f, g, 8, solver="recurrence")
    half = exact(Fraction(1, 2), 2)
    for n in range(2, 9):
        scaled = trajectory.snapshot(n).max_abs() * sqrt_q_power(2, n, EXACT)
        assert scaled == half  # (q-1)/2 for q = 2
        assert trajectory.snapshot(n).support_radius() == n


# -- kernels (radial fast path) -------------------------------------------------


def test_kernel_families_closed_equals_recurrence():
    for q in (2, 3, 4):
        families = kernel_family_recurrence(q, 8, EXACT)
        for n in range(-8, 9):
            c_closed, s_closed = propagator_kernels(q, n, EXACT)
            c_leap, s_leap = families[n]
            assert c_closed == c_leap
            assert s_closed == s_leap


def test_m_kernel_matches_vertex_operator():
    for q in (2, 3):
        for n in range(5):
            kernel = m_kernel(q, n, EXACT)
            out = m_operator(n, TreeFunction.delta(q, EXACT))
            for vertex in Ball(q, n):
                assert out[vertex] == kernel[vertex.depth]


def test_distance_count_matches_enumeration():
    centers = {
        2: [
            VertexAddress.origin(2),
            VertexAddress(2, (1,)),
            VertexAddress(2, (0, 1)),
            VertexAddress(2, (2, 1, 0)),
        ],
        3: [
            VertexAddress.origin(3),
            VertexAddress(3, (1,)),
            VertexAddress(3, (0, 2)),
            VertexAddress(3, (3, 0, 1)),
        ],
    }
    for q, points in centers.items():
        ball = Ball(q, 8)
        for center in points:
            m = center.depth
            for d in range(5):
                listed = sphere(center, d, ball)
                observed = {}
                for y in listed:
                    observed[y.depth] = observed.get(y.depth, 0) + 1
                assert observed == distance_counts(q, m, d)
                assert sum(observed.values()) == sphere_volume(q, d)


def test_distance_count_row_sums():
    for q in (2, 3, 4):
        for m in range(6):
            for d in range(6):
                assert sum(distance_counts(q, m, d).values()) == sphere_volume(q, d)


def test_radial_convolve_matches_vertex_application():
    rng = random.Random(23)
    q = 2
    p = RadialProfile(q, EXACT, [(n, exact(rng.randint(-3, 3), q)) for n in range(3)])
    f = TreeFunction.from_radial(p)
    for n in range(4):
        kernel = m_kernel(q, n, EXACT)
        via_kernel = radial_convolve(kernel, p)
        via_vertex = m_operator(n, f)
        assert via_vertex == TreeFunction.from_radial(via_kernel)


def test_radial_solve_matches_vertex_solve():
    rng = random.Random(29)
    q = 2
    f_prof = RadialProfile(q, EXACT, [(n, exact(rng.randint(-2, 2), q)) for n in range(2)])
    g_prof = RadialProfile(q, EXACT, [(0, exact(1, q))])
    f = TreeFunction.from_radial(f_prof)
    g = TreeFunction.from_radial(g_prof)
    for solver in ("closed", "recurrence"):
        radial = radial_solve(f_prof, g_prof, 4, solver=solver)
        vertex = solve(f, g, 4, solver=solver)
        for n in range(-4, 5):
            assert vertex.snapshot(n) == TreeFunction.from_radial(radial.snapshot(n))


def test_kernel_evaluation_matches_vertex_snapshots():
    rng = random.Random(31)
    for q in (2, 3):
        f, g = random_data(q, 2, rng)
        trajectory = solve(f, g, 4, solver="recurrence")
        families = kernel_family_recurrence(q, 4, EXACT)
        ball = Ball(q, 6)
        for n in (-4, -1, 0, 2, 4):
            c_kernel, s_kernel = families[n]
            snapshot = trajectory.snapshot(n)
            for x in ball:
                assert snapshot[x] == evaluate_kernel_solution(c_kernel, s_kernel, f, g, x)


def test_radial_snapshot_values_match_closed_kernel():
    # for delta data the snapshot profile is the position kernel itself
    for q in (2, 3):
        trajectory = radial_solve(
            RadialProfile.delta(q, EXACT), RadialProfile(q, EXACT), 6, solver="recurrence"
        )
        for n in range(-6, 7):
            c_kernel, _ = propagator_kernels(q, n, EXACT)
            assert trajectory.snapshot(n) == c_kernel


# -- mean-value machinery -------------------------------------------------------


def test_wave_connection_with_dual_abel_inverse():
    # the reconstruction of u(x, .) from spherical means of f
    f = TreeFunction.delta(2, EXACT)
    g = TreeFunction.zero(2, EXACT)
    trajectory = solve(f, g, 6, solver="recurrence")
    for x in [VertexAddress.origin(2), VertexAddress(2, (0,)), VertexAddress(2, (1, 0))]:
        means = radial_profile_of(f, center=x)
        reconstructed = dual_abel_inverse(means, up_to=4)
        for n in range(5):
            assert reconstructed[n] == trajectory.snapshot(n)[x]


def test_asgeirsson_field_basics():
    f = TreeFunction.delta(2, EXACT)
    g = TreeFunction.zero(2, EXACT)
    trajectory = solve(f, g, 5, solver="recurrence")
    field = asgeirsson_field(trajectory, Ball(2, 3))
    origin = VertexAddress.origin(2)
    # U(x, 0) = u(x, 0) = f(x)
    for x in Ball(2, 3):
        assert field.value(x, origin) == f[x]
    # both single-sphere sums vanish for this data at the base point
    lhs, rhs = asgeirsson_verify(field, origin, origin, 1, 0)
    assert lhs.is_zero() and rhs.is_zero()


def test_asgeirsson_hypothesis_holds():
    rng = random.Random(37)
    f, g = random_data(2, 1, rng)
    trajectory = solve(f, g, 6, solver="recurrence")
    field = asgeirsson_field(trajectory, Ball(2, 4))
    vertices = list(Ball(2, 3))
    for _ in range(20):
        x, y = rng.choice(vertices), rng.choice(vertices)
        assert field.laplacian_in_x(x, y) == field.laplacian_in_y(x, y)


def test_asgeirsson_double_sum_symmetry():
    rng = random.Random(41)
    f, g = random_data(2, 1, rng)
    trajectory = solve(f, g, 8, solver="recurrence")
    field = asgeirsson_field(trajectory, Ball(2, 8))
    base = list(Ball(2, 2))
    pairs = 0
    while pairs < 20:
        x, y = rng.choice(base), rng.choice(base)
        if distance(x, y) > 2:
            continue
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        lhs, rhs = asgeirsson_verify(field, x, y, m, n)
        assert lhs == rhs
        pairs += 1


def test_asgeirsson_equal_radii_trivial():
    f = TreeFunction.delta(2, EXACT)
    trajectory = solve(f, TreeFunction.zero(2, EXACT), 6, solver="recurrence")
    field = asgeirsson_field(trajectory, Ball(2, 6))
    origin = VertexAddress.origin(2)
    lhs, rhs = asgeirsson_verify(field, origin, VertexAddress(2, (1,)), 2, 2)
    assert lhs == rhs


def test_float_mode_solvers_agree_closely():
    rng = random.Random(43)
    f, g = random_data(2, 1, rng, mode=ScalarMode.FLOAT64)
    closed = solve(f, g, 5, solver="closed")
    leapfrog = solve(f, g, 5, solver="recurrence")
    for n in range(-5, 6):
        a, b = closed.snapshot(n), leapfrog.snapshot(n)
        for vertex in a.support() | b.support():
            assert a[vertex] == pytest.approx(b[vertex], abs=1e-12)
