"""The packed level core against the routes it replaced.

The reference implementations below are the vertex-dictionary versions of
``adjacency_sum``, ``two_step_laplacian``, ``laplacian_tree``, the leapfrog
step, the integer-component energy sums, the float64 pair potential, the
Huygens interior sums, the ball-walk ``m_operator``, the arithmetic of all
three sparse containers, and the ``QSurd`` radial kinetic, pair and Huygens
sums, ``radial_convolve``, ``radial_adjacency`` and radial step.  They walk
``VertexAddress`` neighbours or distance counts one by one, so they share no
code with ``treewave.levels``.
"""

import csv
import io
import random
from fractions import Fraction
from itertools import chain, zip_longest
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treewave.levels
import treewave.radial
from treewave.energy import (
    _potential_pair,
    _potential_two_step,
    energies,
    equipartition_gap,
    huygens_report,
    kinetic_energy,
    potential_energy,
    radial_kinetic_energy,
    radial_potential_energy,
)
from treewave.errors import ParameterError
from treewave.experiment import _scalar_columns, _snapshot_rows
from treewave.functions import HeightSequence, RadialProfile, TreeFunction
from treewave.laplacians import gamma_tilde, laplacian_tree, two_step_laplacian
from treewave.levels import Levels, RadialLevels
from treewave.radial import (
    distance_count,
    kernel_family_recurrence,
    m_kernel,
    propagator_kernels,
    radial_adjacency,
    radial_convolve,
    radial_solve,
)
from treewave.sampling import random_data_pair, random_radial_profile
from treewave.scalars import QSurd, ScalarMode, scalar_from_fraction, scalar_zero, sqrt_q_power
from treewave.topology import Ball, VertexAddress, sphere_volume
from treewave.wave import (
    adjacency_sum,
    c_operator,
    m_operator,
    propagators,
    solve,
    step_recurrence,
)

from scatter import loop_convolve, scatter_mean

EXACT = ScalarMode.EXACT
FLOAT = ScalarMode.FLOAT64
QS = (2, 3, 4, 5, 9)


# -- reference routes ---------------------------------------------------------


def distance_counts(q, m, d):
    """Distribution of |y| over the sphere S(x, d) for |x| = m."""
    counts = {r: distance_count(q, m, d, r) for r in range(abs(m - d), m + d + 1, 2)}
    return {r: c for r, c in counts.items() if c}


def _two_sphere(vertex):
    for nb in vertex.neighbors():
        for nb2 in nb.neighbors():
            if nb2 != vertex:
                yield nb2


def reference_adjacency_sum(f):
    zero = scalar_zero(f.q, f.mode)
    out = {}
    for vertex, value in f.items():
        for nb in vertex.neighbors():
            out[nb] = out.get(nb, zero) + value
    return TreeFunction(f.q, f.mode, out)


def reference_two_step_laplacian(f):
    weight = scalar_from_fraction(Fraction(1, f.q * (f.q + 1)), f.q, f.mode)
    zero = scalar_zero(f.q, f.mode)
    out = {}
    for vertex, value in f.items():
        out[vertex] = out.get(vertex, zero) + value
        spread = value * weight
        for nb2 in _two_sphere(vertex):
            out[nb2] = out.get(nb2, zero) - spread
    return TreeFunction(f.q, f.mode, out)


def reference_step(u_prev, u_curr):
    weight = sqrt_q_power(u_curr.q, -1, u_curr.mode)
    return reference_adjacency_sum(u_curr).scale(weight) - u_prev


def _integer_components(states):
    denominator = 1
    for state in states:
        for value in state.value_map().values():
            denominator = lcm(denominator, value.a.denominator, value.b.denominator)
    packed = [
        {
            vertex: ((value.a * denominator).numerator, (value.b * denominator).numerator)
            for vertex, value in state.value_map().items()
        }
        for state in states
    ]
    return packed, denominator


def reference_kinetic(plus, minus, q):
    (comp_plus, comp_minus), denominator = _integer_components([plus, minus])
    rational_part = surd_part = 0
    for vertex in comp_plus.keys() | comp_minus.keys():
        a_plus, b_plus = comp_plus.get(vertex, (0, 0))
        a_minus, b_minus = comp_minus.get(vertex, (0, 0))
        da, db = a_plus - a_minus, b_plus - b_minus
        rational_part += da * da + q * db * db
        surd_part += 2 * da * db
    scale = 8 * denominator * denominator
    return QSurd(Fraction(rational_part, scale), Fraction(surd_part, scale), q)


def reference_potential_pair(state, q):
    (components,), denominator = _integer_components([state])
    pair_rational = pair_surd = mass_rational = mass_surd = 0
    for x, (a, b) in components.items():
        square_rational = a * a + q * b * b
        square_surd = 2 * a * b
        mass_rational += square_rational
        mass_surd += square_surd
        outside = 0
        for y in _two_sphere(x):
            partner = components.get(y)
            if partner is None:
                outside += 1
                continue
            da, db = a - partner[0], b - partner[1]
            pair_rational += da * da + q * db * db
            pair_surd += 2 * da * db
        pair_rational += 2 * outside * square_rational
        pair_surd += 2 * outside * square_surd
    pair_scale = 16 * q * denominator * denominator
    mass_scale = Fraction((q - 1) ** 2, 8 * q * denominator * denominator)
    return QSurd(
        Fraction(pair_rational, pair_scale) - mass_scale * mass_rational,
        Fraction(pair_surd, pair_scale) - mass_scale * mass_surd,
        q,
    )


def reference_potential_two_step(state, q):
    shifted = reference_two_step_laplacian(state) - state.scale(gamma_tilde(q, state.mode))
    return shifted.dot(state) * scalar_from_fraction(Fraction(q + 1, 8), q, state.mode)


def reference_laplacian_tree(f):
    weight = scalar_from_fraction(Fraction(1, f.q + 1), f.q, f.mode)
    zero = scalar_zero(f.q, f.mode)
    out = {}
    for vertex, value in f.items():
        out[vertex] = out.get(vertex, zero) + value
        for nb in vertex.neighbors():
            out[nb] = out.get(nb, zero) - value * weight
    return TreeFunction(f.q, f.mode, out)


def reference_kinetic_float(plus, minus):
    diff = plus - minus
    return diff.dot(diff) * 0.125


def reference_potential_pair_float(state, q):
    support = state.support()
    pair_total = 0.0
    for x, value in state.items():
        for y in _two_sphere(x):
            diff = value - state[y]
            pair_total += diff * diff
        outside = sum(1 for y in _two_sphere(x) if y not in support)
        pair_total += outside * value * value
    return pair_total / (16 * q) - state.dot(state) * ((q - 1) ** 2 / (8 * q))


def reference_huygens_sums(state, diff_state, limit):
    """(mass, gradient, kinetic) over depths < limit, walking the 2-spheres
    of the support; gradient runs over ordered pairs."""
    q, mode = state.q, state.mode
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
        # the mirrored ordered pairs whose first end is off the support
        gradient = gradient + value * value * scalar_from_fraction(outside, q, mode)
    kinetic = zero
    for x, value in diff_state.items():
        if x.depth < limit:
            kinetic = kinetic + value * value
    return mass, gradient, kinetic


def reference_radial_dot(p1, p2):
    total = scalar_zero(p1.q, p1.mode)
    for m, value in p1.items():
        total = total + value * p2[m] * scalar_from_fraction(sphere_volume(p1.q, m), p1.q, p1.mode)
    return total


def reference_radial_kinetic(plus, minus):
    diff = plus - minus
    eighth = scalar_from_fraction(Fraction(1, 8), diff.q, diff.mode)
    return reference_radial_dot(diff, diff) * eighth


def reference_radial_potential_pair(state):
    q, mode = state.q, state.mode
    pair_total = scalar_zero(q, mode)
    for m in range(state.support_radius() + 3):
        shell = scalar_from_fraction(sphere_volume(q, m), q, mode)
        for r, count in distance_counts(q, m, 2).items():
            diff = state[m] - state[r]
            pair_total = pair_total + shell * scalar_from_fraction(count, q, mode) * diff * diff
    pair_weight = scalar_from_fraction(Fraction(1, 16 * q), q, mode)
    mass_weight = scalar_from_fraction(Fraction((q - 1) ** 2, 8 * q), q, mode)
    return pair_total * pair_weight - reference_radial_dot(state, state) * mass_weight


def reference_radial_huygens_sums(state, diff_state, limit):
    q, mode = state.q, state.mode
    zero = scalar_zero(q, mode)
    mass = gradient = kinetic = zero
    for m in range(max(limit, 0)):
        shell = scalar_from_fraction(sphere_volume(q, m), q, mode)
        mass = mass + state[m] * state[m] * shell
        kinetic = kinetic + diff_state[m] * diff_state[m] * shell
        for r, count in distance_counts(q, m, 2).items():
            if r < limit:
                diff = state[m] - state[r]
                gradient = gradient + shell * scalar_from_fraction(count, q, mode) * diff * diff
    return mass, gradient, kinetic


def _distance_levels(center, depth):
    """Vertices grouped by distance 0..depth from ``center`` (tree walk)."""
    levels = [[center]]
    frontier = [(center, None)]
    for _ in range(depth):
        next_frontier = []
        for vertex, previous in frontier:
            for nb in vertex.neighbors():
                if previous is None or nb != previous:
                    next_frontier.append((nb, vertex))
        levels.append([vertex for vertex, _ in next_frontier])
        frontier = next_frontier
    return levels


def reference_m_operator(n, f):
    """The ball walk: every data value, weighted, spread over its spheres."""
    weight = sqrt_q_power(f.q, -n, f.mode)
    zero = scalar_zero(f.q, f.mode)
    out = {}
    for vertex, value in f.items():
        spread = value * weight
        levels = _distance_levels(vertex, n)
        for d in range(n % 2, n + 1, 2):
            for target in levels[d]:
                out[target] = out.get(target, zero) + spread
    return TreeFunction(f.q, f.mode, out)


def reference_add(f, g):
    """f + g for any of the three containers, by a dictionary loop."""
    values = dict(f.items())
    for key, value in g.items():
        values[key] = values.get(key, scalar_zero(f.q, f.mode)) + value
    return type(f)(f.q, f.mode, values)


def reference_neg(f):
    return type(f)(f.q, f.mode, [(key, -value) for key, value in f.items()])


def reference_sub(f, g):
    return reference_add(f, reference_neg(g))


def reference_scale(f, factor):
    return type(f)(f.q, f.mode, [(key, value * factor) for key, value in f.items()])


def reference_radial_convolve(kernel, p):
    q, mode = p.q, p.mode
    out = {}
    zero = scalar_zero(q, mode)
    for d, kv in kernel.items():
        for r, pv in p.items():
            pair = kv * pv
            for m in range(abs(d - r), d + r + 1, 2):
                count = distance_count(q, m, d, r)
                if count:
                    out[m] = out.get(m, zero) + pair * scalar_from_fraction(count, q, mode)
    return RadialProfile(q, mode, out)


def reference_radial_adjacency(p):
    q = p.q
    entries = {}
    for m in range(p.support_radius() + 2):
        if m == 0:
            entries[0] = scalar_from_fraction(q + 1, q, p.mode) * p[1]
        else:
            entries[m] = p[m - 1] + scalar_from_fraction(q, q, p.mode) * p[m + 1]
    return RadialProfile(q, p.mode, entries)


def reference_radial_step(previous, current):
    weight = sqrt_q_power(current.q, -1, current.mode)
    return reference_sub(reference_scale(reference_radial_adjacency(current), weight), previous)


# -- data -----------------------------------------------------------------------


def surd_data(q, rng, radius=None, density=0.5):
    """Values a + b*sqrt(q) with b != 0 and mixed denominators, inside a
    ball of radius <= 3 (2 for q = 9, whose ball of radius 3 has 911
    vertices)."""
    if radius is None:
        radius = 2 if q == 9 else 3
    entries = []
    for vertex in Ball(q, radius):
        if rng.random() < density:
            a = Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 4, 6)))
            b = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 5, 7)))
            entries.append((vertex, QSurd(a, b, q)))
    return TreeFunction(q, EXACT, entries)


def float_data(q, rng, radius=1):
    """Nonzero float values on the ball of the given radius."""
    entries = [(vertex, rng.uniform(0.1, 1.0) * rng.choice((-1, 1))) for vertex in Ball(q, radius)]
    return TreeFunction(q, FLOAT, entries)


def surd_profile(q, rng, radius=2):
    """A radial profile with values a + b*sqrt(q), b != 0, mixed denominators."""
    entries = []
    for m in range(radius + 1):
        a = Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3)))
        b = Fraction(rng.choice((-1, 1, 2)), rng.choice((1, 5)))
        entries.append((m, QSurd(a, b, q)))
    return RadialProfile(q, EXACT, entries)


def surd_heights(q, rng, radius):
    """A height sequence with values a + b*sqrt(q), b != 0, mixed
    denominators, on about two thirds of the heights -radius..radius."""
    entries = []
    for h in range(-radius, radius + 1):
        if rng.random() < 0.7:
            a = Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 4)))
            b = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 5, 7)))
            entries.append((h, QSurd(a, b, q)))
    return HeightSequence(q, EXACT, entries)


def sparse_data(q, rng, depth, count=3):
    """A few values a + b*sqrt(q) at depth `depth` and one level above it,
    none near the origin."""
    ball = [v for v in Ball(q, depth) if v.depth >= depth - 1]
    return TreeFunction(
        q,
        EXACT,
        [
            (v, QSurd(Fraction(rng.randint(1, 5), rng.choice((1, 3))), Fraction(-1, 2), q))
            for v in rng.sample(ball, count)
        ],
    )


def close(value, reference, rel=1e-12):
    return abs(value - reference) <= rel * abs(reference)


def bits(f):
    return {vertex: value.hex() for vertex, value in f.value_map().items()}


def radial_bits(p):
    return {m: value.hex() for m, value in p.items()}


def fresh(f):
    """The same function rebuilt from its value map, with no packed form."""
    return TreeFunction(f.q, f.mode, dict(f.value_map()))


# -- operators -----------------------------------------------------------------


@pytest.mark.parametrize("q", QS)
def test_adjacency_sum_matches_scatter(q):
    rng = random.Random(f"levels:adjacency:{q}")
    for _ in range(3):
        f = surd_data(q, rng)
        assert adjacency_sum(f) == reference_adjacency_sum(f)


@pytest.mark.parametrize("q", QS)
def test_two_step_laplacian_matches_scatter(q):
    rng = random.Random(f"levels:two-step:{q}")
    for _ in range(2):
        f = surd_data(q, rng)
        assert two_step_laplacian(f) == reference_two_step_laplacian(f)


@pytest.mark.parametrize("q", QS)
def test_step_recurrence_forwards_backwards_and_reversed(q):
    rng = random.Random(f"levels:step:{q}")
    u_prev, u_curr = surd_data(q, rng), surd_data(q, rng)
    u_next = step_recurrence(u_prev, u_curr)
    assert u_next == reference_step(u_prev, u_curr)
    # backwards: the same map with the pair swapped
    backwards = step_recurrence(u_curr, u_prev)
    assert backwards == reference_step(u_curr, u_prev)
    # reversed: stepping back from (u_next, u_curr) cancels down to u_prev,
    # on packed operands the kernel itself produced
    assert step_recurrence(u_next, u_curr) == u_prev
    assert step_recurrence(fresh(u_next), fresh(u_curr)) == u_prev


@pytest.mark.parametrize("q", QS)
def test_solved_trajectory_matches_dict_leapfrog(q):
    rng = random.Random(f"levels:solve:{q}")
    f, g = surd_data(q, rng, radius=1), surd_data(q, rng, radius=1)
    reach = 3 if q < 9 else 2
    trajectory = solve(f, g, reach, solver="recurrence")
    half_step = sqrt_q_power(q, -1, EXACT) * QSurd(Fraction(1, 2), 0, q)
    pushed = reference_adjacency_sum(f).scale(half_step)
    expected = {0: f, 1: pushed + g, -1: pushed - g}
    for n in range(1, reach):
        expected[n + 1] = reference_step(expected[n - 1], expected[n])
        expected[-n - 1] = reference_step(expected[-n + 1], expected[-n])
    assert trajectory.snapshots == expected


@pytest.mark.parametrize("q", QS)
def test_energy_sums_match_integer_components(q):
    rng = random.Random(f"levels:energy:{q}")
    f, g = surd_data(q, rng, radius=1), surd_data(q, rng, radius=1)
    trajectory = solve(f, g, 2, solver="recurrence")
    for n in (-1, 0, 1):
        state = trajectory.snapshot(n)
        assert kinetic_energy(trajectory, n) == reference_kinetic(
            trajectory.snapshot(n + 1), trajectory.snapshot(n - 1), q
        )
        assert _potential_pair(state) == reference_potential_pair(state, q)
        assert _potential_two_step(state) == reference_potential_two_step(state, q)
    # rational data at radius 3 away from any trajectory
    state = surd_data(q, rng)
    assert _potential_pair(state) == reference_potential_pair(state, q)
    assert _potential_two_step(state) == reference_potential_two_step(state, q)


# -- the packed form -------------------------------------------------------------


@pytest.mark.parametrize("q", QS)
def test_packed_form_never_changes_equality_hash_or_json(q):
    rng = random.Random(f"levels:cache:{q}")
    f = surd_data(q, rng)
    before = (hash(f), f.to_json(), dict(f.value_map()))
    f._as_levels()
    assert (hash(f), f.to_json(), dict(f.value_map())) == before
    assert f == fresh(f)

    image = adjacency_sum(f)
    reference = reference_adjacency_sum(f)
    assert image == reference and reference == image
    assert hash(image) == hash(reference)
    assert image.to_json() == reference.to_json()
    assert image.items() == reference.items()


@pytest.mark.parametrize("q", (4, 9))
def test_perfect_square_values_fold_and_zeros_are_dropped(q):
    # with sqrt(q) an integer, a + b*sqrt(q) can vanish with a, b != 0; no
    # such value may survive as a stored entry
    rng = random.Random(f"levels:square:{q}")
    f = surd_data(q, rng)
    u_next = step_recurrence(f, adjacency_sum(f))
    assert all(value for value in u_next.value_map().values())
    assert all(value.b == 0 for value in u_next.value_map().values())
    assert u_next == reference_step(f, reference_adjacency_sum(f))
    # (1/sqrt(q)) * adjacency(delta) is 1/root on the unit sphere; written
    # there as sqrt(q)/q, the leapfrog must cancel to the zero function
    curr = TreeFunction.delta(q, EXACT)
    prev = TreeFunction(
        q, EXACT, [(v, QSurd(0, Fraction(1, q), q)) for v in VertexAddress.origin(q).children()]
    )
    assert not step_recurrence(prev, curr)
    assert not step_recurrence(prev, curr)._as_levels().parts[0]


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_trailing_zero_depths_are_trimmed_to_the_canonical_form(mode):
    # thousands of trailing zero depths, in every layout, leave the packed
    # form of the same values without them
    q, zero = 3, 0 if mode is EXACT else 0.0
    rng = random.Random(f"levels:trim:{mode.value}")
    p, f = surd_profile(q, rng, 3), surd_data(q, rng, radius=2)
    s = surd_heights(q, rng, 3)
    if mode is FLOAT:
        p, f, s = p.as_float64(), f.as_float64(), s.as_float64()
    scale = 6 if mode is EXACT else 1  # exact parts also get a common factor to reduce
    for x, pad in ((p, zero), (f, [zero]), (s, [zero, zero])):
        levels = x._as_levels()
        for count in (1, 1000, 4000):
            padded = [levels._map(mul, part, scale) + [pad] * count for part in levels.parts]
            trimmed = type(levels)(q, mode, levels.den * scale, padded)
            assert trimmed.den == levels.den and trimmed.parts == levels.parts
    empty = RadialLevels(q, mode, 5, [[zero] * 4000 for _ in range(2 if mode is EXACT else 1)])
    assert empty.den == 1 and not empty.parts[0]


def test_layout_is_the_canonical_ball_order():
    q = 3
    ball = list(Ball(q, 3))
    f = TreeFunction(q, EXACT, [(v, QSurd(i + 1, 0, q)) for i, v in enumerate(ball)])
    levels = f._as_levels()
    flat = [value for level in levels.parts[0] for value in level]
    assert flat == list(range(1, len(ball) + 1))
    assert list(levels.values()) == ball
    assert not Levels.pack(q, EXACT, {}).parts[0]


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
@pytest.mark.parametrize("q", QS)
def test_snapshot_rows_match_the_value_map_route(q, mode):
    """The CSV text joined per orbit entry is, byte for byte, what
    ``csv.writer`` writes for the rows built vertex by vertex from
    ``items()``, the label word joined by "," ("" at the origin): data of
    radius 0-2 with zeros between nonzero values, their closed and
    recurrence snapshots (with tails beyond the data radius), a restart
    from a snapshot (data with a tail) and the zero function.  One label
    holder serves every state, as in one run."""
    rng = random.Random(f"levels:rows:{q}:{mode.value}")
    steps = 2 if q == 9 else 3
    states = [TreeFunction.zero(q, mode)]
    for radius in range(3):
        f, g = (surd_data(q, rng, radius, density=0.6) for _ in range(2))
        if mode is FLOAT:
            f, g = f.as_float64(), g.as_float64()
        states += [f, fresh(g)]
        for solver in ("closed", "recurrence"):
            states += solve(f, g, steps, solver=solver).snapshots.values()
    u = solve(f, g, 3, solver="recurrence").snapshots
    half = scalar_from_fraction(Fraction(1, 2), q, mode)
    restart = (u[2], (u[3] - u[1]).scale(half))
    for solver in ("closed", "recurrence"):
        states += solve(*restart, 1, solver=solver).snapshots.values()
    levels = [state._as_levels() for state in states]
    assert any(len(x.parts[0]) > x._orbit_radius + 1 for x in levels)  # entries of a tail
    labels = []
    for state in states:
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(
            [",".join(map(str, vertex.labels)), *_scalar_columns(value)]
            for vertex, value in state.items()
        )
        assert _snapshot_rows(state, labels) == expected.getvalue()


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
@pytest.mark.parametrize("q", QS)
def test_from_radial_matches_the_ball_walk(q, mode):
    rng = random.Random(f"levels:from_radial:{q}:{mode.value}")
    for radius in range(-1, 3 if q == 9 else 4):
        entries = []
        for m in range(radius + 1):
            a, b = rng.randint(-4, 4), Fraction(rng.randint(-3, 3), rng.choice((1, 2, 7)))
            value = QSurd(Fraction(a, rng.choice((1, 3, 4))), b, q)
            entries.append((m, value if mode is EXACT else value.to_float()))
        profile = RadialProfile(q, mode, entries)
        walked = TreeFunction(q, mode, [(v, profile[v.depth]) for v in Ball(q, max(radius, 0))])
        packed = TreeFunction.from_radial(profile)
        assert packed == walked and walked._levels is None  # value maps
        assert packed._as_levels().same_as(walked._as_levels())
        assert packed.support_radius() == walked.support_radius() == profile.support_radius()
        assert packed.support_size() == walked.support_size()


# -- routes folded into the packed core -----------------------------------------


@pytest.mark.parametrize("q", QS)
def test_laplacian_tree_matches_scatter(q):
    rng = random.Random(f"levels:laplacian:{q}")
    f = surd_data(q, rng)
    assert laplacian_tree(f) == reference_laplacian_tree(f)
    f = float_data(q, rng, radius=2)
    image, reference = laplacian_tree(f), reference_laplacian_tree(f)
    assert image.support() == reference.support()
    for vertex in image.support():
        assert abs(image[vertex] - reference[vertex]) <= 1e-12 * f.max_abs()


@pytest.mark.parametrize("q", QS)
def test_float_leapfrog_is_bitwise_the_dict_leapfrog(q):
    rng = random.Random(f"levels:float-solve:{q}")
    f, g = float_data(q, rng), float_data(q, rng)
    reach = 3 if q < 9 else 2
    trajectory = solve(f, g, reach, solver="recurrence")
    half_step = sqrt_q_power(q, -1, FLOAT) * 0.5
    pushed = reference_adjacency_sum(f).scale(half_step)
    expected = {0: f, 1: pushed + g, -1: pushed - g}
    for n in range(1, reach):
        expected[n + 1] = reference_step(expected[n - 1], expected[n])
        expected[-n - 1] = reference_step(expected[-n + 1], expected[-n])
    assert trajectory.snapshots.keys() == expected.keys()
    for n, state in expected.items():
        assert bits(trajectory.snapshot(n)) == bits(state)
    assert bits(adjacency_sum(g)) == bits(reference_adjacency_sum(g))
    assert bits(step_recurrence(f, g)) == bits(reference_step(f, g))


@pytest.mark.parametrize("q", QS)
def test_float_energies_and_two_step_match_dict_routes(q):
    rng = random.Random(f"levels:float-energy:{q}")
    f, g = float_data(q, rng), float_data(q, rng)
    trajectory = solve(f, g, 2, solver="recurrence")
    for n in (-1, 0, 1):
        state = trajectory.snapshot(n)
        plus, minus = trajectory.snapshot(n + 1), trajectory.snapshot(n - 1)
        assert close(kinetic_energy(trajectory, n), reference_kinetic_float(plus, minus))
        assert close(_potential_pair(state), reference_potential_pair_float(state, q))
        assert close(_potential_two_step(state), reference_potential_two_step(state, q))
        image, reference = two_step_laplacian(state), reference_two_step_laplacian(state)
        scale = state.max_abs()
        for vertex in image.support() | reference.support():
            assert abs(image[vertex] - reference[vertex]) <= 1e-12 * scale


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_huygens_sums_match_dict_loop(q, mode):
    rng = random.Random(f"levels:huygens:{q}:{mode.value}")
    if mode is EXACT:
        f, g = surd_data(q, rng, radius=1), surd_data(q, rng, radius=1)
    else:
        f, g = float_data(q, rng), float_data(q, rng)
    reach = 4 if q < 9 else 3
    trajectory = solve(f, g, reach, solver="recurrence")
    for n in range(-reach + 1, reach):
        state = trajectory.snapshot(n)
        diff_state = trajectory.snapshot(n + 1) - trajectory.snapshot(n - 1)
        # margins up to |n| + 1 cover empty interiors (margin >= |n|)
        for margin in range(abs(n) + 2):
            report = huygens_report(trajectory, n, margin)
            expected = reference_huygens_sums(state, diff_state, abs(n) - margin)
            found = (report.interior_mass, report.interior_gradient, report.interior_kinetic)
            if mode is EXACT:
                assert found == expected
            else:
                assert all(close(x, y) for x, y in zip(found, expected))
    # limits beyond the support radius, on the packed core directly
    state, plus, minus = f, g, trajectory.snapshot(1)
    radius = max(x.support_radius() for x in (state, plus, minus))
    for limit in range(-1, radius + 4):
        found = state._as_levels().huygens_sums(plus._as_levels(), minus._as_levels(), limit)
        expected = reference_huygens_sums(state, plus - minus, limit)
        if mode is EXACT:
            assert found == expected
        else:
            assert all(close(x, y) for x, y in zip(found, expected))


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_radial_sums_match_qsurd_routes(q, mode):
    rng = random.Random(f"levels:radial:{q}:{mode.value}")
    f, g = surd_profile(q, rng), surd_profile(q, rng)
    if mode is FLOAT:
        f, g = f.as_float64(), g.as_float64()
    trajectory = radial_solve(f, g, 6, solver="recurrence")
    for n in range(-5, 6):
        state = trajectory.snapshot(n)
        plus, minus = trajectory.snapshot(n + 1), trajectory.snapshot(n - 1)
        found = [radial_kinetic_energy(trajectory, n), radial_potential_energy(trajectory, n)]
        expected = [reference_radial_kinetic(plus, minus), reference_radial_potential_pair(state)]
        for margin in (0, 1, abs(n), abs(n) + 1):
            report = huygens_report(trajectory, n, margin)
            found += [report.interior_mass, report.interior_gradient, report.interior_kinetic]
            expected += reference_radial_huygens_sums(state, plus - minus, abs(n) - margin)
        if mode is EXACT:
            assert found == expected
            assert energies(trajectory, n).potential == expected[1]
        else:
            assert all(close(x, y) for x, y in zip(found, expected))
    state, plus, minus = f, g, trajectory.snapshot(1)
    for limit in range(-1, 8):
        found = state._as_levels().huygens_sums(plus._as_levels(), minus._as_levels(), limit)
        expected = reference_radial_huygens_sums(state, plus - minus, limit)
        if mode is EXACT:
            assert found == expected
        else:
            assert all(close(x, y) for x, y in zip(found, expected))


@pytest.mark.parametrize("q", QS)
def test_vertex_and_radial_layouts_agree_on_radial_data(q):
    rng = random.Random(f"levels:layouts:{q}")
    radius, reach = (2, 4) if q < 5 else (1, 3)
    f, g = surd_profile(q, rng, radius), surd_profile(q, rng, radius)
    vertex = solve(TreeFunction.from_radial(f), TreeFunction.from_radial(g), reach, "recurrence")
    radial = radial_solve(f, g, reach, solver="recurrence")
    for n in range(-reach + 1, reach):
        assert energies(vertex, n) == energies(radial, n)
        two_step = potential_energy(vertex, n, "two_step")
        assert two_step == radial_potential_energy(radial, n, "two_step")
        for margin in range(abs(n) + 2):
            assert huygens_report(vertex, n, margin) == huygens_report(radial, n, margin)
    # interior limits beyond the support radius
    packed = [TreeFunction.from_radial(p)._as_levels() for p in (f, g, radial.snapshot(1))]
    profiles = [p._as_levels() for p in (f, g, radial.snapshot(1))]
    for limit in range(-1, radius + reach + 4):
        assert packed[0].huygens_sums(packed[1], packed[2], limit) == profiles[0].huygens_sums(
            profiles[1], profiles[2], limit
        )


# -- the closed-form route on the packed core ------------------------------------

# (source depth, largest n) per q, so that Ball(q, depth + n) stays small
M_REACH = {2: (4, 6), 3: (3, 5), 4: (2, 4), 5: (2, 4), 9: (2, 3)}


@pytest.mark.parametrize("q", QS)
def test_m_operator_matches_ball_walk(q):
    rng = random.Random(f"levels:m-operator:{q}")
    depth, reach = M_REACH[q]
    dense = surd_data(q, rng, radius=min(depth, 2))
    for n in range(1, reach + 1):
        assert m_operator(n, dense) == reference_m_operator(n, dense)
    # sparse data away from the origin, n up to beyond the source depth
    sparse = sparse_data(q, rng, depth)
    for n in range(1, reach + 1):
        assert m_operator(n, sparse) == reference_m_operator(n, sparse)
    single = TreeFunction.delta(q, EXACT, at=max(sparse.support(), key=VertexAddress.sort_key))
    for n in range(1, reach + 1):
        assert m_operator(n, single) == reference_m_operator(n, single)


# -- float64 accuracy: the parity sums against the routes they replaced ------------

# the cases of the float64 gate: data radii and seeds, and the largest n
# per q; the scatter runs while Ball(R + n) holds at most SCATTER_LIMIT
# vertices, which leaves q = 9 n <= 3 at R = 2
FLOAT_RADII, FLOAT_SEEDS = (1, 2), range(4)
FLOAT_REACH = {2: 8, 3: 8, 4: 8, 5: 5, 9: 5}
SCATTER_LIMIT = 40000


def rounded(x):
    """Exact packed data in the same layout, every stored value correctly
    rounded to float64 (``QSurd.to_float``)."""
    rows = [[x._value(slots).to_float() for slots in zip(*row)] for _, row in x._rows()]
    return type(x)(x.q, FLOAT, 1, [x._part(rows)])


def float_error(found, exact):
    """max |found - exact| over every key, over max |exact|: a float64 result
    against the exact one correctly rounded, vertex data widened to one
    layout."""
    found, expected = found._as_levels(), rounded(exact._as_levels())
    if isinstance(expected, Levels):
        radius = max(found._orbit_radius, expected._orbit_radius)
        found, expected = found._widen(radius), expected._widen(radius)
    values = (chain.from_iterable(row[0] for _, row in x._rows()) for x in (found, expected))
    worst = max((abs(x - y) for x, y in zip_longest(*values, fillvalue=0.0)), default=0.0)
    return worst / expected.max_abs() if worst else 0.0


def float_gate(pairs, reach, mean, runs):
    """(largest error of the library, largest error of the other route) of
    float64 M_n, C_n and the propagators at 2 <= n <= reach, on the float64
    copies of exact (f, g) pairs.  The other route composes C_n = (M_n -
    M_(n-2)) / 2 and S_n = M_(n-1) from ``mean(x, n)``, at the n where
    ``runs(f, n)``.  Every library result keeps the layout of the exact one."""
    library = other = 0.0
    for f, g in pairs:
        x, y = f.as_float64(), g.as_float64()
        known = {}

        def composed_mean(v, k):  # M_k v, with M_(-1) = 0 and M_0 the identity
            if k < 1:
                return v if k == 0 else type(v)(v.q, FLOAT)
            if (id(v), k) not in known:
                known[id(v), k] = mean(v, k)
            return known[id(v), k]

        for n in range(2, reach + 1):
            exact = (m_operator(n, f), c_operator(n, f), propagators(n, f, g))
            found = (m_operator(n, x), c_operator(n, x), propagators(n, x, y))
            for value, reference in zip(found, exact):
                assert type(value._as_levels()) is type(reference._as_levels())
            library = max(library, *map(float_error, found, exact))
            if runs(f, n):
                cosine = (composed_mean(x, n) - composed_mean(x, n - 2)).scale(0.5)
                composed = (composed_mean(x, n), cosine, cosine + composed_mean(y, n - 1))
                other = max(other, *map(float_error, composed, exact))
    return library, other


def scattered(x, n):
    return TreeFunction._from_levels(scatter_mean(x._as_levels(), n))


def scatter_fits(f, n):
    return sum(sphere_volume(f.q, d) for d in range(f.support_radius() + n + 1)) <= SCATTER_LIMIT


@pytest.mark.parametrize("q", QS)
def test_float_means_are_as_accurate_as_the_scatter(q):
    """Float64 M_n, C_n and propagators of vertex data read the parity sums
    and are weighted once; against the exact values rounded, their largest
    error over every case is no larger than that of M_n scattered over the
    vertex rows (``scatter.scatter_mean``) over the cases it reaches."""
    pairs = [random_data_pair(q, r, random.Random(s)) for r in FLOAT_RADII for s in FLOAT_SEEDS]
    library, scatter = float_gate(pairs, FLOAT_REACH[q], scattered, scatter_fits)
    assert library <= scatter < 1e-15


@pytest.mark.parametrize("q", (2, 3, 4))
def test_float_means_are_as_accurate_as_the_scatter_on_a_wide_range(q):
    """Values from 1e-12 to 1e12 of both signs on Ball(2), n <= 6, where the
    sphere sums S_p(d-1) - D_x(d-2) of ``_parity_rows`` may cancel.  Both
    routes err by about one rounding of the largest value, each the closer
    on some cases (at q = 4, exact on the integer cases above, the parity
    route's largest error is 2.4e-16 against the scatter's 2.1e-16 at
    n <= 5), so the gate allows the scatter's error plus 2^-53."""
    rng = random.Random(f"levels:float-wide:{q}")

    def wide():
        values = [(v, 10 ** rng.uniform(-12, 12) * rng.choice((-1, 1))) for v in Ball(q, 2)]
        return TreeFunction(q, EXACT, [(v, QSurd(Fraction(x), 0, q)) for v, x in values])

    pairs = [(wide(), wide()) for _ in range(4)]
    library, scatter = float_gate(pairs, 6, scattered, scatter_fits)
    assert library <= scatter + 2**-53 and scatter < 1e-15


@pytest.mark.parametrize("q", QS)
def test_float_profile_means_are_as_accurate_as_the_kernel_convolution(q):
    """Float64 M_n, C_n and propagators of profiles read the parity sums of
    the profile; their largest error against the exact values rounded is no
    larger than that of the convolution with m_kernel(n) summed distance by
    distance (``scatter.loop_convolve``), the route they took before."""

    def pair(radius, rng):
        return random_radial_profile(q, radius, rng), random_radial_profile(q, radius, rng)

    def convolved(p, n):
        return loop_convolve(m_kernel(q, n, FLOAT), p)

    pairs = [pair(r, random.Random(s)) for r in FLOAT_RADII for s in FLOAT_SEEDS]
    library, kernel = float_gate(pairs, FLOAT_REACH[q], convolved, lambda f, n: True)
    assert library <= kernel < 1e-13


@pytest.mark.parametrize("q", QS)
def test_float_closed_radial_solve_is_as_accurate_as_the_loop_convolution(q):
    """Float64 closed radial snapshots convolve the data with the propagator
    kernels by the kernels' parity runs; against the exact snapshots
    rounded, their largest error is no larger than that of the same
    convolutions summed distance by distance (``scatter.loop_convolve``)."""
    library = loop = 0.0
    for radius in FLOAT_RADII:
        for seed in FLOAT_SEEDS:
            rng = random.Random(f"levels:float-closed:{q}:{radius}:{seed}")
            f, g = random_radial_profile(q, radius, rng), random_radial_profile(q, radius, rng)
            x, y = f.as_float64(), g.as_float64()
            exact = radial_solve(f, g, 12, "closed")
            found = radial_solve(x, y, 12, "closed")
            for n in exact.n_values():
                cosine, sine = propagator_kernels(q, n, FLOAT)
                summed = loop_convolve(cosine, x) + loop_convolve(sine, y)
                library = max(library, float_error(found.snapshot(n), exact.snapshot(n)))
                loop = max(loop, float_error(summed, exact.snapshot(n)))
    assert library <= loop < 1e-13


@pytest.mark.parametrize("q", QS)
def test_tree_function_arithmetic_matches_dictionaries(q):
    rng = random.Random(f"levels:arithmetic:{q}")
    f, g = surd_data(q, rng), surd_data(q, rng, radius=1)
    sparse = sparse_data(q, rng, M_REACH[q][0])
    factors = [
        QSurd(Fraction(-3, 4), Fraction(5, 6), q),
        QSurd(Fraction(2, 3), 0, q),
        QSurd(0, Fraction(-1, 7), q),
        QSurd(0, 0, q),
        Fraction(5, 2),
        -1,
    ]
    for x, y in ((f, g), (g, f), (f, sparse), (sparse, g), (f, f)):
        assert x + y == reference_add(x, y)
        assert x - y == reference_sub(x, y)
        assert -x == reference_neg(x)
        for factor in factors:
            exact_factor = factor if isinstance(factor, QSurd) else QSurd(factor, 0, q)
            assert x.scale(factor) == reference_scale(x, exact_factor)
    assert not f - f and not (f - f)._as_levels().parts[0]
    assert f + TreeFunction.zero(q, EXACT) == f
    # packed operands produced by the arithmetic itself
    assert (f + g) - g == f
    assert (-(f - g)).scale(QSurd(2, 0, q)) == reference_scale(reference_sub(g, f), 2)


@pytest.mark.parametrize("q", QS)
def test_float_tree_function_arithmetic_is_bitwise_the_dictionaries(q):
    rng = random.Random(f"levels:float-arithmetic:{q}")
    f, g = float_data(q, rng, radius=2), float_data(q, rng)
    sparse = sparse_data(q, rng, M_REACH[q][0]).as_float64()
    for x, y in ((f, g), (g, f), (f, sparse), (sparse, f)):
        assert bits(x + y) == bits(reference_add(x, y))
        assert bits(x - y) == bits(reference_sub(x, y))
        assert bits(-x) == bits(reference_neg(x))
        for factor in (0.5, -1 / 3, sqrt_q_power(q, -1, FLOAT), 0.0):
            assert bits(x.scale(factor)) == bits(reference_scale(x, factor))


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_profile_and_height_arithmetic_matches_dictionaries(q, mode):
    rng = random.Random(f"levels:indexed-arithmetic:{q}:{mode.value}")
    lone = QSurd(Fraction(1, 3), Fraction(-2, 5), q)
    profiles = [surd_profile(q, rng, radius) for radius in (0, 2, 4)]
    profiles.append(RadialProfile(q, EXACT, [(1, lone), (5, lone)]))
    heights = [surd_heights(q, rng, radius) for radius in (0, 2, 3)]
    heights.append(HeightSequence(q, EXACT, [(-4, lone), (2, lone)]))
    factors = [
        QSurd(Fraction(-3, 4), Fraction(5, 6), q),
        QSurd(Fraction(2, 3), 0, q),
        QSurd(0, Fraction(-1, 7), q),
        QSurd(0, 0, q),
    ]
    if mode is FLOAT:
        profiles = [p.as_float64() for p in profiles]
        heights = [s.as_float64() for s in heights]
        factors = [0.5, -1 / 3, sqrt_q_power(q, -1, FLOAT), 0.0]

    def same(found, reference):
        assert type(found) is type(reference) and found.mode is mode
        return found == reference if mode is EXACT else radial_bits(found) == radial_bits(reference)

    for family in (profiles, heights):
        # cancels family[1] at every key but the one of the added delta
        family.append(reference_add(reference_neg(family[1]), type(family[1]).delta(q, mode, 1)))
        for x in family:
            assert same(-x, reference_neg(x))
            for factor in factors:
                assert same(x.scale(factor), reference_scale(x, factor))
            for y in family:
                assert same(x + y, reference_add(x, y))
                assert same(x - y, reference_sub(x, y))
            assert not x - x and not x + (-x) and not x.scale(factors[-1])
            assert x + type(x)(q, mode) == x
        assert (family[1] + family[-1]).support() == {1}


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_radial_operators_match_qsurd_routes(q, mode):
    """Exact results equal the QSurd routes and float64 ones equal them bit
    for bit.  The kernel of M_n (n >= 2) is stored as one parity run, which
    a float64 convolution reads from the parity sums: it is bitwise M_n."""
    rng = random.Random(f"levels:radial-operators:{q}:{mode.value}")
    profiles = [surd_profile(q, rng, radius) for radius in (0, 1, 3)]
    sparse = RadialProfile(q, EXACT, [(4, QSurd(Fraction(1, 3), Fraction(-2, 5), q))])
    profiles.append(sparse)
    long = surd_profile(q, rng, 8)
    if mode is FLOAT:
        profiles = [p.as_float64() for p in profiles]
        long = long.as_float64()
    weight = sqrt_q_power(q, -1, mode)

    def same(found, reference):
        return found == reference if mode is EXACT else radial_bits(found) == radial_bits(reference)

    for p in profiles:
        assert same(radial_adjacency(p), reference_radial_adjacency(p))
        for previous in profiles:
            assert same(step_recurrence(previous, p), reference_radial_step(previous, p))
        for n in range(-1, 7):
            kernel = m_kernel(q, n, mode)
            if mode is EXACT or n >= 2:
                assert same(radial_convolve(kernel, p), m_operator(n, p))
            if mode is EXACT or n < 2:
                assert same(radial_convolve(kernel, p), reference_radial_convolve(kernel, p))
        for kernel in profiles:
            assert same(radial_convolve(kernel, p), reference_radial_convolve(kernel, p))
        # a kernel longer than the profile, and a profile longer than the kernel
        assert same(radial_convolve(long, p), reference_radial_convolve(long, p))
        assert same(radial_convolve(p, long), reference_radial_convolve(p, long))
        # every radius but 0 cancels, so the flat parts are trimmed
        previous = radial_adjacency(p).scale(weight) - RadialProfile.delta(q, mode)
        cancelled = step_recurrence(previous, p)
        assert same(cancelled, reference_radial_step(previous, p))
        assert cancelled.support_radius() == 0


@pytest.mark.parametrize("q", QS)
def test_exact_convolution_by_parity_runs_matches_the_distance_counts(q):
    # exact profiles read a kernel by its parity runs against the parity
    # sums kept on the profile; the reference adds count by count.  The
    # propagator kernels have one or two runs, random kernels one at every
    # distance; kernels past 2t + 1 = 7 read the sums repeated by parity
    rng = random.Random(f"levels:parity-runs:{q}")
    p = surd_profile(q, rng, 3)
    kernels = [kernel for n in range(-12, 13) for kernel in propagator_kernels(q, n, EXACT)]
    kernels += [surd_profile(q, rng, radius) for radius in (0, 2, 5, 9)]
    for order in (kernels, kernels[::-1]):
        profile = RadialProfile(q, EXACT, p.items())  # keeps no sums yet
        for kernel in order:
            assert radial_convolve(kernel, profile) == reference_radial_convolve(kernel, profile)
    long = surd_profile(q, rng, 8)
    for kernel in kernels[:6] + kernels[-2:]:
        assert radial_convolve(kernel, long) == reference_radial_convolve(kernel, long)
    zero = RadialProfile(q, EXACT)
    assert not radial_convolve(zero, p) and not radial_convolve(kernels[-1], zero)
    assert not radial_convolve(zero, zero) and not radial_convolve(m_kernel(q, -1, EXACT), p)


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_propagator_kernels_are_the_m_kernel_combinations(mode):
    """c_n, built as its two parity runs, is the canonical packed form of
    (m_kernel(|n|) - m_kernel(|n| - 2)) / 2, and s_n that of
    sign(n) m_kernel(|n| - 1); float64 slots are compared bit by bit."""
    for q in QS:
        half = scalar_from_fraction(Fraction(1, 2), q, mode)
        for n in range(-12, 13):
            if n == 0:
                continue
            cosine = (m_kernel(q, abs(n), mode) - m_kernel(q, abs(n) - 2, mode)).scale(half)
            sine = m_kernel(q, abs(n) - 1, mode)
            expected = (cosine, -sine if n < 0 else sine)
            for found, reference in zip(propagator_kernels(q, n, mode), expected):
                new, old = found._as_levels(), reference._as_levels()
                assert new.den == old.den and new.parts == old.parts
                if mode is FLOAT:
                    assert [x.hex() for x in new.parts[0]] == [x.hex() for x in old.parts[0]]
    with pytest.raises(ParameterError, match="'q'"):
        propagator_kernels(1, 3, mode)


@pytest.mark.parametrize("q", QS)
def test_radial_means_need_no_kernel(q):
    """Exact radial M_n and C_n, read from the parity sums kept on the
    profile with no kernel built, are the canonical packed forms of the
    convolutions with m_kernel(n) and with the cosine kernel of
    propagator_kernels(q, n), for |n| <= 40, the zero profile included."""
    rng = random.Random(f"levels:radial-means:{q}")
    profiles = [surd_profile(q, rng, radius) for radius in (0, 3, 8)]
    for p in profiles + [RadialProfile(q, EXACT)]:
        for n in range(-40, 41):
            pairs = [(c_operator(n, p), propagator_kernels(q, n, EXACT)[0])]
            if n >= 1:
                pairs.append((m_operator(n, p), m_kernel(q, n, EXACT)))
            for found, kernel in pairs:
                new, old = found._as_levels(), radial_convolve(kernel, p)._as_levels()
                assert type(new) is type(old) is RadialLevels
                assert new.den == old.den and new.parts == old.parts


@pytest.mark.parametrize("q", QS)
def test_running_sphere_volumes_equal_the_closed_form(q):
    for start in (0, 1, 2):
        for size in (0, 1, 50):
            found = treewave.levels._sphere_volumes(q, start, size)
            assert found == [sphere_volume(q, m) for m in range(start, start + size)]


@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_convolution_counts_equal_distance_count(q):
    """A delta kernel at d convolved with a delta profile at r holds, at
    every radius m, the count (m, d, r) of ``topology.distance_count``: the
    kernel's two parity runs, at d and d - 2, read the sums of the profile
    read as orbit data."""
    one = scalar_from_fraction(1, q, EXACT)
    for d in range(9):
        kernel = RadialLevels.pack(q, EXACT, {d: one})
        for r in range(9):
            image = RadialLevels.pack(q, EXACT, {r: one}).convolve(kernel)
            assert image.den == 1 and not any(image.parts[1])
            assert image.parts[0] == [distance_count(q, m, d, r) for m in range(d + r + 1)]


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_max_abs_of_operator_results_matches_the_value_map_route(q, mode):
    rng = random.Random(f"levels:max-abs:{q}:{mode.value}")
    f, g = surd_data(q, rng, radius=1), surd_data(q, rng, radius=1)
    p, r = surd_profile(q, rng, 3), surd_profile(q, rng, 2)
    s, t = surd_heights(q, rng, 3), surd_heights(q, rng, 2)
    if mode is FLOAT:
        f, g, p, r, s, t = (x.as_float64() for x in (f, g, p, r, s, t))
    half = scalar_from_fraction(Fraction(-1, 2), q, mode)
    results = [adjacency_sum(f), step_recurrence(g, f), f - g, -f, f.scale(half), f - f]
    results += [adjacency_sum(p), step_recurrence(r, p), two_step_laplacian(p), p - r, p - p]
    results += [s + t, s - t, -s, t.scale(half), s - s]
    for x in results:
        assert x._levels is not None and x._store is None
        found = x.max_abs()
        expected = max(map(abs, x.value_map().values()), default=scalar_zero(q, mode))
        assert found == expected and type(found) is type(expected)
        if mode is FLOAT:
            assert found.hex() == expected.hex()


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_integer_m_kernel_equals_the_packed_qsurd_kernel(mode):
    """The kernel built on integers is the canonical packed form of the
    kernel built from scalars, q^(-n/2) at d <= n with n - d even; float64
    slots are compared bit by bit."""
    for q in QS:
        for n in range(13):
            if mode is FLOAT:
                weight = float(q) ** (-n / 2)
            elif n % 2:
                weight = QSurd(0, Fraction(1, q ** ((n + 1) // 2)), q)
            else:
                weight = QSurd(Fraction(1, q ** (n // 2)), 0, q)
            values = {d: weight for d in range(n % 2, n + 1, 2)}
            old = RadialLevels.pack(q, mode, values)
            new = RadialLevels.m_kernel(q, mode, n)
            assert new.den == old.den and new.parts == old.parts
            if mode is FLOAT:
                assert [x.hex() for x in new.parts[0]] == [x.hex() for x in old.parts[0]]
            assert m_kernel(q, n, mode) == RadialProfile(q, mode, values)
    with pytest.raises(ParameterError, match="'q'"):
        m_kernel(1, 3, mode)


@pytest.mark.parametrize("q", QS)
def test_m_operator_and_radial_convolution_agree_across_layouts(q):
    rng = random.Random(f"levels:cross-layout:{q}")
    radius, reach = (2, 4) if q < 5 else (1, 3)
    p = surd_profile(q, rng, radius)
    f = TreeFunction.from_radial(p)
    for n in range(-1, reach + 1):
        via_kernel = radial_convolve(m_kernel(q, n, EXACT), p)
        assert m_operator(n, f) == TreeFunction.from_radial(via_kernel)


@pytest.mark.parametrize("q", (2, 3, 9))
def test_closed_route_takes_no_neighbour_sum(q, monkeypatch):
    rng = random.Random(f"levels:independence:{q}")
    f, g = surd_data(q, rng, radius=1), surd_data(q, rng, radius=1)
    reach = 3 if q < 9 else 2
    leapfrog = solve(f, g, reach, solver="recurrence")
    p, r = surd_profile(q, rng), surd_profile(q, rng)
    expected_profile = reference_radial_convolve(m_kernel(q, 3, EXACT), p)
    radial_leapfrog = radial_solve(p, r, reach, solver="recurrence")
    families = kernel_family_recurrence(q, reach, EXACT)

    def refuse(*args):
        raise AssertionError("a neighbour sum was taken")

    monkeypatch.setattr(treewave.levels, "_adjacent", refuse)
    monkeypatch.setattr(treewave.levels, "_radial_adjacent", refuse)
    monkeypatch.setattr(treewave.radial, "radial_adjacency", refuse)
    # the guard does reach every leapfrog: vertex and radial layouts
    with pytest.raises(AssertionError, match="neighbour sum"):
        step_recurrence(f, g)
    with pytest.raises(AssertionError, match="neighbour sum"):
        solve(f, g, reach, solver="recurrence")
    with pytest.raises(AssertionError, match="neighbour sum"):
        radial_solve(p, r, reach, solver="recurrence")

    closed = solve(f, g, reach, solver="closed")
    assert closed.snapshots == leapfrog.snapshots
    assert propagators(-reach, f, g) == leapfrog.snapshot(-reach)
    for n in range(-reach + 1, reach):
        direct, operator_route = equipartition_gap(closed, n)
        assert direct == operator_route
    assert radial_convolve(m_kernel(q, 3, EXACT), p) == expected_profile
    assert m_operator(3, p) == expected_profile
    for n in range(-reach, reach + 1):
        assert propagator_kernels(q, n, EXACT) == families[n]
    assert radial_solve(p, r, reach, solver="closed").snapshots == radial_leapfrog.snapshots


# -- one operator algebra for both layouts ----------------------------------------

# largest data radius + n per q, so that the materialised ball stays small
CROSS_REACH = {2: 7, 3: 6, 4: 5, 5: 5, 9: 4}


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_operators_commute_with_materialisation(data):
    q = data.draw(st.sampled_from(QS), label="q")
    radius = data.draw(st.integers(0, min(3, CROSS_REACH[q] - 1)), label="radius")
    value = st.builds(
        lambda a, b, den: QSurd(Fraction(a, den), Fraction(b, den), q),
        st.integers(-5, 5),
        st.integers(-3, 3),
        st.sampled_from((1, 2, 3, 5)),
    )
    entries = data.draw(st.lists(value, min_size=radius + 1, max_size=radius + 1), label="p")
    p = RadialProfile(q, EXACT, list(enumerate(entries)))
    f = TreeFunction.from_radial(p)
    operators = [adjacency_sum, laplacian_tree, two_step_laplacian]
    for n in range(1, min(4, CROSS_REACH[q] - radius) + 1):
        operators.append(lambda x, n=n: m_operator(n, x))
    for operator in operators:
        image = operator(p)
        assert type(image) is RadialProfile
        assert TreeFunction.from_radial(image) == operator(f)
    potential = _potential_pair(p)
    assert potential == _potential_two_step(p) == _potential_pair(f) == _potential_two_step(f)
