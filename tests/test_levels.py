"""The level-array kernel against the dict-scatter routes it replaced.

The reference implementations below are the vertex-dictionary versions of
``adjacency_sum``, ``two_step_laplacian``, the leapfrog step and the
integer-component energy sums.  They walk ``VertexAddress`` neighbours one
by one, so they share no code with ``treewave.levels``.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from treewave.energy import _potential_pair, _potential_two_step, kinetic_energy
from treewave.functions import TreeFunction
from treewave.laplacians import two_step_laplacian
from treewave.levels import Levels
from treewave.scalars import QSurd, ScalarMode, scalar_from_fraction, scalar_zero, sqrt_q_power
from treewave.topology import Ball, VertexAddress
from treewave.wave import adjacency_sum, solve, step_recurrence

EXACT = ScalarMode.EXACT
QS = (2, 3, 4, 5, 9)


# -- reference routes ---------------------------------------------------------


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
    gamma_tilde = QSurd(Fraction((q - 1) ** 2, q * (q + 1)), 0, q)
    shifted = reference_two_step_laplacian(state) - state.scale(gamma_tilde)
    return shifted.dot(state) * QSurd(Fraction(q + 1, 8), 0, q)


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
        assert _potential_pair(state, q, EXACT) == reference_potential_pair(state, q)
        assert _potential_two_step(state, q, EXACT) == reference_potential_two_step(state, q)
    # rational data at radius 3 away from any trajectory
    state = surd_data(q, rng)
    assert _potential_pair(state, q, EXACT) == reference_potential_pair(state, q)
    assert _potential_two_step(state, q, EXACT) == reference_potential_two_step(state, q)


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
    assert not step_recurrence(prev, curr)._as_levels().a


def test_layout_is_the_canonical_ball_order():
    q = 3
    ball = list(Ball(q, 3))
    f = TreeFunction(q, EXACT, [(v, QSurd(i + 1, 0, q)) for i, v in enumerate(ball)])
    levels = f._as_levels()
    flat = [value for level in levels.a for value in level]
    assert flat == list(range(1, len(ball) + 1))
    assert list(levels.values()) == ball
    assert not Levels.pack(q, {}).a
