"""The tail of the orbit layout of ``treewave.levels`` against its vertex rows.

Data supported in Ball(R) are packed in the orbit layout of radius R, and
both routes of ``solve`` stay there: the leapfrog steps in it, and the
closed route takes M_n in it from parity sums (``_parity_rows``, which are
also compared with sums over ``topology.distance``), tail or not.  Their
snapshots are compared here with routes that never use a tail: the
leapfrog on data packed in the orbit layout of a radius past every depth
the test reaches (``full_leapfrog``), where every operator takes its
vertex branch, ``propagators`` with every M_n scattered over the vertex
rows (``scatter.scatter_mean``, which is also compared with the parity
sums directly, exactly and in float64) and the kernel sums of
``evaluate_kernel_solution`` at single vertices.  Every read of a snapshot
(slots, support, serialization, hashing, energies) is compared with the
same read of its vertex rows, and the listing reads of all three layouts,
which take each stored entry once, with a read of every position of the
widened rows.
Exact data are irrational with mixed denominators.  Float64 leapfrog
snapshots are compared bit for bit; float64 M_n and closed snapshots, whose
sums run in another order than the scatter's, are compared with a relative
tolerance and keep the orbit radius of their data.
"""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treewave.levels
from treewave.energy import (
    _potential_pair,
    _potential_two_step,
    energies,
    huygens_report,
    total_energy,
    total_energy_closed_form,
)
from treewave.experiment import _snapshot_rows
from treewave.functions import HeightSequence, RadialProfile, TreeFunction
from treewave.laplacians import two_step_laplacian
from treewave.levels import Levels, RadialLevels, _vertex_index, orbit_layout
from treewave.radial import (
    evaluate_kernel_solution,
    propagator_kernels,
    radial_convolve,
    radial_solve,
)
from treewave.sampling import random_data_pair, random_radial_profile
from treewave.scalars import QSurd, ScalarMode, scalar_from_fraction, sqrt_q_power
from treewave.topology import Ball, VertexAddress, distance, sphere_volume
from treewave.transforms import abel
from treewave.wave import (
    WaveTrajectory,
    _leapfrog,
    adjacency_sum,
    c_operator,
    m_operator,
    propagators,
    solve,
    step_recurrence,
)

from scatter import full_rows, scatter_mean

EXACT = ScalarMode.EXACT
FLOAT = ScalarMode.FLOAT64
QS = (2, 3, 4, 5, 9)
RADII = (0, 1, 2, 3)
# the full ball Ball(R + |n|) of the compared snapshots stays below this
# size, which takes q = 9 with R = 3 to |n| = 1; the reads, energies and
# kernel sums of every snapshot go to the smaller READ_LIMIT (and |n| >= 1)
BALL_LIMIT, READ_LIMIT = 9000, 2000


def ball_size(q, radius):
    return sum(sphere_volume(q, d) for d in range(radius + 1))


def reach_for(q, radius, limit=BALL_LIMIT):
    """The largest |n| whose full ball fits, or 0 where none beyond n = 0 does."""
    n = 0
    while ball_size(q, radius + n + 1) <= limit:
        n += 1
    return n


def read_reach(q, radius):
    return max(reach_for(q, radius, READ_LIMIT), 1)


CASES = [(q, radius) for q in QS for radius in RADII if reach_for(q, radius) >= 1]


def data_on_ball(q, radius, rng, mode=EXACT, density=0.7):
    """Values on Ball(radius), with one vertex of depth ``radius`` nonzero so
    that the data radius is exactly ``radius``: a + b*sqrt(q) with b != 0
    and mixed denominators, or floats."""

    def draw():
        if mode is not EXACT:
            return rng.uniform(0.1, 1.0) * rng.choice((-1, 1))
        a = Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 4)))
        b = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 5, 7)))
        return QSurd(a, b, q)

    vertices = list(Ball(q, radius))
    entries = [(v, draw()) for v in vertices if rng.random() < density]
    entries.append((rng.choice([v for v in vertices if v.depth == radius]), draw()))
    return TreeFunction(q, mode, entries)


def vertex_rows(x, radius):
    """x, built in Ball(radius), packed in the orbit layout of that radius:
    no depth it reaches passes the radius, so it is held in vertex rows."""
    levels = x._as_levels()
    return TreeFunction._from_levels(orbit_layout(radius)(x.q, x.mode, levels.den, levels.parts))


def full_radius(f, g, reach):
    """A radius past every depth the leapfrog to |n| = reach reaches."""
    return max(f.support_radius(), g.support_radius(), 0) + reach + 1


def full_leapfrog(f, g, reach):
    """The leapfrog on vertex rows, from data packed in the orbit layout of
    ``full_radius``."""
    q, mode = f.q, f.mode
    f, g = (vertex_rows(x, full_radius(f, g, reach)) for x in (f, g))
    half_step = sqrt_q_power(q, -1, mode) * scalar_from_fraction(Fraction(1, 2), q, mode)
    pushed = adjacency_sum(f).scale(half_step)
    return _leapfrog(f, g, pushed, -reach, reach, step_recurrence)


def radius_of(x):
    """The radius of the orbit layout x is packed in."""
    return x._as_levels()._orbit_radius


def bits(f):
    return {vertex: value.hex() for vertex, value in f.value_map().items()}


def one_descendant(a, depth, rng):
    """A vertex at ``depth`` below a, picked at random."""
    labels = a.labels + tuple(rng.randrange(a.q) for _ in range(depth - a.depth))
    if a.depth == 0 and depth > 0:
        labels = (rng.randrange(a.q + 1),) + labels[1:]
    return VertexAddress(a.q, labels)


def random_orbit(q, radius, depth, rng):
    """An orbit function of the given radius, stored to ``depth``, built
    directly from random entries; the last depth is nonzero."""
    rows = [sphere_volume(q, min(d, radius)) for d in range(depth + 1)]
    den = rng.choice((1, 6, 35))
    parts = [
        [[rng.choice((0, rng.randint(-9, 9))) for _ in range(size)] for size in rows]
        for _ in range(2)
    ]
    parts[0][depth][-1] = 5  # the last entry of the last depth is nonzero
    return orbit_layout(radius)(q, EXACT, den, parts)


# -- the leapfrog -------------------------------------------------------------


@pytest.mark.parametrize("q, radius", CASES)
def test_orbit_leapfrog_equals_the_full_leapfrog_and_the_closed_route(q, radius):
    rng = random.Random(f"orbit:exact:{q}:{radius}")
    f, g = data_on_ball(q, radius, rng), data_on_ball(q, radius, rng)
    reach = reach_for(q, radius)
    orbit = solve(f, g, reach, solver="recurrence")
    full = full_leapfrog(f, g, reach)
    closed = solve(f, g, reach, solver="closed")
    assert orbit.n_values() == sorted(full) == closed.n_values() == list(range(-reach, reach + 1))
    for n in orbit.n_values():
        state = orbit.snapshot(n)
        assert radius_of(state) == radius
        assert radius_of(full[n]) == full_radius(f, g, reach)
        assert state == full[n] == closed.snapshot(n)
        assert full[n] == state  # mixed layouts compare from either side


def scattered_mean(n, x):
    """M_n x for n >= -1 with M_n (n >= 1) scattered over the vertex rows
    (``scatter.scatter_mean``), in the layout of its top depth."""
    if n < 1:
        return x if n == 0 else TreeFunction(x.q, x.mode)
    return TreeFunction._from_levels(scatter_mean(x._as_levels(), n))


def scattered_cosine(n, x):
    """C_n x = (M_|n| x - M_(|n|-2) x) / 2 from ``scattered_mean``."""
    if n == 0:
        return x
    half = scalar_from_fraction(Fraction(1, 2), x.q, x.mode)
    return (scattered_mean(abs(n), x) - scattered_mean(abs(n) - 2, x)).scale(half)


def scattered_propagators(n, f, g):
    """C_n f + S_n g with every M_n scattered over the vertex rows."""
    sine = scattered_mean(abs(n) - 1, g) if n else TreeFunction(g.q, g.mode)
    return scattered_cosine(n, f) + (-sine if n < 0 else sine)


@pytest.mark.parametrize("q", (2, 3, 4))
def test_closed_route_equals_the_propagators_on_the_full_layout(q):
    # the closed route runs in the orbit layout; the propagators composed
    # from the scatter route of M_n take every M_n on the vertex rows
    for radius in (0, 1, 2) if q < 4 else (0, 1):
        rng = random.Random(f"orbit:closed-full:{q}:{radius}")
        f, g = data_on_ball(q, radius, rng), data_on_ball(q, radius, rng)
        closed = solve(f, g, 6, solver="closed")
        for n in range(-6, 7):
            state, expected = closed.snapshot(n), scattered_propagators(n, f, g)
            assert radius_of(state) == radius
            assert radius_of(expected) == radius + abs(n)
            assert state == expected


@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_exact_cosine_equals_the_scattered_mean_difference(q):
    # the one parity combination of C_n against (M_n - M_(n-2)) / 2 from the
    # scatter route, for data of radius R <= 2 with and without a tail and
    # for a restart from u(k), while Ball(R + k + n) fits BALL_LIMIT
    for radius in (0, 1, 2):
        rng = random.Random(f"orbit:cosine:{q}:{radius}")
        f, g = data_on_ball(q, radius, rng), data_on_ball(q, radius, rng)
        u = solve(f, g, 2, solver="recurrence")
        tail = random_orbit(q, radius, radius + 2, rng)
        if q in (4, 9):  # sqrt(q) is folded into A
            zero = [[0] * len(row) for row in tail.parts[0]]
            tail = type(tail)(q, EXACT, tail.den, [tail.parts[0], zero])
        data = [(f, 0), (TreeFunction._from_levels(tail), 2)]
        data += [(u.snapshot(k), k) for k in (1, 2)]
        for x, k in data:
            for n in range(1, 10):
                if ball_size(q, radius + k + n) > BALL_LIMIT:
                    break
                found = c_operator(n, x)
                assert radius_of(found) == radius
                assert found == scattered_cosine(n, x)
                assert c_operator(-n, x) == found


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_orbit_ball_mean_equals_the_full_ball_mean(q):
    # data of radius r <= R, with zero entries, in the orbit layout of R,
    # against the scatter route; 1 <= n <= 8 while the full ball Ball(R + n)
    # holds at most 40000 vertices
    for radius in (0, 1, 2):
        n_max = min(8, reach_for(q, radius, 40000))
        for data_radius in range(radius + 1):
            rng = random.Random(f"orbit:ball-mean:{q}:{radius}:{data_radius}")
            for mode in (EXACT, FLOAT):
                data = data_on_ball(q, data_radius, rng, mode, density=0.6)
                orbit = vertex_rows(data, radius)._as_levels()
                for n in range(1, n_max + 1):
                    found, expected = orbit.ball_mean(n), scatter_mean(orbit, n)
                    assert expected._orbit_radius == data_radius + n
                    assert found._orbit_radius == radius
                    if mode is EXACT:
                        assert full_rows(found).same_as(expected)
                        assert expected.same_as(found)
                    else:  # the same sums, added in another order
                        rows = full_rows(found).parts[0]
                        assert len(rows) == len(expected.parts[0])
                        top = expected.max_abs()
                        for row, other in zip(rows, expected.parts[0]):
                            assert all(abs(x - y) <= 1e-14 * top for x, y in zip(row, other))


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_orbit_ball_mean_with_a_tail_takes_the_expansion(q):
    # stored past its radius, an orbit function's M_n is the scatter route's
    # M_n of the same values, packed from its value map, and keeps its radius
    rng = random.Random(f"orbit:ball-mean-tail:{q}")
    for radius in (0, 1, 2):
        for depth in range(radius + 1, radius + 3):
            orbit = random_orbit(q, radius, depth, rng)
            built = TreeFunction(q, EXACT, dict(TreeFunction._from_levels(orbit).value_map()))
            for n in range(1, 9):
                if ball_size(q, depth + n) > BALL_LIMIT:
                    break
                found = orbit.ball_mean(n)
                assert found._orbit_radius == radius
                assert found.same_as(scatter_mean(built._as_levels(), n))


def brute_parity_rows(q, part, last, radius):
    """The rows of ``_parity_rows`` summed vertex by vertex: per depth e and
    entry i, P(m) for m <= last about one vertex that the entry stands for,
    from ``topology.distance`` to every vertex of the ball."""
    top = len(part) - 1
    rng = random.Random(f"orbit:brute:{q}:{radius}:{top}")
    vertices = list(Ball(q, top))
    value = {y: part[y.depth][_vertex_index(y.labels[:radius], q)] for y in vertices}
    rows = []
    for e in range(top + 1):
        entries = [v for v in vertices if v.depth == min(e, radius)]
        columns = []
        for a in entries:
            x = one_descendant(a, e, rng)
            spheres = [0] * (2 * top + 1)
            for y in vertices:
                spheres[distance(x, y)] += value[y]
            sums = [sum(spheres[m % 2 : m + 1 : 2]) for m in range(last + 1)]
            columns.append(sums)
        rows.append([list(row) for row in zip(*columns)])
    return rows


@pytest.mark.parametrize("q", (2, 3, 4))
def test_parity_rows_equal_the_distance_sums(q):
    # orbit parts with and without a tail, to every distance a stored vertex
    # lies at and one past it, and cut short at a smaller last distance
    rng = random.Random(f"orbit:parity-rows:{q}")
    for radius in (0, 1, 2):
        for depth in range(radius, radius + 3):
            if ball_size(q, depth) > 600:
                break
            part = random_orbit(q, radius, depth, rng).parts[0]
            for last in (1, depth + 1, 2 * depth + 2):
                found = treewave.levels._parity_rows(q, part, last, radius)
                assert found == brute_parity_rows(q, part, last, radius)


@pytest.mark.parametrize("q, radius", [(2, 0), (2, 2), (3, 1), (4, 2), (9, 1)])
def test_ball_mean_of_a_restart_snapshot_equals_the_scatter_route(q, radius):
    # u(k) of a leapfrog is orbit data of radius R with a tail to R + k;
    # its exact M_n keeps R and equals M_n scattered over the vertex rows
    rng = random.Random(f"orbit:restart-mean:{q}:{radius}")
    f, g = data_on_ball(q, radius, rng), data_on_ball(q, radius, rng)
    u = solve(f, g, 4, solver="recurrence")
    for k in range(1, 5):
        snapshot = u.snapshot(k)._as_levels()
        for n in range(1, 6):
            if ball_size(q, radius + k + n) > BALL_LIMIT:
                break
            found = uncached(snapshot).ball_mean(n)
            assert found._orbit_radius == radius
            assert found.same_as(scatter_mean(snapshot, n))


def test_closed_snapshot_at_n_200_equals_the_leapfrog():
    # one closed snapshot costs O(|S(R)| n) on the orbit layout, where the
    # vertex rows would fill Ball(202)
    f, g = random_data_pair(2, 2, random.Random(5))
    leapfrog = solve(f, g, 200, solver="recurrence")
    for n in (-200, 200):
        state = propagators(n, f, g)
        assert radius_of(state) == 2
        assert state == leapfrog.snapshot(n)
        assert state.support_radius() == 202


@pytest.mark.parametrize("q, radius", [(2, 3), (3, 2)])
def test_float_closed_snapshot_at_n_200_keeps_the_orbit_radius(q, radius):
    # float64 M_n and C_n read the parity sums as exact ones do: the snapshot
    # stays in the orbit layout of R, with the exact snapshot's support, and
    # every stored entry is the exact one to 1e-14 relative
    f, g = random_data_pair(q, radius, random.Random(5))
    exact = propagators(200, f, g)._as_levels()
    found = propagators(200, f.as_float64(), g.as_float64())._as_levels()
    assert found._orbit_radius == exact._orbit_radius == radius
    assert found.support_size() == exact.support_size()
    listed, expected = list(found._listing()), list(exact._listing())
    assert len(listed) == len(expected)
    for (d, js, values), (e, ks, slots) in zip(listed, expected):
        assert (d, js) == (e, ks)
        for (value,), slot in zip(values, slots):
            reference = exact._value(slot).to_float()
            assert abs(value - reference) <= 1e-14 * abs(reference)


def test_closed_route_on_built_data_reaches_n_1000_without_packing():
    # f and g as the constructor packs them, in the orbit layout of their
    # radius 3: three closed snapshots at n = 999..1001 give E(1000)
    f, g = random_data_pair(2, 3, random.Random(5))
    snapshots = {n: propagators(n, f, g) for n in (999, 1000, 1001)}
    assert all(radius_of(state) == 3 for state in snapshots.values())
    trajectory = WaveTrajectory(q=2, mode=EXACT, f=f, g=g, snapshots=snapshots)
    assert energies(trajectory, 1000).total == total_energy_closed_form(f, g)


# -- the parity sums kept per datum ---------------------------------------------------


def uncached(levels):
    """The same values in a new packed function, which keeps no parity sums."""
    return type(levels)(levels.q, levels.mode, levels.den, levels.parts)


@pytest.mark.parametrize("q", (2, 3, 9))
def test_kept_parity_sums_give_every_ball_mean_in_any_order(q):
    # M_n of one datum asked in descending, ascending and repeated order,
    # with the sums built for the first n and extended once, equals M_n of
    # a datum that keeps nothing and, while Ball(R + n) holds at most 40000
    # vertices, the scatter route
    for radius in (0, 1, 2):
        rng = random.Random(f"orbit:kept-sums:{q}:{radius}")
        data = data_on_ball(q, radius, rng, density=0.6)._as_levels()
        scatter_max = min(9, reach_for(q, radius, 40000))
        orders = (range(9, 0, -1), range(1, 10), [2, 2, 1, 5, 5, 9, 3, 9, 1])
        for order in orders:
            datum = uncached(data)
            for n in order:
                found = datum.ball_mean(n)
                assert found.same_as(uncached(data).ball_mean(n))
                if n <= scatter_max:
                    assert full_rows(found).same_as(scatter_mean(data, n))
            assert datum.parts == data.parts


def test_kept_parity_sums_enter_no_comparison_copy_or_pickle():
    q = 3
    f = data_on_ball(q, 2, random.Random("orbit:kept-sums:hidden"))
    fresh = TreeFunction(q, EXACT, f.items())
    before = hash(f)
    m_operator(4, f)
    levels = f._as_levels()
    assert levels._sums is not None
    assert f == fresh and fresh == f and hash(f) == hash(fresh) == before
    assert levels.same_as(fresh._as_levels()) and fresh._as_levels().same_as(levels)
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied == f
        assert getattr(copied._as_levels(), "_sums", None) is None
    for copied in (copy.copy(levels), copy.deepcopy(levels)):
        assert copied.same_as(levels)
        assert not hasattr(copied, "_sums")


def test_kept_parity_sums_of_a_profile_enter_no_comparison_copy_or_pickle():
    q = 3
    p = random_radial_profile(q, 4, random.Random("orbit:kept-sums:profile"))
    fresh = RadialProfile(q, EXACT, p.items())
    before = hash(p)
    radial_convolve(propagator_kernels(q, 7, EXACT)[0], p)
    levels = p._as_levels()
    assert levels._sums is not None
    assert p == fresh and fresh == p and hash(p) == hash(fresh) == before
    assert levels.same_as(fresh._as_levels()) and fresh._as_levels().same_as(levels)
    for copied in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert copied == p
        assert getattr(copied._as_levels(), "_sums", None) is None
    for copied in (copy.copy(levels), copy.deepcopy(levels), pickle.loads(pickle.dumps(levels))):
        assert copied.same_as(levels)
        assert not hasattr(copied, "_sums")


def parity_row_calls(monkeypatch):
    """A list that records the part of every ``_parity_rows`` call."""
    calls, parity_rows = [], treewave.levels._parity_rows
    monkeypatch.setattr(
        treewave.levels,
        "_parity_rows",
        lambda q, part, last, orbit: calls.append(part) or parity_rows(q, part, last, orbit),
    )
    return calls


@pytest.mark.parametrize("n_range", ((-6, 6), (0, 6), (-2, 7)))
def test_a_closed_solve_builds_the_parity_sums_once_per_datum(n_range, monkeypatch):
    # each part of each datum is summed once, plus at most one extension
    # when a later n reaches past the first
    f, g = random_data_pair(2, 2, random.Random(7))
    calls = parity_row_calls(monkeypatch)
    closed = solve(f, g, n_range, solver="closed")
    parts = Counter(map(id, calls))
    assert len(parts) <= 2 * 2  # two parts of f and g
    assert max(parts.values()) <= 2  # built and extended at most once
    leapfrog = solve(f, g, n_range, solver="recurrence")
    assert all(closed.snapshot(n) == leapfrog.snapshot(n) for n in closed.n_values())


def test_a_closed_solve_to_n_200_sums_each_datum_once(monkeypatch):
    f, g = random_data_pair(2, 3, random.Random(5))
    calls = parity_row_calls(monkeypatch)
    closed = solve(f, g, (-200, 200), "closed")
    assert len(calls) <= 2 * 2 * 2
    assert max(Counter(map(id, calls)).values()) <= 2
    leapfrog = solve(f, g, (-200, 200), "recurrence")
    assert all(closed.snapshot(n) == leapfrog.snapshot(n) for n in range(-200, 201))


def test_a_closed_restart_from_a_long_snapshot_sums_only_the_distances_it_asks():
    # u(100) is orbit data of radius 3 with a tail to depth 103, so summing
    # it to every distance would reach 207; the restart over (0, 3) asks
    # M_n for n <= 3, and each datum keeps its sums to distance 4
    f, g = random_data_pair(2, 3, random.Random(5))
    k = 100
    u = solve(f, g, (0, k + 1), solver="recurrence")
    half = scalar_from_fraction(Fraction(1, 2), 2, EXACT)
    velocity = (u.snapshot(k + 1) - u.snapshot(k - 1)).scale(half)
    restart = solve(u.snapshot(k), velocity, (0, 3), solver="closed")
    for data in (restart.f, restart.g):
        assert len(data._as_levels().parts[0]) > 100
        assert data._as_levels()._sums[0] <= 4
    assert restart.snapshots == solve(u.snapshot(k), velocity, (0, 3), "recurrence").snapshots
    assert restart.snapshot(1) == u.snapshot(k + 1)


def test_a_closed_radial_solve_sums_each_datum_a_bounded_number_of_times(monkeypatch):
    # the 802 convolutions of a closed solve to n = 400 read the parity sums
    # kept on f and g; each extension at least doubles the distance built,
    # up to 2t + 1 = 9 for profiles of radius t = 4
    rng = random.Random(5)
    f, g = random_radial_profile(2, 4, rng), random_radial_profile(2, 4, rng)
    calls = parity_row_calls(monkeypatch)
    closed = radial_solve(f, g, (0, 400), solver="closed")
    assert len(calls) <= 2 * 2 * ((2 * 4 + 1).bit_length() + 1)
    assert f._as_levels()._sums[0] == g._as_levels()._sums[0] == 9
    assert closed.snapshots == radial_solve(f, g, (0, 400), solver="recurrence").snapshots


@pytest.mark.parametrize("q, radius", CASES)
def test_float_orbit_leapfrog_is_bitwise_the_full_leapfrog(q, radius):
    rng = random.Random(f"orbit:float:{q}:{radius}")
    f, g = data_on_ball(q, radius, rng, FLOAT), data_on_ball(q, radius, rng, FLOAT)
    reach = read_reach(q, radius)
    orbit = solve(f, g, reach, solver="recurrence")
    full = full_leapfrog(f, g, reach)
    for n in orbit.n_values():
        assert radius_of(orbit.snapshot(n)) == radius
        assert bits(orbit.snapshot(n)) == bits(full[n])
    # float64 energies are rounded sums in another order: they agree closely
    trajectory = WaveTrajectory(q=q, mode=FLOAT, f=f, g=g, snapshots=full)
    for orbit_report, full_report in zip(total_energy(orbit)[1], total_energy(trajectory)[1]):
        for x, y in ((orbit_report.kinetic, full_report.kinetic),
                     (orbit_report.potential, full_report.potential)):
            assert abs(x - y) <= 1e-12 * abs(full_report.total)


@pytest.mark.parametrize("q, radius", CASES)
def test_orbit_snapshots_read_like_their_expansion(q, radius):
    rng = random.Random(f"orbit:reads:{q}:{radius}")
    f, g = data_on_ball(q, radius, rng), data_on_ball(q, radius, rng)
    reach = read_reach(q, radius)
    orbit = solve(f, g, reach, solver="recurrence")
    full = full_leapfrog(f, g, reach)
    for n in sorted({-reach, 0, 1}):
        state, expected = orbit.snapshot(n), full[n]
        assert state.support_size() == expected.support_size() == len(expected.value_map())
        assert len(state.value_map()) == expected.support_size()
        assert state.support_radius() == expected.support_radius()
        assert state.max_abs() == expected.max_abs()
        assert state.items() == expected.items()
        assert state.support() == expected.support()
        assert state.to_json() == expected.to_json()
        assert hash(state) == hash(expected)
        assert bool(state) == bool(expected)
        ball = list(Ball(q, radius + abs(n)))
        for x in ball:
            assert state[x] == expected[x]
        for x in rng.sample(ball, min(30, len(ball))):  # the sphere just outside
            y = one_descendant(x, radius + abs(n) + 1, rng)
            assert state[y] == expected[y] == 0
        assert state.dot(g) == expected.dot(g)
    if ball_size(q, radius + 3) <= READ_LIMIT:
        assert m_operator(2, orbit.snapshot(1)) == m_operator(2, full[1])


@pytest.mark.parametrize("q, radius", CASES)
def test_orbit_snapshots_equal_the_kernel_sums_at_every_orbit(q, radius):
    # one vertex per (a, d): a in S(R) (a sample of 40 where S(R) is
    # larger), d beyond R, where a single entry stands for every
    # descendant; and a sample of the ball below
    rng = random.Random(f"orbit:kernel:{q}:{radius}")
    f, g = data_on_ball(q, radius, rng), data_on_ball(q, radius, rng)
    reach = read_reach(q, radius)
    orbit = solve(f, g, reach, solver="recurrence")
    inside = list(Ball(q, radius))
    roots = [v for v in inside if v.depth == radius]
    roots = rng.sample(roots, min(len(roots), 40))
    for n in sorted({-reach, -1, 1, reach}):
        c_kernel, s_kernel = propagator_kernels(q, n, EXACT)
        state = orbit.snapshot(n)
        for x in rng.sample(inside, min(len(inside), 12)):
            assert state[x] == evaluate_kernel_solution(c_kernel, s_kernel, f, g, x)
        for a in roots:
            for depth in range(radius + 1, radius + abs(n) + 2):
                x = one_descendant(a, depth, rng)
                assert state[x] == evaluate_kernel_solution(c_kernel, s_kernel, f, g, x)


@pytest.mark.parametrize("q, radius", CASES)
def test_orbit_energies_equal_the_full_energies(q, radius):
    rng = random.Random(f"orbit:energy:{q}:{radius}")
    f, g = data_on_ball(q, radius, rng), data_on_ball(q, radius, rng)
    reach = read_reach(q, radius)
    orbit = solve(f, g, reach, solver="recurrence")
    trajectory = WaveTrajectory(q=q, mode=EXACT, f=f, g=g, snapshots=full_leapfrog(f, g, reach))
    assert total_energy(orbit) == total_energy(trajectory)
    for n in orbit.interior_times():
        assert energies(orbit, n) == energies(trajectory, n)
        for margin in (0, 1, abs(n) + 1):
            assert huygens_report(orbit, n, margin) == huygens_report(trajectory, n, margin)


# -- orbit functions built directly ----------------------------------------------


@pytest.mark.parametrize("q", QS)
def test_a_tail_whose_last_entry_is_nonzero(q):
    # the pairs of a depth with the depth two below it run past the last
    # stored depth, where the values are 0; so do the pairs of the depth
    # above it.  Dropping them changes the potential but not the kinetic part
    rng = random.Random(f"orbit:tail:{q}")
    for radius in (0, 1, 2):
        for depth in range(radius, radius + 4):
            if ball_size(q, depth + 2) > BALL_LIMIT:
                continue
            orbit, other = random_orbit(q, radius, depth, rng), random_orbit(q, radius, depth, rng)
            u, v = TreeFunction._from_levels(orbit), TreeFunction._from_levels(other)
            x, y = (TreeFunction(q, EXACT, dict(w.value_map())) for w in (u, v))
            assert x._as_levels().parts[0][-1] == full_rows(orbit).parts[0][-1]
            assert _potential_pair(u) == _potential_pair(x) == _potential_two_step(x)
            assert _potential_two_step(u) == _potential_two_step(x)
            assert two_step_laplacian(u) == two_step_laplacian(x)
            assert orbit.kinetic(other) == x._as_levels().kinetic(y._as_levels())
            for limit in range(depth + 4):
                assert orbit.huygens_sums(other, orbit, limit) == x._as_levels().huygens_sums(
                    y._as_levels(), x._as_levels(), limit
                )
            assert u.support_size() == x.support_size()
            assert u.dot(v) == x.dot(y)
            assert u + v == x + y and u - v == x - y


@pytest.mark.parametrize("q", (2, 3))
def test_mixed_radii_meet_in_the_layout_of_the_larger_radius(q):
    rng = random.Random(f"orbit:mixed:{q}")
    f, g = data_on_ball(q, 1, rng), data_on_ball(q, 2, rng)
    u, v = solve(f, f, 3, solver="recurrence"), solve(g, g, 3, solver="recurrence")
    x, y = u.snapshot(3), v.snapshot(3)
    assert radius_of(x) == 1 and radius_of(y) == 2
    sum_ = x + y
    assert radius_of(sum_) == 2
    expected = full_leapfrog(f, f, 3)[3] + full_leapfrog(g, g, 3)[3]
    assert sum_ == expected
    assert x.dot(y) == full_leapfrog(f, f, 3)[3].dot(full_leapfrog(g, g, 3)[3])
    assert step_recurrence(x, y) == step_recurrence(full_leapfrog(f, f, 3)[3], y)


# -- time symmetry on both routes --------------------------------------------------

SYMMETRY_REACH = {2: 4, 3: 3, 4: 2, 5: 2}


def exact_data(data, q, radius):
    value = st.builds(
        lambda a, b, den: QSurd(Fraction(a, den), Fraction(b, den), q),
        st.integers(-5, 5),
        st.integers(-3, 3),
        st.sampled_from((1, 2, 3, 5)),
    )
    vertices = list(Ball(q, radius))
    values = data.draw(st.lists(value, min_size=len(vertices), max_size=len(vertices)))
    return TreeFunction(q, EXACT, list(zip(vertices, values)))


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_time_parity_and_reversibility_on_both_routes(data):
    # u(-n; f, g) = u(n; f, -g), and stepping back from (u(hi), u(hi - 1))
    # returns every snapshot of the trajectory
    q = data.draw(st.sampled_from(sorted(SYMMETRY_REACH)), label="q")
    radius = data.draw(st.integers(0, 2), label="radius")
    f, g = exact_data(data, q, radius), exact_data(data, q, radius)
    reach = SYMMETRY_REACH[q]
    for solver in ("closed", "recurrence"):
        forward, mirrored = solve(f, g, reach, solver), solve(f, -g, reach, solver)
        for n in range(reach + 1):
            assert forward.snapshot(-n) == mirrored.snapshot(n)
        later, current = forward.snapshot(reach), forward.snapshot(reach - 1)
        for n in range(reach - 2, -reach - 1, -1):
            later, current = current, step_recurrence(later, current)
            assert current == forward.snapshot(n)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_energy_is_conserved_and_a_restart_continues_the_trajectory(data):
    # E(n) at every |n| <= 6 equals the closed form in the data; for q <= 3,
    # the Cauchy data (u(k), (u(k+1) - u(k-1))/2) of a later time k, orbit
    # snapshots of a smaller radius than their support, restart the leapfrog
    # and continue u from k - 2 to k + 2
    q = data.draw(st.integers(2, 5), label="q")
    radius = data.draw(st.integers(0, 2), label="radius")
    f, g = exact_data(data, q, radius), exact_data(data, q, radius)
    u = solve(f, g, 7, solver="recurrence")
    reference, reports = total_energy(u)
    assert reference == total_energy_closed_form(f, g)
    assert [report.n for report in reports] == list(range(-6, 7))
    assert all(report.total == reference for report in reports)
    if q <= 3:
        k = data.draw(st.integers(1, 3), label="k")
        half = scalar_from_fraction(Fraction(1, 2), q, EXACT)
        velocity = (u.snapshot(k + 1) - u.snapshot(k - 1)).scale(half)
        restart = solve(u.snapshot(k), velocity, 2, solver="recurrence")
        for m in range(-2, 3):
            assert restart.snapshot(m) == u.snapshot(k + m)


@pytest.mark.parametrize("q, radius", [(2, 1), (3, 1), (2, 2)])
def test_float_restart_from_orbit_snapshots_is_the_restart_from_built_copies(q, radius):
    rng = random.Random(f"orbit:restart:{q}:{radius}")
    f, g = data_on_ball(q, radius, rng, FLOAT), data_on_ball(q, radius, rng, FLOAT)
    u = solve(f, g, 5, solver="recurrence")
    for k in (1, 3):
        start = [u.snapshot(k), (u.snapshot(k + 1) - u.snapshot(k - 1)).scale(0.5)]
        built = [TreeFunction(q, FLOAT, dict(x.value_map())) for x in start]
        assert all(radius_of(x) == x.support_radius() for x in built)
        orbit, full = solve(*start, 2, solver="recurrence"), solve(*built, 2, solver="recurrence")
        for m in range(-2, 3):
            assert radius_of(orbit.snapshot(m)) == radius
            assert bits(orbit.snapshot(m)) == bits(full.snapshot(m))


@pytest.mark.parametrize("k", (2, 16))
def test_a_restart_keeps_the_radius_of_its_data(k):
    # the Cauchy data (u(k), (u(k+1) - u(k-1))/2) of a late time are orbit
    # data of radius 3 with a tail to depth 3 + k + 1; the restarted leapfrog
    # stays in that layout instead of filling Ball(3 + k + 1)
    f, g = random_data_pair(2, 3, random.Random(5))
    u = solve(f, g, (0, k + 1), solver="recurrence")
    half = scalar_from_fraction(Fraction(1, 2), 2, EXACT)
    velocity = (u.snapshot(k + 1) - u.snapshot(k - 1)).scale(half)
    restart = solve(u.snapshot(k), velocity, 1, solver="recurrence")
    for m in (-1, 0, 1):
        assert radius_of(restart.snapshot(m)) == 3
        assert restart.snapshot(m) == u.snapshot(k + m)


def test_the_closed_restart_never_scatters():
    # the closed route of a restart from u(16), orbit data of radius 3 with
    # a tail to depth 19, takes every M_n from parity rows: it keeps radius 3
    # and equals the leapfrog
    f, g = random_data_pair(2, 3, random.Random(5))
    u = solve(f, g, (0, 17), solver="recurrence")
    half = scalar_from_fraction(Fraction(1, 2), 2, EXACT)
    velocity = (u.snapshot(17) - u.snapshot(15)).scale(half)
    restart = solve(u.snapshot(16), velocity, 1, solver="closed")
    for m in (-1, 0, 1):
        assert radius_of(restart.snapshot(m)) == 3
        assert restart.snapshot(m) == u.snapshot(16 + m)


# -- the listing read ----------------------------------------------------------------


def widened_read(levels):
    """key -> scalar of the nonzero values of a packed function, read
    position by position: from the vertex rows (``full_rows``) of vertex data,
    whose positions are those of ``Ball.vertices()``; from the radius of a
    profile entry; from the height d or -d of a sequence entry.  Exact
    values are built from ``Fraction``s."""
    q, den, parts = levels.q, levels.den, levels.parts
    if isinstance(levels, Levels):
        rows = full_rows(levels).parts
        seen = Counter()
        positions = []
        for vertex in Ball(q, len(rows[0]) - 1) if rows[0] else ():
            positions.append((vertex, vertex.depth, seen[vertex.depth]))
            seen[vertex.depth] += 1
        slots = [(key, [part[d][j] for part in rows]) for key, d, j in positions]
    elif isinstance(levels, RadialLevels):
        slots = [(m, [part[m] for part in parts]) for m in range(len(parts[0]))]
    else:
        slots = [
            (-d if j else d, [part[d][j] for part in parts])
            for d in range(len(parts[0]))
            for j in range(len(parts[0][d]))
        ]
    if levels.mode is not EXACT:
        return {key: x for key, (x,) in slots if x}
    return {
        key: QSurd(Fraction(a, den), Fraction(b, den), q) for key, (a, b) in slots if a or b
    }


def listed_functions(q, mode):
    """Packed functions of the three layouts: snapshots of delta data (orbit
    radius 0) and of data on Ball(1) by both routes, with tails; the
    snapshots of a restart from u(2); a radial profile with its leapfrog
    snapshots; a height sequence and the Abel transform of the profile."""
    rng = random.Random(f"orbit:listing:{q}:{mode.value}")
    steps = 2 if q == 9 else 3
    functions = []
    for f, g in (
        (TreeFunction.delta(q, mode), TreeFunction.zero(q, mode)),
        (data_on_ball(q, 1, rng, mode), data_on_ball(q, 1, rng, mode)),
    ):
        for solver in ("closed", "recurrence"):
            functions += solve(f, g, steps, solver=solver).snapshots.values()
    u = solve(f, g, 3, solver="recurrence").snapshots
    half = scalar_from_fraction(Fraction(1, 2), q, mode)
    restart = (u[2], (u[3] - u[1]).scale(half))
    for solver in ("closed", "recurrence"):
        functions += solve(*restart, 1, solver=solver).snapshots.values()
    values = [QSurd(Fraction(rng.randint(-5, 5), 3), rng.choice((0, 1, -2)), q) for _ in range(5)]
    if mode is not EXACT:
        values = [value.to_float() for value in values]
    profile = RadialProfile(q, mode, list(enumerate(values)))
    functions += [profile, *radial_solve(profile, profile, steps, "recurrence").snapshots.values()]
    functions += [HeightSequence(q, mode, zip((0, 2, -2, -3, 1), values)), abel(profile)]
    return functions


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_listing_reads_equal_the_widened_read(q, mode):
    """keys, values, items and support size read per stored entry equal the
    read of every position of the widened rows; the keys of one entry share
    one scalar, and an exact ``values()`` builds one scalar per entry."""
    functions = listed_functions(q, mode)
    tails = [x._as_levels() for x in functions if isinstance(x, TreeFunction)]
    assert any(len(x.parts[0]) > x._orbit_radius + 1 for x in tails)
    for function in functions:
        kind, x = type(function), function._as_levels()
        expected = widened_read(x)
        values = x.values()
        assert x.keys() == list(expected)
        assert list(values.items()) == list(expected.items())
        assert x.support_size() == len(expected)
        order = VertexAddress.sort_key if kind is TreeFunction else None
        items = sorted(expected.items(), key=lambda item: order(item[0]) if order else item[0])
        assert kind._from_levels(x).items() == items
        # one scalar per nonzero stored entry, shared by the keys it stands for
        stored = sum(map(any, zip(*map(x._entries, x.parts))))
        if isinstance(x, Levels):
            radius, entries = x._orbit_radius, {}
            for key, value in values.items():
                entry = (key.depth, _vertex_index(key.labels[:radius], q))
                assert entries.setdefault(entry, value) is value
            assert len(entries) == stored
        if mode is EXACT:
            assert len({id(value) for value in values.values()}) == stored


@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_keys_of_each_depth_list_the_sphere_in_ball_order(q):
    top = 2 if q == 9 else 4
    for radius in (0, 1, 2):
        layout = orbit_layout(radius)(q, EXACT, 1, [[], []])
        every = [(d, range(sphere_volume(q, d) // layout._weight(d))) for d in range(top + 1)]
        listed = list(layout._key_rows(every))
        assert [x for keys in listed for x in keys] == list(Ball(q, top))
        for d, keys in enumerate(listed):
            assert [_vertex_index(x.labels, q) for x in keys] == list(range(len(keys)))
            width = layout._weight(d)
            for j in range(0, len(keys), width):
                # one entry alone, and past depths that list no entry
                (alone,) = layout._key_rows([(d, [j // width])])
                assert alone == keys[j : j + width]


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_listing_reads_never_widen(monkeypatch, mode):
    """keys, values, support size, items, JSON and CSV rows of orbit
    snapshots with tails read the stored entries; ``_widen`` is never
    called."""
    rng = random.Random(f"orbit:no-widen:{mode.value}")
    f, g = data_on_ball(3, 1, rng, mode), data_on_ball(3, 1, rng, mode)
    levels = [
        state._as_levels()
        for solver in ("closed", "recurrence")
        for state in solve(f, g, 4, solver=solver).snapshots.values()
    ]
    assert any(len(x.parts[0]) > x._orbit_radius + 1 for x in levels)
    widened, widen = [], Levels._widen

    def recorded(self, radius):
        widened.append(radius)
        return widen(self, radius)

    monkeypatch.setattr(Levels, "_widen", recorded)
    labels = []
    for x in levels:
        x.keys(), x.values(), x.support_size()
        state = TreeFunction._from_levels(x)
        state.items(), state.to_json(), len(state.value_map())
        list(_snapshot_rows(TreeFunction._from_levels(x), labels))
    assert widened == []
