"""The leading parity run of ``treewave.levels``: depths 0 .. a-1 stored as
two values per part, E at even and O at odd depths.

(a) Every operator written on the run gives, on run-form data, what it gives
on the same data stored as rows from depth 0 (``flat``, which no operator
can tell from run-form data but by the work it does); float64 results are
compared bit for bit, zeros' signs included.  A float64 convolution reads
a kernel's stored run from the parity sums and its rows distance by
distance, so there only the profile is flattened.  (b) Equal functions
built by the closed route, the leapfrog, the constructor and a pickle
round trip store the same (D, a, E, O, rows).  (c) A closed snapshot's run
holds the two values of the interior lemma.  (d) A snapshot stores at most
2 + (2R + 2)|S(R)| entries from |n| = 2R + 2 on.

Runs shorter than three depths are stored as rows, so the shortest runs
here have three and four depths; with R = 3 the run ends inside the vertex
rows, and every case has rows after the run.
"""

import pickle
import random
from fractions import Fraction
from itertools import chain
from operator import mul

import pytest

from treewave import radial
from treewave.functions import RadialProfile, TreeFunction
from treewave.levels import RadialLevels, orbit_layout
from treewave.sampling import random_data_pair
from treewave.scalars import QSurd, ScalarMode, scalar_from_fraction, scalar_sum, sqrt_q_power
from treewave.topology import Ball, VertexAddress, sphere_volume
from treewave.wave import propagators, solve

EXACT = ScalarMode.EXACT
FLOAT = ScalarMode.FLOAT64
QS = (2, 3, 4, 5, 9)
CASES = [(q, radius) for q in QS for radius in (0, 1, 2)] + [(2, 3), (3, 3)]


def with_run(layout, q, mode, lead, depth, rng):
    """A function in ``layout`` whose depths 0 .. lead-1 hold one value per
    parity and part, then random rows to ``depth``: the row at depth lead
    ends the run, and the last row is nonzero."""
    sizes = [len(row) for row in layout._fill(0, depth + 1, [0, 0])] if layout else None
    sizes = sizes or [1] * (depth + 1)

    def draw():
        return rng.uniform(-2, 2) if mode is not EXACT else rng.randint(-9, 9)

    parts = []
    for _ in range(1 if mode is not EXACT else 2):
        pair = [draw() or 1, draw() or 2]
        rows = [[pair[d % 2]] * size for d, size in enumerate(sizes[:lead])]
        rows += [[draw() for _ in range(size)] for size in sizes[lead:]]
        rows[lead][0] = pair[lead % 2] + 1  # the run ends here
        rows[-1][-1] = rows[-1][-1] or 3
        parts.append(rows)
    return parts


def vertex_run(q, radius, mode, lead, depth, rng):
    layout = orbit_layout(radius)
    probe = layout(q, mode, 1, [[] for _ in range(1 if mode is not EXACT else 2)])
    parts = with_run(probe, q, mode, lead, depth, rng)
    return layout(q, mode, rng.choice((1, 6, 35)) if mode is EXACT else 1, parts)


def radial_run(q, mode, lead, depth, rng):
    parts = [[row[0] for row in part] for part in with_run(None, q, mode, lead, depth, rng)]
    return RadialLevels(q, mode, rng.choice((1, 6, 35)) if mode is EXACT else 1, parts)


def flat(x):
    """x stored with no run: its rows from depth 0 (a form no constructor
    makes, which every operator reads)."""
    y = object.__new__(type(x))
    y.q, y.mode, y.den, y.lead, y.pairs, y.size = x.q, x.mode, x.den, 0, None, x.size
    y.body = x.parts
    return y


def bits(x):
    """The stored values, a float64 as its hex form (which tells the sign of
    a zero)."""
    values = chain.from_iterable(x._entries(part) for part in x.parts)
    return [value.hex() if isinstance(value, float) else value for value in values]


def same(found, expected):
    """Equal canonical forms and, for float64 results, equal bits."""
    if isinstance(found, (float, QSurd)) or not hasattr(found, "same_as"):
        if isinstance(found, tuple):
            return all(map(same, found, expected))
        if isinstance(found, float):
            return found.hex() == expected.hex()
        return found == expected
    return found.same_as(expected) and bits(found) == bits(expected)


def factors(q, mode, rng):
    """a + b sqrt(q) with both parts nonzero, a pure rational (b = 0) and a
    pure surd (a = 0), one per branch of the exact scaling; a square q folds
    the surd into the rational part.  float64 takes the same three numbers
    rounded."""
    a, b = Fraction(rng.randint(1, 9), 7), Fraction(rng.choice((-2, 1, 3)), 5)
    exact = [QSurd(a, b, q), QSurd(a, 0, q), QSurd(0, b, q)]
    return exact if mode is EXACT else [c.to_float() for c in exact]


def unary_results(x, q, mode, rng):
    """Every one-operand read and operator of a packed function."""
    out = [x.adjacency(), -x, x.laplacian(), x.two_step_laplacian()]
    out += [x.scale(c) for c in factors(q, mode, rng)]
    out += [x.ball_mean(n) for n in range(1, 2 * x.size + 3)]
    out += [x.cosine(n) for n in range(1, 2 * x.size + 3)]
    out += [x.support_size(), x.max_abs(), x.potential_pair(), x.dot(x)]
    return out


def binary_results(x, y):
    out = [x + y, x - y, y - x, x.step(y), y.step(x), x.kinetic(y), x.dot(y)]
    out += [x.huygens_sums(y, x, limit) for limit in range(-1, max(x.size, y.size) + 3)]
    return out


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
@pytest.mark.parametrize("q, radius", CASES)
def test_vertex_operators_on_a_run_equal_them_on_its_rows(q, radius, mode):
    rng = random.Random(f"runs:vertex:{q}:{radius}:{mode.value}")
    for lead in (3, 4, 7):
        for rows in (1, 2, radius + 3):
            x = vertex_run(q, radius, mode, lead, lead + rows - 1, rng)
            other = lead + rng.choice((0, 1, 3))
            y = vertex_run(q, radius, mode, other, other + rows + 1, rng)
            assert x.lead == lead and y.lead >= lead
            state = rng.getstate()
            found = unary_results(x, q, mode, rng)
            rng.setstate(state)
            assert all(map(same, found, unary_results(flat(x), q, mode, rng)))
            assert all(map(same, binary_results(x, y), binary_results(flat(x), flat(y))))
            assert all(map(same, binary_results(y, x), binary_results(flat(y), flat(x))))
            for vertex in rng.sample(list(Ball(q, min(x.size, 3))), 12):
                assert same(x.value_at(vertex), flat(x).value_at(vertex))
            deep = VertexAddress(q, (0,) * (x.size - 1))
            assert same(x.value_at(deep), flat(x).value_at(deep))
            if sphere_volume(q, x.size) <= 3000:  # a listing names every vertex
                assert x.keys() == flat(x).keys() and x.values() == flat(x).values()


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
@pytest.mark.parametrize("q", QS)
def test_radial_operators_on_a_run_equal_them_on_its_rows(q, mode):
    rng = random.Random(f"runs:radial:{q}:{mode.value}")
    for lead in (3, 4, 9):
        for rows in (1, 2, 6):
            x = radial_run(q, mode, lead, lead + rows - 1, rng)
            other = lead + rng.choice((0, 2, 5))
            y = radial_run(q, mode, other, other + rows + 2, rng)
            assert x.lead == lead and y.lead >= lead
            state = rng.getstate()
            found = unary_results(x, q, mode, rng)
            rng.setstate(state)
            assert all(map(same, found, unary_results(flat(x), q, mode, rng)))
            assert all(map(same, binary_results(x, y), binary_results(flat(x), flat(y))))
            for kernel, p in ((x, y), (y, x), (x, x)):
                # float64 reads a kernel's stored run from the parity sums and
                # its rows distance by distance, so only exact kernels are flat
                rows = flat(kernel) if mode is EXACT else kernel
                assert same(p.convolve(kernel), flat(p).convolve(rows))
            for m in range(x.size + 2):
                assert same(x.value_at(m), flat(x).value_at(m))
            assert x.keys() == flat(x).keys() and x.values() == flat(x).values()


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_kernels_are_runs_built_in_one_step(mode):
    """c_n and m_n, built as runs, are the canonical forms of their rows."""
    for q in QS:
        for n in range(1, 60):
            for kernel in (RadialLevels.m_kernel(q, mode, n), RadialLevels.c_kernel(q, mode, n)):
                rows = type(kernel)(q, mode, kernel.den, kernel.parts)
                assert same(kernel, rows) and kernel.size == n + 1
                if n >= 3:  # a shorter run is stored as rows
                    assert kernel.lead >= n and sum(map(len, kernel.body)) <= len(kernel.body)


def zero_run(layout, q, lead, depth, zero, rng):
    """float64 rows (one part) whose depths 0 .. lead-1 hold the zero
    ``zero`` at the depths of one parity and a random value at the other,
    and whose depth lead holds that zero with the other sign in its first
    entry (equal in value, so only a sign ends the run), then random rows."""
    sizes = [len(row) for row in layout._fill(0, depth + 1, [0, 0])] if layout else None
    sizes = sizes or [1] * (depth + 1)
    pair = [zero, rng.uniform(-2, 2)] if lead % 2 == 0 else [rng.uniform(-2, 2), zero]
    rows = [[pair[d % 2]] * size for d, size in enumerate(sizes[:lead])]
    rows.append([-zero] + [zero] * (sizes[lead] - 1))
    rows += [[rng.uniform(-2, 2) for _ in range(size)] for size in sizes[lead + 1 :]]
    return [rows]


@pytest.mark.parametrize("q, radius", [(2, 0), (3, 0), (2, 1), (3, 2), (2, 3)])
def test_float_zeros_repeat_with_their_sign(q, radius):
    """A float64 run repeats a zero only with its sign: data whose zeros
    change sign read back bit for bit, and every operator on them equals
    the same operator on their rows, zeros' signs included."""
    rng = random.Random(f"runs:zeros:{q}:{radius}")
    layout = orbit_layout(radius)
    probe = layout(q, FLOAT, 1, [[]])
    for lead in (3, 4, 5, 8):
        for zero in (0.0, -0.0):
            depth = lead + 3
            radial = [[row[0] for row in zero_run(None, q, lead, depth, zero, rng)[0]]]
            vertex = zero_run(probe, q, lead, depth, zero, rng)
            for x in (layout(q, FLOAT, 1, vertex), RadialLevels(q, FLOAT, 1, radial)):
                assert x.lead == lead
                rows = type(x)(q, FLOAT, 1, x.parts)
                assert bits(rows) == bits(x) and rows.lead == lead
                state = rng.getstate()
                found = unary_results(x, q, FLOAT, rng)
                rng.setstate(state)
                assert all(map(same, found, unary_results(flat(x), q, FLOAT, rng)))
                assert all(map(same, binary_results(x, -x), binary_results(flat(x), flat(-x))))


def stored(levels):
    """The entries a packed function stores: E and O of a run, then rows."""
    return (2 if levels.lead else 0) + sum(map(len, levels.body[0]))


def run_key(x):
    """(D, a, E, O, rows) of a packed function."""
    levels = x._as_levels()
    return levels.den, levels.lead, levels.runs, levels.body


@pytest.mark.parametrize("q, radius", CASES)
def test_equal_functions_store_one_run_by_every_route(q, radius):
    f, g = random_data_pair(q, radius, random.Random(5))
    reach = 2 * radius + 6
    closed = solve(f, g, reach, solver="closed")
    leapfrog = solve(f, g, reach, solver="recurrence")
    for n in closed.n_values():
        x = closed.snapshot(n)
        levels = x._as_levels()
        tripled = [levels._map(mul, part, 3) for part in levels.parts]
        rebuilt = type(levels)(q, EXACT, levels.den * 3, tripled)
        for other in (leapfrog.snapshot(n), TreeFunction._from_levels(rebuilt)):
            assert run_key(other) == run_key(x) and other == x
        if x.support_size() <= 3000:  # listed, rebuilt from the values and pickled
            copies = [TreeFunction(q, EXACT, x.items()), pickle.loads(pickle.dumps(x))]
            for other in copies + [leapfrog.snapshot(n)]:
                assert hash(other) == hash(x) and other == x
            wide = copies[1]._as_levels()._orbit_radius  # packed from its values
            assert run_key(copies[1]) == run_key(TreeFunction._from_levels(levels._widen(wide)))
        if abs(n) >= radius + 4:
            assert x._as_levels().lead >= abs(n) - radius - 1


def parity_sums(f):
    """(sum over even depths, sum over odd depths) of f's values."""
    zero = scalar_from_fraction(0, f.q, f.mode)
    sums = [zero, zero]
    for vertex, value in f.items():
        sums[vertex.depth % 2] = sums[vertex.depth % 2] + value
    return sums


@pytest.mark.parametrize("q, radius", CASES)
def test_closed_snapshot_runs_hold_the_interior_lemma(q, radius):
    """u(x, n) = q^(-|n|/2) [ (1-q)/2 F_p + sign(n) sqrt(q) G_(1-p) ] at
    |x| <= |n| - R - 2, p = (|n| - |x|) mod 2: the run's two values."""
    f, g = random_data_pair(q, radius, random.Random(7))
    big_f, big_g = parity_sums(f), parity_sums(g)
    half = scalar_from_fraction(Fraction(1 - q, 2), q, EXACT)
    root = sqrt_q_power(q, 1, EXACT)
    for n in range(radius + 2, radius + 9):
        for sign in (1, -1):
            lemma = []
            for p in (n % 2, (n - 1) % 2):
                value = half * big_f[p] + root * big_g[1 - p] * scalar_from_fraction(sign, q, EXACT)
                lemma.append(value * sqrt_q_power(q, -n, EXACT))
            x = solve(f, g, (min(0, sign * n), max(0, sign * n))).snapshot(sign * n)
            levels = x._as_levels()
            for d in range(n - radius - 1):
                vertex = VertexAddress(q, (0,) * d)
                assert x[vertex] == lemma[d % 2]
            if levels.lead:
                assert levels.lead >= n - radius - 1
                assert [levels._value(values) for values in zip(*levels.runs)] == lemma


@pytest.mark.parametrize("q, radius", CASES)
def test_a_snapshot_stores_a_bounded_number_of_entries(q, radius):
    f, g = random_data_pair(q, radius, random.Random(11))
    bound = 2 + (2 * radius + 2) * sphere_volume(q, radius)
    for n in (2 * radius + 2, 2 * radius + 3, 2 * radius + 8, 60, 600):
        for x in (propagators(n, f, g), propagators(-n, f, g)):
            assert stored(x._as_levels()) <= bound, n
    u = solve(f, g, (0, 2 * radius + 10), solver="recurrence")
    for n in range(2 * radius + 2, 2 * radius + 11):
        assert stored(u.snapshot(n)._as_levels()) <= bound, n


def test_a_radial_closed_solve_convolves_once_per_time(monkeypatch):
    """u(-n) = C_n f - S_n g: a closed radial solve over (-N, N) convolves
    each datum once per |n|, and equals the leapfrog."""
    rng = random.Random(13)
    f = RadialProfile(3, EXACT, [(m, QSurd(rng.randint(-3, 3), 1, 3)) for m in range(5)])
    g = RadialProfile(3, EXACT, [(m, QSurd(1, rng.randint(-3, 3), 3)) for m in range(5)])
    calls, convolve = [], radial.radial_convolve
    monkeypatch.setattr(radial, "radial_convolve", lambda k, p: calls.append(p) or convolve(k, p))
    closed = radial.radial_solve(f, g, 12, solver="closed")
    assert len(calls) == 2 * 13
    assert closed.snapshots == radial.radial_solve(f, g, 12, solver="recurrence").snapshots


def _sequential(values, zero):
    total = zero
    for value in values:
        total = total + value
    return total


def _keys(u, rng, depths):
    """Random vertices at the given depths, and each depth's first vertex."""
    q, keys = u.q, []
    for depth in depths:
        for pick in (lambda k: 0, lambda k: rng.randrange(k)):
            labels = [pick(q + 1)] + [pick(q) for _ in range(depth - 1)]
            keys.append(VertexAddress(q, tuple(labels[:depth])))
    return keys


@pytest.mark.parametrize("q", (2, 4))
@pytest.mark.parametrize("mode", (EXACT, FLOAT))
def test_a_summed_read_equals_the_sum_of_single_reads(q, mode):
    # keys in the run, in the rows (all beyond R: the tail) and past the
    # last stored depth of a snapshot at |n| = 200, and keys of other types;
    # keys up to and beyond R of data from the constructor, which is not
    # packed; float64 bit for bit
    rng = random.Random(f"sum_at:{q}")
    f, g = random_data_pair(q, 2, random.Random(5))
    if mode is FLOAT:
        f, g = f.as_float64(), g.as_float64()
    u = propagators(200, f, g)
    levels, zero = u._as_levels(), QSurd.zero(q) if mode is EXACT else 0.0
    assert levels.lead > 3 and levels.size > levels.lead + 3
    depths = [0, 1, 2, 3, levels.lead - 1, levels.lead, levels.size - 1, levels.size + 2]
    keys = _keys(u, rng, depths) + [VertexAddress(3, ()), 1.5]
    built = TreeFunction(q, mode, f.items())
    for function, keys in ((u, keys), (built, _keys(f, rng, range(4)))):
        single = [function[key] for key in keys]
        found = function.sum_at(keys)
        assert found == _sequential(single, zero) == scalar_sum(single, q, mode)
        assert found == scalar_sum(map(function.__getitem__, keys), q, mode)
        if mode is FLOAT:
            assert found.hex() == _sequential(single, zero).hex()
        else:
            assert isinstance(found, QSurd) and found.q == q
        assert function.sum_at([]) == zero and type(function.sum_at([])) is type(zero)
    assert built._levels is None  # the constructor's data were read unpacked
