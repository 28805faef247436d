import copy
import pickle
import random
from collections import Counter, deque

import pytest

from treewave.energy import huygens_report
from treewave.errors import ParameterError, TruncationError
from treewave.functions import TreeFunction, spherical_mean
from treewave.sampling import random_data_pair
from treewave.scalars import QSurd, ScalarMode
from treewave.topology import (
    Ball,
    VertexAddress,
    distance,
    omega,
    sphere,
    sphere_volume,
)
from treewave.wave import asgeirsson_field, asgeirsson_verify, solve


def addr(q, *labels):
    return VertexAddress(q, labels)


def test_distance_examples():
    origin = VertexAddress.origin(2)
    assert distance(origin, origin) == 0
    assert distance(addr(2, 0), addr(2, 0, 0)) == 1
    # "01" vs "1": empty common prefix, 2 + 1 - 0
    assert distance(addr(2, 0, 1), addr(2, 1)) == 3


def test_distance_q_mismatch():
    with pytest.raises(ParameterError):
        distance(VertexAddress.origin(2), VertexAddress.origin(3))


def test_invalid_labels_rejected():
    with pytest.raises(ParameterError):
        addr(2, 3)  # first label may reach q
    addr(2, 2)
    with pytest.raises(ParameterError):
        addr(2, 0, 2)  # later labels stop at q-1
    for text in ("3", "0,2", "-1", "1,0,-1"):
        with pytest.raises(ParameterError):
            VertexAddress.parse(text, 2)
    assert addr(2, 2).child(1) == addr(2, 2, 1)
    for vertex, label in ((VertexAddress.origin(2), 3), (addr(2, 2), 2), (addr(2, 0), -1)):
        with pytest.raises(ParameterError, match="outside"):
            vertex.child(label)


@pytest.mark.parametrize("q", (2, 3))
def test_words_built_valid_equal_the_checked_words(q):
    # children, parents, ball vertices and packed keys skip the label check:
    # each equals, hashes and prints as the word the checking constructor
    # builds
    for vertex in Ball(q, 3):
        checked = VertexAddress(q, vertex.labels)
        assert vertex == checked and hash(vertex) == hash(checked)
        assert repr(vertex) == repr(checked)
        for child in vertex.children():
            assert child == VertexAddress(q, child.labels)
            assert child.parent() == checked
    f = TreeFunction(q, ScalarMode.EXACT, {v: QSurd(1, 0, q) for v in Ball(q, 2)})
    assert f._as_levels().keys() == list(Ball(q, 2))


@pytest.mark.parametrize("q", (2, 3, 4))
def test_built_spheres_equal_the_filtered_ball(q):
    # the sphere is built by climbing and descending; the oracle filters a
    # ball by distance, in the ball's canonical order
    listed = list(Ball(q, 6))
    for x in Ball(q, 2):
        for n in range(5):
            ball = Ball(q, x.depth + n)
            expected = [v for v in listed if v.depth <= ball.radius and distance(x, v) == n]
            found = sphere(x, n, ball)
            assert found == expected and len(found) == sphere_volume(q, n)


def test_vertex_equality_hashing_copy_and_pickle():
    for q in (2, 3):
        for vertex in Ball(q, 2):
            built = VertexAddress._built(q, vertex.labels)
            checked = VertexAddress(q, vertex.labels)
            assert built == checked and not built != checked and hash(built) == hash(checked)
            assert len({built, checked}) == 1
            for again in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
                assert again == checked and hash(again) == hash(checked)
                assert (again.q, again.labels) == (q, vertex.labels)
    # equal words over different trees are different vertices
    assert VertexAddress(2, (0, 1)) != VertexAddress(3, (0, 1))
    assert VertexAddress.origin(2) != VertexAddress.origin(3)
    assert len({VertexAddress.origin(2), VertexAddress.origin(3)}) == 2
    assert VertexAddress.origin(2) != () and VertexAddress.origin(2) != "origin"


def test_height_examples():
    assert VertexAddress.origin(2).height() == 0
    assert addr(2, 0, 0, 0).height() == 3
    assert addr(2, 1).height() == -1
    heights = Counter(v.height() for v in sphere(VertexAddress.origin(2), 1, Ball(2, 1)))
    assert heights == {1: 1, -1: 2}


def test_omega_is_geodesic():
    for j in range(5):
        for k in range(5):
            assert distance(omega(3, j), omega(3, k)) == abs(j - k)
    assert omega(2, 0) == VertexAddress.origin(2)
    assert omega(2, 3).height() == 3


def test_sphere_volumes():
    assert sphere_volume(2, 0) == 1
    assert len(sphere(VertexAddress.origin(2), 1, Ball(2, 1))) == 3
    assert len(sphere(VertexAddress.origin(2), 2, Ball(2, 2))) == 6
    for center in [VertexAddress.origin(3), addr(3, 1), addr(3, 2, 0)]:
        assert len(sphere(center, 2, Ball(3, 4))) == 12


def test_sphere_truncation_error():
    with pytest.raises(TruncationError):
        sphere(addr(2, 1, 0), 3, Ball(2, 4))


def test_ball_count_matches_sphere_sum():
    for q in (2, 3):
        ball = Ball(q, 4)
        assert ball.vertex_count() == sum(
            sphere_volume(q, n) for n in range(5)
        )
        assert ball.vertex_count() == len(list(ball.vertices()))


def test_height_partition_of_spheres():
    # heights present in S(0,n) are exactly {-n, -n+2, ..., n} and the
    # counts over all heights add up to the sphere volume
    for q in (2, 3):
        for n in range(5):
            counts = Counter(
                v.height() for v in sphere(VertexAddress.origin(q), n, Ball(q, n))
            )
            assert sum(counts.values()) == sphere_volume(q, n)
            assert set(counts) == set(range(-n, n + 1, 2))


def test_neighbor_height_orientation():
    # exactly one neighbour one level up, q neighbours one level down
    for q in (2, 3):
        for vertex in Ball(q, 3):
            ups = [nb for nb in vertex.neighbors() if nb.height() == vertex.height() + 1]
            downs = [nb for nb in vertex.neighbors() if nb.height() == vertex.height() - 1]
            assert len(ups) == 1
            assert len(downs) == q


def _bfs_distance(q, radius, source, target):
    seen = {source: 0}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        if vertex == target:
            return seen[vertex]
        for nb in vertex.neighbors():
            if nb.depth <= radius and nb not in seen:
                seen[nb] = seen[vertex] + 1
                queue.append(nb)
    raise AssertionError("target not reached")


def test_distance_agrees_with_bfs():
    rng = random.Random(7)
    ball = list(Ball(3, 4))
    for _ in range(25):
        x, y = rng.choice(ball), rng.choice(ball)
        d = distance(x, y)
        assert d == distance(y, x)
        assert d == _bfs_distance(3, 8, x, y)


def test_triangle_inequality():
    rng = random.Random(11)
    ball = list(Ball(2, 5))
    for _ in range(50):
        x, y, z = (rng.choice(ball) for _ in range(3))
        assert distance(x, z) <= distance(x, y) + distance(y, z)


def test_serialization_round_trip():
    vertex = addr(3, 0, 1, 0)
    assert str(vertex) == "0,1,0"
    assert VertexAddress.parse("0,1,0", 3) == vertex
    assert VertexAddress.parse("", 3) == VertexAddress.origin(3)


def test_canonical_enumeration_is_sorted():
    listed = list(Ball(2, 3))
    assert listed == sorted(listed, key=VertexAddress.sort_key)


def _trajectory():
    return solve(*random_data_pair(2, 1, random.Random(3)), 5)


def _asgeirsson(m, n):
    origin = VertexAddress.origin(2)
    return asgeirsson_verify(asgeirsson_field(_trajectory(), Ball(2, 5)), origin, origin, m, n)


def _huygens(margin):
    return huygens_report(_trajectory(), 4, margin)


def _spherical_mean(n):
    f = TreeFunction.delta(2, ScalarMode.EXACT)
    return spherical_mean(f, VertexAddress.origin(2), n)


REFUSED = {
    "sphere-float-radius": (lambda: sphere(VertexAddress.origin(2), 1.5, Ball(2, 5)), "n"),
    "asgeirsson-float-m": (lambda: _asgeirsson(1.5, 1), "m"),
    "asgeirsson-float-n": (lambda: _asgeirsson(1, 2.0), "n"),
    "vertex-float-label": (lambda: VertexAddress(2, (0.5,)), "labels"),
    "vertex-float-later-label": (lambda: VertexAddress(2, (1, 1.0)), "labels"),
    "vertex-float-q": (lambda: VertexAddress(2.5, ()), "q"),
    "ball-float-radius": (lambda: Ball(2, 2.5), "radius"),
    "ball-bool-radius": (lambda: Ball(2, True), "radius"),
    "spherical-mean-float-radius": (lambda: _spherical_mean(1.5), "n"),
    "huygens-float-margin": (lambda: _huygens(1.5), "shell_margin"),
    "huygens-bool-margin": (lambda: _huygens(True), "shell_margin"),
    "ball-negative-radius": (lambda: Ball(2, -1), "radius"),
    "sphere-negative-radius": (lambda: sphere(VertexAddress.origin(2), -1, Ball(2, 3)), "n"),
    "sphere-volume-negative-radius": (lambda: sphere_volume(2, -1), "n"),
    "sphere-volume-float-radius": (lambda: sphere_volume(2, 1.5), "n"),
    "spherical-mean-negative-radius": (lambda: _spherical_mean(-1), "n"),
    "huygens-negative-margin": (lambda: _huygens(-1), "shell_margin"),
    "vertex-first-label-out-of-range": (lambda: VertexAddress(2, (5,)), "labels"),
    "vertex-later-label-out-of-range": (lambda: VertexAddress(2, (0, 2)), "labels"),
    "child-label-out-of-range": (lambda: VertexAddress.origin(2).child(7), "label"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_non_integer_radii_labels_and_margins_are_refused_naming_the_field(case):
    call, field = REFUSED[case]
    with pytest.raises(ParameterError, match=f"field '{field}'"):
        call()
