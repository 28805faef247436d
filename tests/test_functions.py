import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewave.errors import ModeError, ParameterError
from treewave.functions import (
    HeightSequence,
    RadialProfile,
    TreeFunction,
    is_radial,
    radial_profile_of,
    spherical_mean,
)
from treewave.scalars import QSurd, ScalarMode
from treewave.topology import Ball, VertexAddress

EXACT = ScalarMode.EXACT


def exact_tf(q, entries):
    return TreeFunction(
        q, EXACT, [(v, QSurd(val, 0, q)) for v, val in entries]
    )


def test_zero_values_are_dropped():
    origin = VertexAddress.origin(2)
    f = exact_tf(2, [(origin, 0)])
    assert not f
    assert f.support_radius() == -1


def test_spherical_mean_of_delta():
    f = TreeFunction.delta(2, EXACT)
    origin = VertexAddress.origin(2)
    assert spherical_mean(f, origin, 0) == QSurd(1, 0, 2)
    for n in (1, 2, 3):
        assert spherical_mean(f, origin, n).is_zero()


def test_spherical_mean_of_constant():
    # constant on a ball that contains the whole sphere S(x, 2)
    profile = RadialProfile(3, EXACT, [(n, QSurd(5, 0, 3)) for n in range(5)])
    f = TreeFunction.from_radial(profile)
    x = VertexAddress(3, (1, 0))
    assert spherical_mean(f, x, 2) == QSurd(5, 0, 3)


def test_spherical_mean_single_hit():
    # q = 2, f = delta at origin, |x| = 2: one sphere vertex hits, delta(2) = 6
    f = TreeFunction.delta(2, EXACT)
    x = VertexAddress(2, (1, 0))
    assert spherical_mean(f, x, 2) == QSurd(Fraction(1, 6), 0, 2)


def test_spherical_mean_linearity():
    rng = random.Random(3)
    ball = list(Ball(2, 3))
    entries1 = [(v, QSurd(rng.randint(-3, 3), 0, 2)) for v in ball]
    entries2 = [(v, QSurd(rng.randint(-3, 3), 0, 2)) for v in ball]
    f = TreeFunction(2, EXACT, entries1)
    g = TreeFunction(2, EXACT, entries2)
    x = VertexAddress(2, (0, 1))
    for n in range(4):
        assert spherical_mean(f + g, x, n) == spherical_mean(f, x, n) + spherical_mean(g, x, n)


def test_radialize_consistency():
    profile = RadialProfile(
        2, EXACT, [(0, QSurd(2, 0, 2)), (1, QSurd(-1, 0, 2)), (3, QSurd(Fraction(1, 3), 0, 2))]
    )
    f = TreeFunction.from_radial(profile)
    assert is_radial(f)
    assert radial_profile_of(f) == profile


def test_non_radial_detected():
    f = exact_tf(2, [(VertexAddress(2, (0,)), 1)])
    assert not is_radial(f)


def test_mode_mixing_rejected():
    f = TreeFunction.delta(2, EXACT)
    g = TreeFunction.delta(2, ScalarMode.FLOAT64)
    with pytest.raises(ModeError):
        f + g
    with pytest.raises(ModeError):
        TreeFunction(2, EXACT, [(VertexAddress.origin(2), 0.5)])


def test_q_mixing_rejected():
    with pytest.raises(ParameterError):
        TreeFunction(2, EXACT, [(VertexAddress.origin(3), QSurd(1, 0, 3))])


def test_tree_function_json_round_trip():
    f = TreeFunction(
        2,
        EXACT,
        [
            (VertexAddress(2, (0, 1)), QSurd(Fraction(1, 2), 0, 2)),
            (VertexAddress.origin(2), QSurd(0, 1, 2)),
        ],
    )
    blob = f.to_json()
    assert blob["entries"][0]["vertex"] == ""
    assert blob["entries"][1] == {"vertex": "0,1", "value": {"a": "1/2", "b": "0"}}
    assert TreeFunction.from_json(blob) == f


def test_profile_and_sequence_json_round_trip():
    p = RadialProfile(3, EXACT, [(2, QSurd(1, 1, 3))])
    s = HeightSequence(3, EXACT, [(-1, QSurd(4, 0, 3))])
    assert RadialProfile.from_json(p.to_json()) == p
    assert HeightSequence.from_json(s.to_json()) == s
    assert s.to_json()["entries"][0]["h"] == -1


def test_float_mode_round_trip():
    f = TreeFunction(2, ScalarMode.FLOAT64, [(VertexAddress.origin(2), 0.75)])
    assert TreeFunction.from_json(f.to_json()) == f


def test_even_predicate_and_even_value():
    s = HeightSequence(2, EXACT, [(1, QSurd(2, 0, 2)), (-1, QSurd(2, 0, 2))])
    assert s.is_even()
    t = HeightSequence(2, EXACT, [(1, QSurd(2, 0, 2))])
    assert not t.is_even()
    assert t.even_value(1) == QSurd(1, 0, 2)


@given(values=st.lists(st.integers(-5, 5), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_addition_matches_pointwise(values):
    ball = list(Ball(2, 2))
    entries = [(ball[i % len(ball)], QSurd(v, 0, 2)) for i, v in enumerate(values)]
    f = TreeFunction(2, EXACT, [])
    for vertex, value in entries:
        f = f + TreeFunction(2, EXACT, [(vertex, value)])
    expected = {}
    for vertex, value in entries:
        expected[vertex] = expected.get(vertex, QSurd.zero(2)) + value
    assert f == TreeFunction(2, EXACT, expected)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda key: RadialProfile(2, EXACT, [(key, QSurd(1, 0, 2))]), "'n'"),
        (lambda key: HeightSequence(2, EXACT, [(key, QSurd(1, 0, 2))]), "'h'"),
        (lambda key: TreeFunction(2, EXACT, [(key, QSurd(1, 0, 2))]), "'vertex'"),
    ],
)
@pytest.mark.parametrize("key", [2.7, 1.0, True, "1"])
def test_keys_of_the_wrong_type_are_rejected(build, field, key):
    with pytest.raises(ParameterError, match=field):
        build(key)


def test_radial_index_must_be_natural():
    with pytest.raises(ParameterError, match="'n'"):
        RadialProfile(2, EXACT, [(-1, QSurd(1, 0, 2))])


@pytest.mark.parametrize(
    "cls, entry",
    [
        (RadialProfile, {"n": 1, "value": "1"}),
        (HeightSequence, {"h": -1, "value": "1"}),
        (TreeFunction, {"vertex": "0", "value": "1"}),
    ],
)
def test_from_json_fails_closed_on_keys_and_q(cls, entry):
    assert cls.from_json({"q": 2, "entries": [entry]}).support_radius() == 1
    for q in (2.9, 2.0, "2", True, 1):
        with pytest.raises(ParameterError, match="'q'"):
            cls.from_json({"q": q, "entries": [entry]})
    (field,) = set(entry) - {"value"}
    for raw in (1.5, True, None):
        with pytest.raises(ParameterError, match=f"'{field}'"):
            cls.from_json({"q": 2, "entries": [{**entry, field: raw}]})


def test_containers_of_different_types_do_not_mix():
    p = RadialProfile.delta(2, EXACT, 1)
    s = HeightSequence.delta(2, EXACT, 1)
    assert p != s
    with pytest.raises(TypeError):
        p + s
    with pytest.raises(TypeError):
        s - p


@pytest.mark.parametrize("cls", [RadialProfile, HeightSequence, TreeFunction])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float64_values_are_rejected(cls, bad):
    delta = cls.delta(2, ScalarMode.FLOAT64)
    with pytest.raises(ParameterError, match="finite"):
        cls(2, ScalarMode.FLOAT64, [(key, bad) for key, _ in delta.items()])
    blob = delta.to_json()
    blob["entries"][0]["value"] = bad
    with pytest.raises(ParameterError, match="finite"):
        cls.from_json(blob)
    with pytest.raises(ParameterError, match="finite"):
        delta.scale(bad)
