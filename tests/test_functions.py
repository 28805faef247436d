import copy
import pickle
import random
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewave import radial
from treewave.errors import ModeError, ParameterError
from treewave.functions import (
    HeightSequence,
    RadialProfile,
    TreeFunction,
    is_radial,
    radial_profile_of,
    spherical_mean,
)
from treewave.sampling import random_tree_function
from treewave.scalars import QSurd, ScalarMode
from treewave.topology import Ball, VertexAddress, sphere

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


@pytest.mark.parametrize("cls", [RadialProfile, HeightSequence])
def test_a_bool_key_reads_as_zero_packed_or_not(cls):
    """A bool is refused as a key, so True and False read no value, not
    those at 1 and 0, from the value map and from the packed slot alike."""
    built = cls(2, EXACT, [(0, QSurd(3, 0, 2)), (1, QSurd(5, 0, 2))])
    packed = cls._from_levels(built._as_levels())
    for f in (built, packed):
        assert f[1] == QSurd(5, 0, 2) and f[0] == QSurd(3, 0, 2)
        assert f[True] == f[False] == QSurd.zero(2)
    assert packed._store is None  # read from the slot, no value map built


@pytest.mark.parametrize(
    "call",
    [
        lambda: radial.m_kernel(2, 3, "exact"),
        lambda: radial.propagator_kernels(2, 3, "float64"),
        lambda: RadialProfile(2, "exact", [(0, 1)]),
        lambda: HeightSequence(2, "float64"),
        lambda: TreeFunction(2, "exact", {}),
    ],
    ids=["m_kernel", "propagator_kernels", "RadialProfile", "HeightSequence", "TreeFunction"],
)
def test_a_str_mode_fails_closed_naming_the_mode(call):
    with pytest.raises(ParameterError, match="'mode'"):
        call()


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


# -- equality and hashing read the packed form when both hold one ----------------

QS = (2, 3, 4, 5, 9)
FLOAT = ScalarMode.FLOAT64


def _scalar(q, mode, a, b, den):
    if mode is EXACT:
        return QSurd(Fraction(a, den), Fraction(b, den), q)
    return (a + 0.5 * b) / den


def _same_by_value_map(x, y):
    return x.q == y.q and x.mode == y.mode and dict(x.value_map()) == dict(y.value_map())


# per container: (every key of radius <= r, one key of radius d)
_KEYS = {
    TreeFunction: (
        lambda q, r: list(Ball(q, r)),
        lambda q, d: VertexAddress(q, (q,) + (q - 1,) * (d - 1)),
    ),
    RadialProfile: (lambda q, r: list(range(r + 1)), lambda q, d: d),
    HeightSequence: (lambda q, r: list(range(-r, r + 1)), lambda q, d: -d),
}


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_equality_and_hash_agree_with_the_value_maps(data):
    cls = data.draw(st.sampled_from(list(_KEYS)), label="container")
    q = data.draw(st.sampled_from(QS), label="q")
    mode = data.draw(st.sampled_from((EXACT, FLOAT)), label="mode")
    radius = data.draw(st.integers(0, 2), label="radius")
    keys, deep_key = _KEYS[cls]
    ball = keys(q, radius)
    value = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.sampled_from((1, 2, 3)))
    drawn = data.draw(st.lists(value, min_size=len(ball), max_size=len(ball)), label="values")
    values = [_scalar(q, mode, *parts) for parts in drawn]
    # built by the constructor: a value map and no packed form
    f = cls(q, mode, zip(ball, values))
    zero = cls(q, mode)
    half = QSurd(Fraction(1, 2), 0, q) if mode is EXACT else 0.5
    one = QSurd.one(q) if mode is EXACT else 1.0
    minus_one = -one
    deep = deep_key(q, radius + data.draw(st.integers(1, 2), label="deep"))
    bump = cls(q, mode, [(deep, _scalar(q, mode, 1, 0, 3))])
    # the packed results below hold -0.0 in float64 mode wherever f is zero
    flipped = cls(q, mode, zip(ball, (-x for x in values))).scale(minus_one)
    signed_zeros = cls(
        q, mode, [(v, -0.0 if mode is FLOAT and not x else x) for v, x in zip(ball, values)]
    )
    candidates = [
        f,
        f.scale(one),
        f + zero,
        zero + f,
        flipped,
        signed_zeros,
        f.scale(half),  # the same parts over twice the denominator, once reduced
        f + bump,
        cls(q, mode, dict((f + bump).value_map())),
        zero,
        zero.scale(one),
    ]
    for x in candidates:
        for y in candidates:
            assert (x == y) is _same_by_value_map(x, y)
            if x == y:
                assert hash(x) == hash(y)
    assert f == f.scale(one) == f + zero == flipped == signed_zeros
    assert f.scale(one) != f + bump and f != f + bump
    assert (f.scale(half) == f) is (not f)


def test_a_sparse_function_is_not_packed_to_be_compared():
    far = VertexAddress(3, (3,) + (2,) * 29)
    sparse = TreeFunction.delta(3, EXACT, far)
    packed = TreeFunction.delta(3, EXACT).scale(QSurd.one(3))
    assert packed._levels is not None
    assert sparse != packed and packed != sparse
    assert sparse._levels is None


def test_value_map_is_a_read_only_view_counted_on_the_packed_form():
    f = TreeFunction.from_radial(RadialProfile(3, EXACT, [(0, QSurd(1, 0, 3)), (2, QSurd(0, 1, 3))]))
    view = f.value_map()
    assert isinstance(view, Mapping)
    assert len(view) == f.support_size() == 1 + 4 * 3
    assert f.support_radius() == 2 and f
    assert f._store is None  # counted without building a value
    vertex = VertexAddress(3, (1, 2))
    assert view[vertex] == QSurd(0, 1, 3) and vertex in view
    assert VertexAddress(3, (1,)) not in view
    assert dict(view) == dict(f.items()) and len(list(view)) == len(view)
    with pytest.raises(TypeError):
        view[vertex] = QSurd(1, 0, 3)
    assert not TreeFunction.zero(3, EXACT).scale(QSurd.one(3))
    assert TreeFunction.zero(3, EXACT).scale(QSurd.one(3)).support_radius() == -1


def _operator_results():
    """(result of a packed operator, the same values built by the
    constructor) for each container, in both modes."""
    for mode in (EXACT, FLOAT):
        one = QSurd.one(3) if mode is EXACT else 1.0
        half = QSurd(Fraction(1, 2), 0, 3) if mode is EXACT else 0.5
        value = _scalar(3, mode, 1, 1, 3)
        entries = {
            TreeFunction: [(VertexAddress(3, ()), value), (VertexAddress(3, (2, 1)), value)],
            RadialProfile: [(0, value), (3, value)],
            HeightSequence: [(-2, value), (1, value)],
        }
        for cls, items in entries.items():
            built = cls(3, mode, items)
            yield (cls(3, mode, items) + cls(3, mode, items)).scale(half), built
            yield cls(3, mode, items).scale(one) - built.scale(one), cls(3, mode)


def test_operator_results_answer_support_reads_from_the_packed_form():
    for result, built in _operator_results():
        assert result._store is None and result._levels is not None
        support, radius = result.support(), result.support_radius()
        size, truth = len(result.value_map()), bool(result)
        assert result._store is None  # read without building a value
        assert support == built.support() == set(dict(built.items()))
        assert radius == built.support_radius() and size == len(built.items())
        assert truth is bool(built)
        assert result == built and dict(result.value_map()) == dict(built.value_map())


def test_copies_and_pickles_are_equal_and_hash_alike():
    surds = [QSurd(1, 2, 3), QSurd(Fraction(-5, 6), 0, 2), QSurd.zero(2)]
    surds += [QSurd(1, 2, 3) * QSurd(0, Fraction(1, 4), 3) - 1, QSurd(1, 1, 9) / 7]
    values = [*surds]
    for result, built in _operator_results():
        values += [result, built, *(value for _, value in built.items())]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
            if isinstance(value, QSurd):
                assert twin.slots == value.slots and twin.q == value.q
            elif not isinstance(value, float):
                assert (twin.q, twin.mode, twin.items()) == (value.q, value.mode, value.items())


def _probe_keys(cls, q):
    """Keys of every depth up to 3 past the support used below, and keys of
    another type or q, which read as zero."""
    junk = ["1", None, 1.0, 1.5, Fraction(1)]
    if cls is TreeFunction:
        return list(Ball(q, 4)) + [VertexAddress(q + 1, ()), VertexAddress(q + 1, (2, 1)), 0] + junk
    other = [VertexAddress(q, ())]
    return list(range(-6, 7)) + other + junk


def _signed_zero_results():
    """float64 results whose slots hold -0.0 between two values, with the
    same values built by the constructor."""
    items = {
        TreeFunction: [(VertexAddress(3, ()), 2.0), (VertexAddress(3, (2, 1)), 1.0)],
        RadialProfile: [(0, 2.0), (3, 1.0)],
        HeightSequence: [(-2, 2.0), (1, 1.0)],
    }
    for cls, entries in items.items():
        yield cls(3, FLOAT, entries).scale(-1.0), cls(3, FLOAT, [(k, -v) for k, v in entries])


def test_lookups_read_one_slot_of_the_packed_form():
    for result, built in [*_operator_results(), *_signed_zero_results()]:
        zero = QSurd.zero(3) if result.mode is EXACT else 0.0
        for key in _probe_keys(type(result), 3):
            value = result[key]
            assert value == built[key] and type(value) is type(zero)
            assert repr(value) == repr(built[key])  # a -0.0 slot reads as 0.0
            if not isinstance(key, type(result)._key_type):
                assert value == zero
        assert result._store is None  # no value map was built
        if isinstance(result, HeightSequence):
            for h in range(-4, 5):
                assert result.even_value(h) == built.even_value(h)
            assert result.is_even() is built.is_even() is (not built)
            assert result._store is None
        assert result.items() == built.items()


@pytest.mark.parametrize("mode", (EXACT, FLOAT))
@pytest.mark.parametrize("q", (2, 3))
def test_spherical_mean_reads_the_sphere_ranges_of_the_packed_form(q, mode):
    """Packed and constructor-built means equal the brute sum over the
    enumerated sphere (canonical order, so float64 bits agree too)."""
    rng = random.Random(q)
    values = [(v, _scalar(q, mode, rng.randint(-3, 3), rng.randint(-2, 2), 3)) for v in Ball(q, 2)]
    built = TreeFunction(q, mode, values)
    packed = TreeFunction(q, mode, values).scale(QSurd.one(q) if mode is EXACT else 1.0)
    zero, ball = (QSurd.zero(q) if mode is EXACT else 0.0), Ball(q, 8)
    for x in Ball(q, 3):
        for n in range(6):
            listed = sphere(x, n, ball)
            weight = Fraction(1, len(listed)) if mode is EXACT else 1 / len(listed)
            expected = sum((built[y] for y in listed), zero) * weight
            assert spherical_mean(built, x, n) == expected
            assert spherical_mean(packed, x, n) == expected
    assert packed._levels is not None and built._levels is None


def test_even_reads_of_a_packed_sequence():
    s = HeightSequence(3, EXACT, [(2, QSurd(1, 1, 3)), (-2, QSurd(1, 1, 3)), (0, QSurd(4, 0, 3))])
    packed = s.scale(QSurd.one(3))
    assert packed.is_even() and packed._store is None
    assert not (packed + HeightSequence.delta(3, EXACT, at=-1)).is_even()
    assert packed.even_value(-2) == QSurd(1, 1, 3) and packed.even_value(0) == 4
    assert packed.even_value(7) == 0 and packed._store is None


def test_dot_reads_the_packed_forms_when_both_hold_one():
    labels = [(), (0,), (2, 1), (1, 0, 1)]
    values = [(VertexAddress(2, w), QSurd(Fraction(k, 3), 1 - k, 2)) for k, w in enumerate(labels)]
    f, g = TreeFunction(2, EXACT, values), TreeFunction(2, EXACT, values[1:])
    expected = f.dot(g)  # both constructor-built: the value maps, never packed
    assert f._levels is None and g._levels is None
    one = QSurd.one(2)
    packed_f, packed_g = f.scale(one), g.scale(one)
    assert packed_f.dot(packed_g) == expected == packed_g.dot(packed_f)
    assert packed_f._store is None and packed_g._store is None
    sparse = TreeFunction(2, EXACT, values[1:])
    assert packed_f.dot(sparse) == expected and sparse._levels is None


@pytest.mark.parametrize("mode", (EXACT, ScalarMode.FLOAT64))
def test_dot_of_a_packed_and_an_unpacked_function_reads_slots(mode):
    """The smaller support is iterated in its order and the other side read
    by key, a packed slot: a larger packed side builds no value map, and the
    sum is the value-map sum of two unpacked functions, bit for bit."""
    rng = random.Random(f"dot:{mode.value}")
    for q, wide, narrow in ((2, 3, 2), (3, 2, 1)):
        f, g = random_tree_function(q, wide, rng, mode), random_tree_function(q, narrow, rng, mode)
        expected = f.dot(g)  # both built from values: the value-map sum
        for first, second in ((f, g), (g, f)):
            packed = TreeFunction(q, mode, first.items()).scale(QSurd.one(q) if mode is EXACT else 1.0)
            sparse = TreeFunction(q, mode, second.items())
            for found in (packed.dot(sparse), sparse.dot(packed)):
                assert repr(found) == repr(expected)
            assert sparse._levels is None
            assert (packed._store is None) == (packed.support_size() > sparse.support_size())
