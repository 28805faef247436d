"""Finitely supported functions on the tree, radial profiles, height sequences.

The three types are one sparse container (``_Sparse``): a map that stores
only nonzero values and iterates in canonical order, so equality is
structural and serialized output is byte-stable.  The key check, cleaning,
lookup, equality, hashing, JSON and the linear combinations (``+``, ``-``,
negation, ``scale``) are written once; the linear combinations run on the
packed form of ``treewave.levels``, in the vertex, radial or height layout.
Every container packs once and keeps its packed form, since the next
operator reuses it, and reads equality, truth, support, support size and
radius, single values and ``from_radial`` from it; its value map is built
only when the values are iterated.  Values are immutable by convention:
operations return new values.  ``TreeFunction`` holds initial data and wave
snapshots, ``RadialProfile`` (indexed by radius in N) and ``HeightSequence``
(indexed by height in Z) are the two ends of the horocycle-summation
transform pair.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import attrgetter

from .errors import ModeError, ParameterError
from .levels import HeightLevels, Levels, RadialLevels
from .scalars import (
    Scalar,
    ScalarMode,
    ensure_mode,
    scalar_from_fraction,
    scalar_from_json,
    scalar_sum,
    scalar_to_json,
    scalar_zero,
)
from .topology import VertexAddress, _check_q, _check_radius, distance, sphere_volume


def _check_time(n) -> None:
    """A time argument is an int; a bool, float or str is refused."""
    if type(n) is not int:
        raise ParameterError(f"field 'n' must be an integer time, got {n!r}")


def _check_mode(mode) -> None:
    """A scalar mode is a ``ScalarMode``; its name as a str is refused."""
    if not isinstance(mode, ScalarMode):
        raise ParameterError(f"field 'mode' must be a ScalarMode, got {mode!r}")


class _Sparse:
    """A finitely supported map key -> scalar (absent = 0), with its packed
    form in ``treewave.levels``.

    The base holds everything the three containers share; a subclass
    supplies its key type, the JSON field of a key, the sort order and the
    radius of keys, the packed layout, ``delta`` and its own extras.  A
    container packs once and keeps the packed form, and an operator result
    starts from it: a lookup reads the one slot of its key, and the value
    map is built on first iteration.
    Two values that both hold a packed form compare its canonical (D, parts),
    which is trimmed and reduced; otherwise equality reads the value maps, so
    a sparse function is never packed only to be compared.  Hashing and
    serialization read the value map.
    """

    __slots__ = ("q", "mode", "_store", "_levels")
    _key_type: type = int
    _index_name = ""  # the JSON field of a key
    _order = None  # sort key of a key; None sorts keys by value
    _radius = staticmethod(abs)  # distance of a key's vertices to the origin
    _layout: type

    def __init__(self, q: int, mode: ScalarMode, values: Mapping | Iterable[tuple] = ()):
        _check_q(q)
        _check_mode(mode)
        entries = values.items() if isinstance(values, Mapping) else values
        cleaned = {}
        for key, value in entries:
            self._check_key(key, q)
            value = ensure_mode(value, mode, q)
            if value:
                cleaned[key] = value
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_store", cleaned)
        object.__setattr__(self, "_levels", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), (self.q, self.mode, self.items())

    def _check_key(self, key, q: int) -> None:
        if isinstance(key, bool) or not isinstance(key, self._key_type):
            raise ParameterError(
                f"key {self._index_name!r} must be {self._key_type.__name__}, got {key!r}"
            )

    @staticmethod
    def _key_to_json(key):
        return key

    @staticmethod
    def _key_from_json(raw, q: int):
        return raw

    @classmethod
    def _from_levels(cls, levels):
        """The container of a packed result; its value map is built on
        first read."""
        self = object.__new__(cls)
        object.__setattr__(self, "q", levels.q)
        object.__setattr__(self, "mode", levels.mode)
        object.__setattr__(self, "_store", None)
        object.__setattr__(self, "_levels", levels)
        return self

    @property
    def _values(self) -> dict:
        if self._store is None:
            object.__setattr__(self, "_store", self._levels.values())
        return self._store

    def _as_levels(self):
        levels = self._levels
        if levels is None:
            levels = self._layout.pack(self.q, self.mode, self._store)
            object.__setattr__(self, "_levels", levels)
        return levels

    def __getitem__(self, key) -> Scalar:
        """The value at key: one packed slot, else the value map.  A key of
        another type (a float radius or a bool too) or q reads as zero."""
        if self._store is None:
            return self._levels.value_at(key)
        if isinstance(key, bool) or not isinstance(key, self._key_type):
            return scalar_zero(self.q, self.mode)
        return self._store.get(key, scalar_zero(self.q, self.mode))

    def sum_at(self, keys) -> Scalar:
        """``scalar_sum`` of the values at ``keys``: one packed read
        (``levels._Packed.sum_at``), else the value map."""
        if self._store is None:
            return self._levels.sum_at(keys)
        return scalar_sum(map(self.__getitem__, keys), self.q, self.mode)

    def items(self) -> list:
        values = self._values
        return [(key, values[key]) for key in sorted(values, key=self._order)]

    def support(self) -> set:
        if self._store is None:
            return set(self._levels.keys())
        return set(self._store)

    def support_size(self) -> int:
        if self._store is None:
            return self._levels.support_size()
        return len(self._store)

    def support_radius(self) -> int:
        """Largest radius of a key with a nonzero value, or -1 for zero."""
        if self._levels is not None:
            return self._levels.size - 1
        return max(map(self._radius, self._store), default=-1)

    def value_map(self) -> Mapping:
        """Unordered read-only view of the nonzero values (``_ValueView``)."""
        return _ValueView(self)

    def __bool__(self) -> bool:
        levels = self._levels  # the zero function has no depths
        return bool(self._store) if levels is None else bool(levels.size)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self.q != other.q or self.mode != other.mode:
            return False
        if self._levels is not None and other._levels is not None:
            return self._levels.same_as(other._levels)
        return self._values == other._values

    def __hash__(self):
        return hash((type(self).__name__, self.q, self.mode, frozenset(self._values.items())))

    def _check_compatible(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.q != other.q:
            raise ParameterError(f"mixing q={self.q} with q={other.q}")
        if self.mode != other.mode:
            raise ModeError("mixing exact and float64 values")

    def __add__(self, other):
        self._check_compatible(other)
        return self._from_levels(self._as_levels() + other._as_levels())

    def __sub__(self, other):
        self._check_compatible(other)
        return self._from_levels(self._as_levels() - other._as_levels())

    def __neg__(self):
        return self._from_levels(-self._as_levels())

    def scale(self, factor: Scalar):
        factor = ensure_mode(factor, self.mode, self.q)
        return self._from_levels(self._as_levels().scale(factor))

    def max_abs(self) -> Scalar:
        if self._levels is not None:
            return self._levels.max_abs()
        return max(map(abs, self._values.values()), default=scalar_zero(self.q, self.mode))

    def as_float64(self):
        if self.mode is ScalarMode.FLOAT64:
            return self
        return type(self)(
            self.q,
            ScalarMode.FLOAT64,
            [(key, float(value)) for key, value in self._values.items()],
        )

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "mode": self.mode.value,
            "entries": [
                {self._index_name: self._key_to_json(key), "value": scalar_to_json(value)}
                for key, value in self.items()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict):
        q = obj["q"]
        _check_q(q)
        mode = ScalarMode(obj.get("mode", "exact"))
        entries = [
            (cls._key_from_json(item[cls._index_name], q), scalar_from_json(item["value"], q, mode))
            for item in obj["entries"]
        ]
        return cls(q, mode, entries)

    def __repr__(self) -> str:
        size = self.support_size()
        return f"{type(self).__name__}(q={self.q}, {self.mode.value}, support={size})"


class TreeFunction(_Sparse):
    """Finitely supported map from vertices of T_q to scalars (absent = 0),
    packed in the orbit layout of a radius R (``levels.Levels``): the
    constructor's data radius, which operator results keep."""

    __slots__ = ()
    _key_type = VertexAddress
    _index_name = "vertex"
    _order = staticmethod(VertexAddress.sort_key)
    _radius = staticmethod(attrgetter("depth"))
    _layout = Levels
    _key_to_json = staticmethod(str)

    # perfbench traces these by name in TreeFunction.__dict__, so they are
    # bound here, not only inherited; binding __eq__ resets __hash__
    __add__ = _Sparse.__add__
    __sub__ = _Sparse.__sub__
    __eq__ = _Sparse.__eq__
    __hash__ = _Sparse.__hash__
    scale = _Sparse.scale

    def _check_key(self, vertex, q: int) -> None:
        super()._check_key(vertex, q)
        if vertex.q != q:
            raise ParameterError(f"vertex over q={vertex.q} in a q={q} function")

    @staticmethod
    def _key_from_json(raw, q: int) -> VertexAddress:
        if not isinstance(raw, str):
            raise ParameterError(f"key 'vertex' must be a label string, got {raw!r}")
        return VertexAddress.parse(raw, q)

    @classmethod
    def zero(cls, q: int, mode: ScalarMode) -> TreeFunction:
        return cls(q, mode)

    @classmethod
    def delta(cls, q: int, mode: ScalarMode, at: VertexAddress | None = None) -> TreeFunction:
        vertex = at if at is not None else VertexAddress.origin(q)
        return cls(q, mode, [(vertex, scalar_from_fraction(1, q, mode))])

    @classmethod
    def from_radial(cls, profile: "RadialProfile") -> TreeFunction:
        """x -> profile(|x|) on the ball spanned by the support, packed."""
        return cls._from_levels(Levels.from_radial(profile._as_levels()))

    def dot(self, other: TreeFunction) -> Scalar:
        """Counting inner product sum_x f(x) g(x) over the joint support: on
        the packed forms when both hold one, else over the values of the
        smaller support, each read from the other side by its key (one
        packed slot when that side is packed), so a sparse function is never
        packed only to be dotted and a packed one is never listed for it."""
        self._check_compatible(other)
        if self._levels is not None and other._levels is not None:
            return self._levels.dot(other._levels)
        small, large = sorted((self, other), key=_Sparse.support_size)
        pairs = ((value, large[v]) for v, value in small._values.items())
        return scalar_sum((value * w for value, w in pairs if w), self.q, self.mode)

    def l1_norm(self) -> Scalar:
        return scalar_sum((abs(v) for v in self._values.values()), self.q, self.mode)


class _ValueView(Mapping):
    """Read-only view of a container's nonzero values: its length is counted
    on the packed form, and a lookup or an iteration builds the value map."""

    __slots__ = ("_function",)

    def __init__(self, function: _Sparse):
        self._function = function

    def __len__(self) -> int:
        return self._function.support_size()

    def __getitem__(self, vertex: VertexAddress) -> Scalar:
        return self._function._values[vertex]

    def __iter__(self):
        return iter(self._function._values)

    def items(self):
        return self._function._values.items()

    def values(self):
        return self._function._values.values()


class RadialProfile(_Sparse):
    """Finitely supported map N -> scalar, standing for x -> value(|x|)."""

    __slots__ = ()
    _index_name = "n"
    _layout = RadialLevels

    def _check_key(self, index: int, q: int) -> None:
        super()._check_key(index, q)
        if index < 0:
            raise ParameterError(f"radial index 'n' must be >= 0, got {index}")

    @classmethod
    def delta(cls, q: int, mode: ScalarMode, at: int = 0) -> RadialProfile:
        return cls(q, mode, [(at, scalar_from_fraction(1, q, mode))])


class HeightSequence(_Sparse):
    """Finitely supported map Z -> scalar (function of the horocyclic height).

    Evenness (value(h) == value(-h)) is a checkable predicate, not an
    invariant; the inverse transforms require it and reject other inputs.
    """

    __slots__ = ()
    _index_name = "h"
    _layout = HeightLevels

    @classmethod
    def delta(cls, q: int, mode: ScalarMode, at: int = 0) -> HeightSequence:
        return cls(q, mode, [(at, scalar_from_fraction(1, q, mode))])

    def is_even(self) -> bool:
        """value(h) == value(-h) at every support height, read slot by slot."""
        return all(self[h] == self[-h] for h in self.support())

    def even_value(self, h: int) -> Scalar:
        """Even-part average (value(h) + value(-h)) / 2."""
        half = scalar_from_fraction(Fraction(1, 2), self.q, self.mode)
        return (self[h] + self[-h]) * half


def _distance_sums(data: TreeFunction, x: VertexAddress) -> dict[int, Scalar]:
    """d -> the sum of data(y) over the data vertices y with d(x, y) = d, in
    one pass over the value map (built in canonical order for packed data,
    so float64 sums add in that order)."""
    zero = scalar_zero(data.q, data.mode)
    sums: dict[int, Scalar] = {}
    for y, value in data.value_map().items():
        d = distance(x, y)
        sums[d] = sums.get(d, zero) + value
    return sums


def _sphere_mean(total: Scalar, f: TreeFunction, n: int) -> Scalar:
    return total * scalar_from_fraction(Fraction(1, sphere_volume(f.q, n)), f.q, f.mode)


def spherical_mean(f: TreeFunction, x: VertexAddress, n: int) -> Scalar:
    """Average of f over the sphere of radius n about x:
    (1/delta(n)) * sum_{d(y,x)=n} f(y).

    Only support vertices can contribute, so the one distance walk of the
    value map (``_distance_sums``, in canonical order for packed f, the
    order float64 means add in) serves, and the sphere is never enumerated.
    No truncation is involved.
    """
    if x.q != f.q:
        raise ParameterError(f"vertex q={x.q} does not match function q={f.q}")
    _check_radius(n, "n")
    return _sphere_mean(_distance_sums(f, x).get(n, scalar_zero(f.q, f.mode)), f, n)


def radial_profile_of(f: TreeFunction, center: VertexAddress | None = None) -> RadialProfile:
    """Spherical means of f about ``center`` (default: origin) as a profile,
    every mean from one pass over the values."""
    x = center if center is not None else VertexAddress.origin(f.q)
    sums = sorted(_distance_sums(f, x).items())
    return RadialProfile(f.q, f.mode, [(n, _sphere_mean(total, f, n)) for n, total in sums])


def is_radial(f: TreeFunction) -> bool:
    """True when f(x) depends only on |x| (checked on the support span)."""
    profile = radial_profile_of(f)
    return f == TreeFunction.from_radial(profile) if profile else not f
