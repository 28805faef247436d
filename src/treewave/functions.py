"""Finitely supported functions on the tree, radial profiles, height sequences.

All three containers are sparse maps that store only nonzero values and
iterate in canonical order, so equality is structural and serialized output
is byte-stable.  They are immutable by convention: operations return new
values.  ``TreeFunction`` holds initial data and wave snapshots,
``RadialProfile`` (indexed by radius in N) and ``HeightSequence`` (indexed by
height in Z) are the two ends of the horocycle-summation transform pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ModeError, ParameterError
from .levels import Levels, RadialLevels
from .scalars import (
    Scalar,
    ScalarMode,
    ensure_mode,
    scalar_from_fraction,
    scalar_from_json,
    scalar_is_zero,
    scalar_sum,
    scalar_to_float,
    scalar_to_json,
    scalar_zero,
)
from .topology import Ball, VertexAddress, distance, sphere_volume


class TreeFunction:
    """Finitely supported map from vertices of T_q to scalars (absent = 0).

    A function also has a packed form (``levels.Levels``), built on first use
    by the vertex kernel and kept in a private slot.  Kernel outputs, and the
    results of ``+``, ``-`` and ``scale``, start from their packed form and
    build their value map on first read.  Equality, hashing and
    serialization read only the value map.
    """

    __slots__ = ("q", "mode", "_store", "_levels")

    def __init__(
        self,
        q: int,
        mode: ScalarMode,
        values: Mapping[VertexAddress, Scalar] | Iterable[tuple[VertexAddress, Scalar]] = (),
    ):
        if q < 2:
            raise ParameterError(f"q must be >= 2, got {q}")
        entries = values.items() if isinstance(values, Mapping) else values
        cleaned = {}
        for vertex, value in entries:
            if vertex.q != q:
                raise ParameterError(
                    f"vertex over q={vertex.q} in a q={q} function"
                )
            value = ensure_mode(value, mode, q)
            if not scalar_is_zero(value):
                cleaned[vertex] = value
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_store", cleaned)
        object.__setattr__(self, "_levels", None)

    def __setattr__(self, name, value):
        raise AttributeError("TreeFunction is immutable")

    @classmethod
    def _from_levels(cls, levels: Levels) -> TreeFunction:
        """Function of a kernel output; its value map is built on first
        read."""
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

    def _as_levels(self) -> Levels:
        """Packed form, packed once and then kept."""
        if self._levels is None:
            object.__setattr__(self, "_levels", Levels.pack(self.q, self.mode, self._store))
        return self._levels

    @classmethod
    def zero(cls, q: int, mode: ScalarMode) -> TreeFunction:
        return cls(q, mode)

    @classmethod
    def delta(cls, q: int, mode: ScalarMode, at: VertexAddress | None = None) -> TreeFunction:
        vertex = at if at is not None else VertexAddress.origin(q)
        return cls(q, mode, [(vertex, scalar_from_fraction(1, q, mode))])

    @classmethod
    def from_radial(cls, profile: "RadialProfile") -> TreeFunction:
        """Materialize x -> profile(|x|) on the ball spanned by the support."""
        radius = profile.support_radius()
        entries = []
        if radius >= 0:
            for vertex in Ball(profile.q, radius):
                entries.append((vertex, profile[vertex.depth]))
        return cls(profile.q, profile.mode, entries)

    def __getitem__(self, vertex: VertexAddress) -> Scalar:
        return self._values.get(vertex, scalar_zero(self.q, self.mode))

    def items(self) -> list[tuple[VertexAddress, Scalar]]:
        return sorted(self._values.items(), key=lambda kv: kv[0].sort_key())

    def value_map(self) -> Mapping[VertexAddress, Scalar]:
        """Unordered read-only view of the nonzero values."""
        return self._values

    def support(self) -> set[VertexAddress]:
        return set(self._values)

    def support_size(self) -> int:
        return len(self._values)

    def support_radius(self) -> int:
        """Largest |x| with f(x) != 0, or -1 for the zero function."""
        if not self._values:
            return -1
        return max(v.depth for v in self._values)

    def __bool__(self) -> bool:
        return bool(self._values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeFunction):
            return NotImplemented
        return (
            self.q == other.q
            and self.mode == other.mode
            and self._values == other._values
        )

    def __hash__(self):
        return hash((self.q, self.mode, frozenset(self._values.items())))

    def _check_compatible(self, other: TreeFunction) -> None:
        if self.q != other.q:
            raise ParameterError(f"mixing q={self.q} with q={other.q}")
        if self.mode != other.mode:
            raise ModeError("mixing exact and float64 functions")

    def __add__(self, other: TreeFunction) -> TreeFunction:
        self._check_compatible(other)
        return TreeFunction._from_levels(self._as_levels() + other._as_levels())

    def __sub__(self, other: TreeFunction) -> TreeFunction:
        self._check_compatible(other)
        return TreeFunction._from_levels(self._as_levels() - other._as_levels())

    def __neg__(self) -> TreeFunction:
        return TreeFunction._from_levels(-self._as_levels())

    def scale(self, factor: Scalar) -> TreeFunction:
        factor = ensure_mode(factor, self.mode, self.q)
        return TreeFunction._from_levels(self._as_levels().scale(factor))

    def dot(self, other: TreeFunction) -> Scalar:
        """Counting inner product sum_x f(x) g(x) over the joint support."""
        self._check_compatible(other)
        small, large = (self, other) if len(self._values) <= len(other._values) else (other, self)
        return scalar_sum(
            (value * large._values[v] for v, value in small._values.items() if v in large._values),
            self.q,
            self.mode,
        )

    def l1_norm(self) -> Scalar:
        return scalar_sum((abs(v) for v in self._values.values()), self.q, self.mode)

    def max_abs(self) -> Scalar:
        if not self._values:
            return scalar_zero(self.q, self.mode)
        return max(abs(v) for v in self._values.values())

    def as_float64(self) -> TreeFunction:
        if self.mode is ScalarMode.FLOAT64:
            return self
        return TreeFunction(
            self.q,
            ScalarMode.FLOAT64,
            [(v, scalar_to_float(value)) for v, value in self._values.items()],
        )

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "mode": self.mode.value,
            "entries": [
                {"vertex": str(vertex), "value": scalar_to_json(value)}
                for vertex, value in self.items()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> TreeFunction:
        q = int(obj["q"])
        mode = ScalarMode(obj.get("mode", "exact"))
        entries = [
            (VertexAddress.parse(item["vertex"], q), scalar_from_json(item["value"], q, mode))
            for item in obj["entries"]
        ]
        return cls(q, mode, entries)

    def __repr__(self) -> str:
        return f"TreeFunction(q={self.q}, {self.mode.value}, support={len(self._values)})"


class _IntIndexed:
    """Shared mechanics of the integer-indexed sparse containers."""

    __slots__ = ("q", "mode", "_values")
    _index_name = "index"

    def __init__(self, q, mode, values=()):
        if q < 2:
            raise ParameterError(f"q must be >= 2, got {q}")
        entries = values.items() if isinstance(values, Mapping) else values
        cleaned = {}
        for index, value in entries:
            self._check_index(int(index))
            value = ensure_mode(value, mode, q)
            if not scalar_is_zero(value):
                cleaned[int(index)] = value
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_values", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check_index(self, index: int) -> None:
        pass

    def __getitem__(self, index: int) -> Scalar:
        return self._values.get(index, scalar_zero(self.q, self.mode))

    def items(self) -> list[tuple[int, Scalar]]:
        return sorted(self._values.items())

    def support(self) -> set[int]:
        return set(self._values)

    def __bool__(self) -> bool:
        return bool(self._values)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.q == other.q and self.mode == other.mode and self._values == other._values

    def __hash__(self):
        return hash((type(self).__name__, self.q, self.mode, frozenset(self._values.items())))

    def _check_compatible(self, other) -> None:
        if self.q != other.q:
            raise ParameterError(f"mixing q={self.q} with q={other.q}")
        if self.mode != other.mode:
            raise ModeError("mixing exact and float64 values")

    def __add__(self, other):
        self._check_compatible(other)
        values = dict(self._values)
        for index, value in other._values.items():
            values[index] = values.get(index, scalar_zero(self.q, self.mode)) + value
        return type(self)(self.q, self.mode, values)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.q, self.mode, [(i, -v) for i, v in self._values.items()])

    def scale(self, factor: Scalar):
        factor = ensure_mode(factor, self.mode, self.q)
        return type(self)(self.q, self.mode, [(i, v * factor) for i, v in self._values.items()])

    def as_float64(self):
        if self.mode is ScalarMode.FLOAT64:
            return self
        return type(self)(
            self.q,
            ScalarMode.FLOAT64,
            [(i, scalar_to_float(v)) for i, v in self._values.items()],
        )

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "mode": self.mode.value,
            "entries": [
                {self._index_name: index, "value": scalar_to_json(value)}
                for index, value in self.items()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict):
        q = int(obj["q"])
        mode = ScalarMode(obj.get("mode", "exact"))
        entries = [
            (int(item[cls._index_name]), scalar_from_json(item["value"], q, mode))
            for item in obj["entries"]
        ]
        return cls(q, mode, entries)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(q={self.q}, {self.mode.value}, support={len(self._values)})"


class RadialProfile(_IntIndexed):
    """Finitely supported map N -> scalar, standing for x -> value(|x|)."""

    __slots__ = ()
    _index_name = "n"

    def _check_index(self, index: int) -> None:
        if index < 0:
            raise ParameterError(f"radial index must be >= 0, got {index}")

    @classmethod
    def delta(cls, q: int, mode: ScalarMode, at: int = 0) -> RadialProfile:
        return cls(q, mode, [(at, scalar_from_fraction(1, q, mode))])

    def support_radius(self) -> int:
        if not self._values:
            return -1
        return max(self._values)

    def max_abs(self) -> Scalar:
        return max(map(abs, self._values.values()), default=scalar_zero(self.q, self.mode))

    def _as_levels(self) -> RadialLevels:
        """Packed form, built per call (profiles are short)."""
        return RadialLevels.pack(self.q, self.mode, self._values)

    @classmethod
    def _from_levels(cls, levels: RadialLevels) -> RadialProfile:
        return cls(levels.q, levels.mode, levels.values())


class HeightSequence(_IntIndexed):
    """Finitely supported map Z -> scalar (function of the horocyclic height).

    Evenness (value(h) == value(-h)) is a checkable predicate, not an
    invariant; the inverse transforms require it and reject other inputs.
    """

    __slots__ = ()
    _index_name = "h"

    @classmethod
    def delta(cls, q: int, mode: ScalarMode, at: int = 0) -> HeightSequence:
        return cls(q, mode, [(at, scalar_from_fraction(1, q, mode))])

    def support_radius(self) -> int:
        if not self._values:
            return -1
        return max(abs(h) for h in self._values)

    def is_even(self) -> bool:
        return all(self[h] == self[-h] for h in self._values)

    def even_value(self, h: int) -> Scalar:
        """Even-part average (value(h) + value(-h)) / 2."""
        half = scalar_from_fraction(Fraction(1, 2), self.q, self.mode)
        return (self[h] + self[-h]) * half


def spherical_mean(f: TreeFunction, x: VertexAddress, n: int) -> Scalar:
    """Average of f over the sphere of radius n about x:
    (1/delta(n)) * sum_{d(y,x)=n} f(y).

    Only support vertices can contribute, so the sphere itself is never
    enumerated and no truncation is involved.
    """
    if x.q != f.q:
        raise ParameterError(f"vertex q={x.q} does not match function q={f.q}")
    if n < 0:
        raise ParameterError("sphere radius must be >= 0")
    total = scalar_sum(
        (value for vertex, value in f._values.items() if distance(x, vertex) == n),
        f.q,
        f.mode,
    )
    weight = scalar_from_fraction(Fraction(1, sphere_volume(f.q, n)), f.q, f.mode)
    return total * weight


def radial_profile_of(f: TreeFunction, center: VertexAddress | None = None) -> RadialProfile:
    """Spherical means of f about ``center`` (default: origin) as a profile."""
    x = center if center is not None else VertexAddress.origin(f.q)
    if not f:
        return RadialProfile(f.q, f.mode)
    limit = max(distance(x, vertex) for vertex in f.support())
    return RadialProfile(
        f.q, f.mode, [(n, spherical_mean(f, x, n)) for n in range(limit + 1)]
    )


def is_radial(f: TreeFunction) -> bool:
    """True when f(x) depends only on |x| (checked on the support span)."""
    profile = radial_profile_of(f)
    return f == TreeFunction.from_radial(profile) if profile else not f
