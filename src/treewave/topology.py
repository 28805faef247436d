"""Addressing, metric, spheres and horocyclic height on the homogeneous tree.

The tree T_q (every vertex of degree q+1, no loops) is never stored.  A
vertex is a backtrack-free label word read from the origin: the first label
is one of {0..q} (the origin has q+1 neighbours), every later label one of
{0..q-1} (non-backtracking continuations).  Distance and height are O(word
length); spheres and balls are generated on demand, never materialized as
adjacency structures.  A sphere S(x, n) is built, not searched: y is
reached by climbing a <= min(n, |x|) steps to an ancestor z of x, then
descending n - a steps into any branch of z but the one climbed from.  The
words for one a have depth |x| + n - 2a and come in lexicographic order, so
a from the largest down lists S(x, n) in canonical order with no sort.

The distinguished geodesic ray consists of the all-zero words, so heights
increase along it: h(x) = 2*(leading zeros of x) - |x|, which is the
stabilized value of k - d(x, omega(k)) for large k.  Under this convention
every vertex has exactly one neighbour at height h+1 and q at height h-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from typing import Iterator

from .errors import ParameterError, TruncationError


def _check_radius(value, field: str, what: str = "radius") -> None:
    """A radius, a margin or a label is an int >= 0; a bool, float or str,
    or a negative int, is refused naming the field."""
    if type(value) is not int or value < 0:
        raise ParameterError(f"field {field!r} must be an integer {what} >= 0, got {value!r}")


def _check_q(q) -> None:
    if type(q) is not int or q < 2:
        raise ParameterError(f"field 'q' must be an integer >= 2, got {q!r}")


@dataclass(frozen=True)
class VertexAddress:
    """A vertex of T_q as a geodesic label word; the empty word is the origin."""

    q: int
    labels: tuple[int, ...] = ()

    def __post_init__(self):
        _check_q(self.q)
        for i, label in enumerate(self.labels):
            _check_radius(label, "labels", "label")
            top = self.q - 1 if i else self.q
            if label > top:
                which = "label" if i else "first label"
                raise ParameterError(f"field 'labels': {which} {label} outside 0..{top}")

    # equality and hashing read the two fields, with no tuple of them built
    def __eq__(self, other) -> bool:
        if other.__class__ is not VertexAddress:
            return NotImplemented
        return self.labels == other.labels and self.q == other.q

    def __hash__(self) -> int:
        return hash(self.labels)

    @classmethod
    def _built(cls, q: int, labels: tuple[int, ...]) -> VertexAddress:
        """The vertex of a word built valid (a prefix of a valid word, or one
        extended by labels in range), whose labels are not checked again."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["q"], fields["labels"] = q, labels
        return self

    @classmethod
    def origin(cls, q: int) -> VertexAddress:
        return cls(q, ())

    @classmethod
    def parse(cls, text: str, q: int) -> VertexAddress:
        if text == "":
            return cls(q, ())
        return cls(q, tuple(int(part) for part in text.split(",")))

    @property
    def depth(self) -> int:
        """Graph distance |x| to the origin."""
        return len(self.labels)

    @property
    def is_origin(self) -> bool:
        return not self.labels

    def leading_zeros(self) -> int:
        count = 0
        for label in self.labels:
            if label != 0:
                break
            count += 1
        return count

    def height(self) -> int:
        """Horocyclic height 2*(leading zeros) - |x|."""
        return 2 * self.leading_zeros() - len(self.labels)

    def parent(self) -> VertexAddress:
        if not self.labels:
            raise ParameterError("the origin has no parent")
        return self._built(self.q, self.labels[:-1])

    def child(self, label: int) -> VertexAddress:
        top = self.q if self.is_origin else self.q - 1
        if type(label) is not int or not 0 <= label <= top:
            which = "first label" if self.is_origin else "label"
            raise ParameterError(f"field 'label': {which} {label!r} outside 0..{top}")
        return self._built(self.q, self.labels + (label,))

    def children(self) -> list[VertexAddress]:
        q, labels, built = self.q, self.labels, self._built
        return [built(q, labels + (label,)) for label in range(q if labels else q + 1)]

    def neighbors(self) -> list[VertexAddress]:
        """The q+1 adjacent vertices (parent first for non-origin words)."""
        if self.labels:
            return [self.parent(), *self.children()]
        return self.children()

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.labels), self.labels)

    def __str__(self) -> str:
        return ",".join(str(label) for label in self.labels)

    def __repr__(self) -> str:
        return f"VertexAddress(q={self.q}, '{self}')"


def common_prefix_length(x: VertexAddress, y: VertexAddress) -> int:
    count = 0
    for a, b in zip(x.labels, y.labels):
        if a != b:
            break
        count += 1
    return count


def distance(x: VertexAddress, y: VertexAddress) -> int:
    """Graph distance |x| + |y| - 2*(longest common prefix)."""
    if x.q != y.q:
        raise ParameterError(f"addresses over different trees: q={x.q} vs q={y.q}")
    return len(x.labels) + len(y.labels) - 2 * common_prefix_length(x, y)


def omega(q: int, k: int) -> VertexAddress:
    """Point k >= 0 on the distinguished geodesic ray (all-zero words)."""
    if k < 0:
        raise ParameterError("only the nonnegative ray of the geodesic is used")
    return VertexAddress(q, (0,) * k)


# the most vertices a run may walk or write, checked before it starts: the
# balls of ``treewave verify`` and the snapshot rows of ``treewave propagate``
MAX_VERTICES = 5_000_000


def sphere_volume(q: int, n: int) -> int:
    """Number of vertices at distance n from any fixed vertex:
    1 for n = 0, (q+1)*q^(n-1) for n >= 1."""
    _check_radius(n, "n")
    if n == 0:
        return 1
    return (q + 1) * q ** (n - 1)


def distance_count(q: int, m: int, d: int, r: int) -> int:
    """Number of vertices y with |y| = r and d(x, y) = d, for any |x| = m.

    The geodesic from x climbs a = (m + d - r)/2 steps towards the origin
    and then descends; the count depends on whether it turns below, at, or
    never reaches the origin.
    """
    if min(m, d, r) < 0:
        return 0
    if d == 0:
        return 1 if r == m else 0
    if m == 0:
        return sphere_volume(q, d) if r == d else 0
    two_a = m + d - r
    if two_a < 0 or two_a % 2:
        return 0
    a = two_a // 2
    if a > min(m, d):
        return 0
    if a == d:
        return 1
    if a == 0:
        return q**d
    if a == m:
        return q ** (d - a)
    return (q - 1) * q ** (d - a - 1)


@dataclass(frozen=True)
class Ball:
    """Explicit truncation domain: the ball of given radius about the origin.

    Enumeration order is canonical (by depth, then lexicographic labels), so
    serialized outputs are byte-stable.
    """

    q: int
    radius: int

    def __post_init__(self):
        _check_q(self.q)
        _check_radius(self.radius, "radius")

    def vertex_count(self) -> int:
        return 1 + sum(sphere_volume(self.q, n) for n in range(1, self.radius + 1))

    def __contains__(self, vertex: VertexAddress) -> bool:
        return vertex.q == self.q and vertex.depth <= self.radius

    def vertices(self) -> Iterator[VertexAddress]:
        yield VertexAddress.origin(self.q)
        frontier = [VertexAddress.origin(self.q)]
        for _ in range(self.radius):
            next_frontier = []
            for vertex in frontier:
                for child in vertex.children():
                    yield child
                    next_frontier.append(child)
            frontier = next_frontier

    def __iter__(self) -> Iterator[VertexAddress]:
        return self.vertices()


def sphere(center: VertexAddress, n: int, ball: Ball) -> list[VertexAddress]:
    """All vertices at distance exactly n from ``center``, in canonical order,
    built by climbing and descending (see the module docstring).

    Requires |center| + n <= ball.radius so the whole sphere lies inside the
    truncation ball; violations raise ``TruncationError`` rather than
    silently clipping.
    """
    if center.q != ball.q:
        raise ParameterError(f"center q={center.q} does not match ball q={ball.q}")
    _check_radius(n, "n")
    if center.depth + n > ball.radius:
        raise TruncationError(
            f"sphere of radius {n} about a vertex at depth {center.depth} "
            f"escapes the ball of radius {ball.radius}"
        )
    q, labels, built = center.q, center.labels, VertexAddress._built
    result: list[VertexAddress] = []
    for a in range(min(n, len(labels)), -1, -1):
        stem = labels[: len(labels) - a]
        first = range(q if stem else q + 1)
        if a:  # not back down the branch the climb came from
            first = [label for label in first if label != labels[len(stem)]]
        tails = product(first, *repeat(range(q), n - a - 1)) if n > a else [()]
        result += [built(q, stem + tail) for tail in tails]
    return result
