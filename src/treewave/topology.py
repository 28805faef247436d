"""Addressing, metric, spheres and horocyclic height on the homogeneous tree.

The tree T_q (every vertex of degree q+1, no loops) is never stored.  A
vertex is a backtrack-free label word read from the origin: the first label
is one of {0..q} (the origin has q+1 neighbours), every later label one of
{0..q-1} (non-backtracking continuations).  Distance and height are O(word
length); spheres and balls are generated on demand, never materialized as
adjacency structures.

The distinguished geodesic ray consists of the all-zero words, so heights
increase along it: h(x) = 2*(leading zeros of x) - |x|, which is the
stabilized value of k - d(x, omega(k)) for large k.  Under this convention
every vertex has exactly one neighbour at height h+1 and q at height h-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ParameterError, TruncationError


@dataclass(frozen=True)
class VertexAddress:
    """A vertex of T_q as a geodesic label word; the empty word is the origin."""

    q: int
    labels: tuple[int, ...] = ()

    def __post_init__(self):
        if self.q < 2:
            raise ParameterError(f"q must be >= 2, got {self.q}")
        if self.labels:
            first, rest = self.labels[0], self.labels[1:]
            if not 0 <= first <= self.q:
                raise ParameterError(f"first label {first} outside 0..{self.q}")
            for label in rest:
                if not 0 <= label <= self.q - 1:
                    raise ParameterError(f"label {label} outside 0..{self.q - 1}")

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
        return VertexAddress(self.q, self.labels[:-1])

    def child(self, label: int) -> VertexAddress:
        return VertexAddress(self.q, self.labels + (label,))

    def children(self) -> Iterator[VertexAddress]:
        top = self.q if self.is_origin else self.q - 1
        for label in range(top + 1):
            yield self.child(label)

    def neighbors(self) -> Iterator[VertexAddress]:
        """The q+1 adjacent vertices (parent first for non-origin words)."""
        if self.labels:
            yield self.parent()
        yield from self.children()

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


def sphere_volume(q: int, n: int) -> int:
    """Number of vertices at distance n from any fixed vertex:
    1 for n = 0, (q+1)*q^(n-1) for n >= 1."""
    if n < 0:
        raise ParameterError("sphere radius must be >= 0")
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
        if self.q < 2:
            raise ParameterError(f"q must be >= 2, got {self.q}")
        if self.radius < 0:
            raise ParameterError(f"ball radius must be >= 0, got {self.radius}")

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
    """All vertices at distance exactly n from ``center``, in canonical order.

    Requires |center| + n <= ball.radius so the whole sphere lies inside the
    truncation ball; violations raise ``TruncationError`` rather than
    silently clipping.
    """
    if center.q != ball.q:
        raise ParameterError(f"center q={center.q} does not match ball q={ball.q}")
    if n < 0:
        raise ParameterError("sphere radius must be >= 0")
    if center.depth + n > ball.radius:
        raise TruncationError(
            f"sphere of radius {n} about a vertex at depth {center.depth} "
            f"escapes the ball of radius {ball.radius}"
        )
    result: list[VertexAddress] = []

    def walk(vertex: VertexAddress, previous: VertexAddress | None, remaining: int):
        if remaining == 0:
            result.append(vertex)
            return
        for nb in vertex.neighbors():
            if previous is None or nb != previous:
                walk(nb, vertex, remaining - 1)

    walk(center, None, n)
    result.sort(key=VertexAddress.sort_key)
    return result
