"""Exact vertex functions on the origin ball as integer level arrays.

A function supported in ``Ball(q, R)`` is stored as one list per depth
d = 0..R, in the canonical order of ``Ball.vertices()``: the origin, its q+1
children, and then, for every vertex j at depth d >= 1, its children
jq .. jq+q-1 at depth d+1.  Each value is an integer pair (A, B) standing for
(A + B*sqrt(q)) / D, with one common denominator D for the whole function.
When q is a perfect square, sqrt(q) is folded into A and every B is 0, as in
``QSurd``.

With this layout the neighbour sum is slice arithmetic on Python integers:
the parent of the vertices at depth d >= 2 is each entry of depth d-1
repeated q times, and the children of the vertices at depth d >= 1 are the
strided slices [r::q] of depth d+1.  The distance-2 partners of a vertex are
its siblings, its grandparent and its grandchildren, which are slices too.
No ``Fraction`` is built inside a loop; values become ``QSurd`` only when a
function is materialised or an energy is returned.

The cost of every operation grows with the ball of the support radius, not
with the support itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, mul, sub

from .scalars import QSurd, _square_root_if_perfect
from .topology import VertexAddress, sphere_volume


def _vertex_index(vertex: VertexAddress, q: int) -> int:
    index = 0
    for label in vertex.labels:
        index = index * q + label
    return index


def _scaled(c: int, level: list) -> list:
    return level if c == 1 else list(map(mul, level, repeat(c, len(level))))


def _combine(cx: int, x: list, cy: int, y: list) -> list:
    """cx*x + cy*y depth by depth; a missing depth counts as zero."""
    out = []
    for d in range(max(len(x), len(y))):
        if d >= len(y):
            out.append(_scaled(cx, x[d]))
        elif d >= len(x):
            out.append(_scaled(cy, y[d]))
        elif cy == -1:
            out.append(list(map(sub, _scaled(cx, x[d]), y[d])))
        else:
            out.append(list(map(add, _scaled(cx, x[d]), _scaled(cy, y[d]))))
    return out


def _adjacent(levels: list, q: int) -> list:
    """Neighbour sum of one integer component: depth d of the result holds
    the parent value plus the child sum of every vertex at depth d."""
    radius = len(levels) - 1
    if radius < 0:
        return []
    out = [[sum(levels[1]) if radius >= 1 else 0]]
    for d in range(1, radius + 2):
        parent = levels[d - 1]
        if d == 1:
            level = parent * (q + 1)
        else:
            level = [0] * (len(parent) * q)
            for r in range(q):
                level[r::q] = parent
        if d < radius:
            children = levels[d + 1]
            for r in range(q):
                level = list(map(add, level, children[r::q]))
        out.append(level)
    return out


def _square_sums(xa, xb, ya=None, yb=None) -> tuple[int, int, int]:
    """(sum da^2, sum db^2, sum da*db) for d = x - y elementwise (y = 0 if
    omitted)."""
    if ya is not None:
        xa = list(map(sub, xa, ya))
        xb = list(map(sub, xb, yb))
    return sum(map(mul, xa, xa)), sum(map(mul, xb, xb)), sum(map(mul, xa, xb))


class Levels:
    """An exact vertex function packed as integer level arrays (see module
    docstring).  Immutable by convention; trailing all-zero depths are
    trimmed and D is reduced, so the zero function has no depths at all."""

    __slots__ = ("q", "den", "a", "b")

    def __init__(self, q: int, den: int, a: list, b: list):
        while a and not any(a[-1]) and not any(b[-1]):
            a, b = a[:-1], b[:-1]
        if not a:
            den = 1
        elif den != 1:
            common = gcd(den, *chain.from_iterable(a), *chain.from_iterable(b))
            if common != 1:
                den //= common
                a = [[v // common for v in level] for level in a]
                b = [[v // common for v in level] for level in b]
        self.q, self.den, self.a, self.b = q, den, a, b

    @classmethod
    def pack(cls, q: int, values) -> Levels:
        """Pack a mapping vertex -> QSurd (nonzero values only)."""
        if not values:
            return cls(q, 1, [], [])
        den = lcm(*(part.denominator for value in values.values() for part in (value.a, value.b)))
        radius = max(vertex.depth for vertex in values)
        a = [[0] * sphere_volume(q, d) for d in range(radius + 1)]
        b = [[0] * sphere_volume(q, d) for d in range(radius + 1)]
        for vertex, value in values.items():
            d, j = vertex.depth, _vertex_index(vertex, q)
            a[d][j] = value.a.numerator * (den // value.a.denominator)
            b[d][j] = value.b.numerator * (den // value.b.denominator)
        return cls(q, den, a, b)

    def values(self) -> dict:
        """The nonzero values as vertex -> QSurd, in canonical order."""
        q, den = self.q, self.den
        zero = Fraction(0)
        out = {}
        labels = [()]
        for d, (level_a, level_b) in enumerate(zip(self.a, self.b)):
            if d:
                branches = range(q + 1 if d == 1 else q)
                labels = [word + (label,) for word in labels for label in branches]
            for j, (x, y) in enumerate(zip(level_a, level_b)):
                if x or y:
                    out[VertexAddress(q, labels[j])] = QSurd(
                        Fraction(x, den) if x else zero, Fraction(y, den) if y else zero, q
                    )
        return out

    def _times_sqrt(self, a: list, b: list) -> tuple[list, list]:
        """sqrt(q) * (a + b*sqrt(q)) = q*b + a*sqrt(q), folded for square q."""
        root = _square_root_if_perfect(self.q)
        if root is None:
            return [[self.q * v for v in level] for level in b], a
        return [[root * v for v in level] for level in a], b

    def adjacency(self) -> Levels:
        """x -> sum of the values at the q+1 neighbours of x."""
        return Levels(self.q, self.den, _adjacent(self.a, self.q), _adjacent(self.b, self.q))

    def step(self, previous: Levels) -> Levels:
        """The leapfrog (1/sqrt(q)) * adjacency(self) - previous."""
        q = self.q
        pushed_a, pushed_b = self._times_sqrt(_adjacent(self.a, q), _adjacent(self.b, q))
        pushed_den = q * self.den
        den = lcm(pushed_den, previous.den)
        cx, cy = den // pushed_den, -(den // previous.den)
        return Levels(
            q, den, _combine(cx, pushed_a, cy, previous.a), _combine(cx, pushed_b, cy, previous.b)
        )

    def two_step_laplacian(self) -> Levels:
        """u - S2 u / (q(q+1)), with the distance-2 sphere sum taken as
        S2 = Adj^2 - (q+1) I (paths of length 2 that do not return)."""
        q = self.q
        sphere_a = _combine(1, _adjacent(_adjacent(self.a, q), q), -(q + 1), self.a)
        sphere_b = _combine(1, _adjacent(_adjacent(self.b, q), q), -(q + 1), self.b)
        weight = q * (q + 1)
        return Levels(
            q,
            weight * self.den,
            _combine(weight, self.a, -1, sphere_a),
            _combine(weight, self.b, -1, sphere_b),
        )

    def _surd(self, rational: int, surd: int, scale: int) -> QSurd:
        return QSurd(Fraction(rational, scale), Fraction(surd, scale), self.q)

    def dot(self, other: Levels) -> QSurd:
        """Counting inner product sum_x u(x) v(x)."""
        q = self.q
        rational = surd = 0
        for ua, ub, va, vb in zip(self.a, self.b, other.a, other.b):
            rational += sum(map(mul, ua, va)) + q * sum(map(mul, ub, vb))
            surd += sum(map(mul, ua, vb)) + sum(map(mul, ub, va))
        return self._surd(rational, surd, self.den * other.den)

    def kinetic(self, minus: Levels) -> QSurd:
        """(1/2) * sum_x ((u(x) - v(x)) / 2)^2 with u = self, v = minus."""
        q = self.q
        den = lcm(self.den, minus.den)
        cx, cy = den // self.den, -(den // minus.den)
        rational = surd = 0
        for da, db in zip(_combine(cx, self.a, cy, minus.a), _combine(cx, self.b, cy, minus.b)):
            aa, bb, ab = _square_sums(da, db)
            rational += aa + q * bb
            surd += 2 * ab
        return self._surd(rational, surd, 8 * den * den)

    def _distance_two_pairs(self):
        """Every unordered pair of vertices at distance 2 with a stored end,
        once, as aligned slices (x_a, x_b, y_a, y_b, multiplicity): siblings,
        then grandparent and grandchildren.  y is None for the grandchildren
        beyond the stored ball, whose values are 0."""
        q, a, b = self.q, self.a, self.b
        radius = len(a) - 1
        for d in range(radius + 1):
            xa, xb = a[d], b[d]
            if d == 1:  # the q+1 children of the origin
                for shift in range(1, q + 1):
                    yield xa[shift:], xb[shift:], xa[:-shift], xb[:-shift], 1
            elif d >= 2:  # groups of q consecutive children
                for r in range(q):
                    for s in range(r + 1, q):
                        yield xa[r::q], xb[r::q], xa[s::q], xb[s::q], 1
            if d + 2 > radius:
                yield xa, xb, None, None, (q + 1) * q if d == 0 else q * q
            elif d == 0:
                ya, yb = a[2], b[2]
                yield xa * len(ya), xb * len(yb), ya, yb, 1
            else:  # the grandchildren of j are j*q^2 .. j*q^2 + q^2 - 1
                ya, yb, stride = a[d + 2], b[d + 2], q * q
                for t in range(stride):
                    yield xa, xb, ya[t::stride], yb[t::stride], 1

    def potential_pair(self) -> QSurd:
        """(1/(4q)) sum over ordered pairs at distance 2 of ((u(x)-u(y))/2)^2
        - ((q-1)^2/(8q)) sum_x u(x)^2, with the pairs enumerated one by one."""
        q = self.q
        pair = [0, 0, 0]  # da^2, db^2, da*db over unordered pairs
        for xa, xb, ya, yb, count in self._distance_two_pairs():
            for i, total in enumerate(_square_sums(xa, xb, ya, yb)):
                pair[i] += count * total
        mass = [0, 0, 0]
        for xa, xb in zip(self.a, self.b):
            for i, total in enumerate(_square_sums(xa, xb)):
                mass[i] += total
        # ordered pairs count every unordered pair twice
        den2 = self.den * self.den
        pair_scale = 8 * q * den2
        mass_weight = Fraction((q - 1) ** 2, 8 * q * den2)
        return QSurd(
            Fraction(pair[0] + q * pair[1], pair_scale) - mass_weight * (mass[0] + q * mass[1]),
            Fraction(2 * pair[2], pair_scale) - mass_weight * (2 * mass[2]),
            q,
        )
