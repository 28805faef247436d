"""Packed functions: the one place where a function's values are summed.

A packed function keeps one list per depth d = 0..R.  Two choices stay
separate.

The *number type* decides only packing, unpacking, linear combinations
(sums, negation, scaling by a scalar), the scalars of the step, mean and
two-step operators and how a final scalar is built.  Exact data are
integer pairs (A, B) standing for (A + B*sqrt(q)) / D, one part list for A
and one for B, over one common denominator D per function; when q is a
perfect square, sqrt(q) is folded into A and every B is 0, as in ``QSurd``.
float64 data are one part list of floats with D = 1.

The *layout* decides only the neighbour sum of one part, the ball mean M_n,
the distance-2 pair enumeration and the weight of an entry:

- vertex data (``Levels``): depth d lists the vertices of the sphere S(d) in
  the canonical order of ``Ball.vertices()``: the origin, its q+1 children,
  and then, for every vertex j at depth d >= 1, its children jq .. jq+q-1.
  Every entry has weight 1.  The parent of the vertices at depth d >= 2 is
  each entry of depth d-1 repeated q times, the children of depth d >= 1 are
  the strided slices [r::q] of depth d+1, and the distance-2 partners of a
  vertex (siblings, grandparent, grandchildren) are slices too.  The
  descendants at depth d + t of vertex i at depth d >= 1 are the index range
  [i*q^t, (i+1)*q^t), which is how the parity ball mean M_n is built.
- radial profiles (``RadialLevels``): one entry per depth, standing for the
  |S(d)| = ``sphere_volume(q, d)`` vertices of that sphere, which is its
  weight.  The neighbour sum is (q+1)*p(1) at the origin and
  p(m-1) + q*p(m+1) elsewhere, and M_n is the convolution with the M_n
  kernel.  The distance-2 pairs are the grandparent pairs (d, d+2),
  |S(d+2)| of them; siblings share a value and add 0.
- height sequences (``HeightLevels``): depth |h| holds s(h), and at depth
  d >= 1 also s(-d) after s(d).  Only packing and the linear combinations
  apply.

Kinetic energy, mass, the pair-sum potential, the counting inner product,
the three Huygens interior sums, the linear combinations, the leapfrog
step and the tree and two-step Laplacians are written once over these two
choices, so vertex and radial data share one operator algebra.  No
``Fraction`` is built inside a loop; values become ``QSurd`` only when a
function is materialised or a sum is returned.  The cost of a vertex
operation grows with the ball of the support radius, not with the support.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, islice, repeat
from math import fsum, gcd, lcm
from operator import add, mul, neg, sub

from .scalars import QSurd, Scalar, ScalarMode, _square_root_if_perfect, sqrt_q_power
from .topology import VertexAddress, distance_count, sphere_volume

EXACT = ScalarMode.EXACT


def _vertex_index(vertex: VertexAddress, q: int) -> int:
    index = 0
    for label in vertex.labels:
        index = index * q + label
    return index


def _scaled(c, level: list) -> list:
    return level if c == 1 else list(map(mul, level, repeat(c, len(level))))


def _combine(cx, x: list, cy, y: list) -> list:
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


def _times_sqrt(q: int, parts: list) -> list:
    """Exact parts times sqrt(q) over the same denominator:
    sqrt(q) * (a + b*sqrt(q)) = q*b + a*sqrt(q), or root*a for a square q."""
    a, b = parts
    root = _square_root_if_perfect(q)
    if root is None:
        return [[[q * v for v in level] for level in b], a]
    return [[[root * v for v in level] for level in a], b]


def _descendants(q: int, e: int, i: int, t: int) -> tuple[int, int]:
    """Index range at depth e + t of the descendants of vertex i at depth e."""
    if e == 0:
        return (0, 1) if t == 0 else (0, (q + 1) * q ** (t - 1))
    return i * q**t, (i + 1) * q**t


def _sphere_ranges(q: int, k: int, j: int, n: int):
    """(depth, lo, hi) index ranges that together list, once each, the
    vertices x with d(x, y) <= n and n - d(x, y) even, for the vertex y at
    depth k and index j.  The geodesic from y climbs a steps to its ancestor
    z and descends d - a steps without going back through the child of z
    towards y; both the descendants of z and those of that child are one
    range, so each (d, a) gives at most two."""
    for d in range(n % 2, n + 1, 2):
        for a in range(min(d, k) + 1):
            e, t = k - a, d - a
            lo, hi = _descendants(q, e, j // q**a, t)
            if a and t:
                cut_lo, cut_hi = _descendants(q, e + 1, j // q ** (a - 1), t - 1)
                yield e + t, lo, cut_lo
                yield e + t, cut_hi, hi
            else:
                yield e + t, lo, hi


def _adjacent(levels: list, q: int) -> list:
    """Neighbour sum of one part: depth d of the result holds the parent
    value plus the child sums of every vertex at depth d, added in that
    order (which keeps float64 sums bit-identical to a neighbour scatter)."""
    radius = len(levels) - 1
    if radius < 0:
        return []
    out = [[reduce(add, levels[1]) if radius >= 1 else 0]]
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


def _radial_adjacent(levels: list, q: int) -> list:
    """Neighbour sum of one radial part: (q+1)*p(1) at the origin and
    p(m-1) + q*p(m+1) at m >= 1."""
    p = [level[0] for level in levels]
    radius = len(p) - 1
    if radius < 0:
        return []
    out = [(q + 1) * p[1] if radius >= 1 else 0]
    for m in range(1, radius + 2):
        out.append(p[m - 1] + q * p[m + 1] if m < radius else p[m - 1])
    return [[value] for value in out]


class _Packed:
    """A function packed by number type and layout (see module docstring).
    Immutable by convention; trailing all-zero depths are trimmed and D is
    reduced, so the zero function has no depths at all."""

    __slots__ = ("q", "mode", "den", "parts")

    def __init__(self, q: int, mode: ScalarMode, den: int, parts: list):
        while parts[0] and not any(any(part[-1]) for part in parts):
            parts = [part[:-1] for part in parts]
        if not parts[0]:
            den = 1
        elif den != 1:
            common = gcd(den, *chain.from_iterable(chain.from_iterable(parts)))
            if common != 1:
                den //= common
                parts = [[[v // common for v in level] for level in part] for part in parts]
        self.q, self.mode, self.den, self.parts = q, mode, den, parts

    # -- number type ----------------------------------------------------------

    @classmethod
    def _pack(cls, q: int, mode: ScalarMode, radius: int, entries) -> _Packed:
        """Pack (depth, index, scalar) entries of nonzero values."""
        sizes = [cls._size(q, d) for d in range(radius + 1)]
        if mode is not EXACT:
            values = [[0.0] * size for size in sizes]
            for d, j, value in entries:
                values[d][j] = value
            return cls(q, mode, 1, [values])
        entries = list(entries)
        den = lcm(*(part.denominator for _, _, value in entries for part in (value.a, value.b)))
        a = [[0] * size for size in sizes]
        b = [[0] * size for size in sizes]
        for d, j, value in entries:
            a[d][j] = value.a.numerator * (den // value.a.denominator)
            b[d][j] = value.b.numerator * (den // value.b.denominator)
        return cls(q, mode, den, [a, b])

    def _products(self, xs: list, ys: list) -> list:
        """The parts of sum x*y over aligned slices of x's and y's parts:
        [sum xa*ya, sum xb*yb, sum xa*yb + xb*ya] for exact data, [sum x*y]
        for float64 (with ``fsum``, which rounds alike on every Python)."""
        if self.mode is not EXACT:
            return [fsum(map(mul, xs[0], ys[0]))]
        (xa, xb), (ya, yb) = xs, ys
        if xs is ys:
            cross = 2 * sum(map(mul, xa, xb))
        else:
            cross = sum(map(mul, xa, yb)) + sum(map(mul, xb, ya))
        return [sum(map(mul, xa, ya)), sum(map(mul, xb, yb)), cross]

    def _scalar(self, total: list, scale: int) -> Scalar:
        """The scalar (sum x*y) / scale from the parts ``_products`` built."""
        if self.mode is not EXACT:
            return total[0] / scale
        q = self.q
        return QSurd(Fraction(total[0] + q * total[1], scale), Fraction(total[2], scale), q)

    def _unpacked(self, level: tuple):
        """(index, scalar) of the nonzero entries of one depth (its parts)."""
        if self.mode is not EXACT:
            return ((j, x) for j, x in enumerate(level[0]) if x)
        q, den, zero = self.q, self.den, Fraction(0)
        return (
            (j, QSurd(Fraction(x, den) if x else zero, Fraction(y, den) if y else zero, q))
            for j, (x, y) in enumerate(zip(*level))
            if x or y
        )

    def _sum_with(self, other: _Packed, sign: int) -> tuple[int, list]:
        """(D, parts) of self + sign * other over their common denominator."""
        den = lcm(self.den, other.den)
        cx, cy = den // self.den, sign * (den // other.den)
        return den, [_combine(cx, x, cy, y) for x, y in zip(self.parts, other.parts)]

    def __add__(self, other: _Packed) -> _Packed:
        return type(self)(self.q, self.mode, *self._sum_with(other, 1))

    def __sub__(self, other: _Packed) -> _Packed:
        # float64: x - y rounds exactly as x + (-y)
        return type(self)(self.q, self.mode, *self._sum_with(other, -1))

    def __neg__(self) -> _Packed:
        parts = [[list(map(neg, level)) for level in part] for part in self.parts]
        return type(self)(self.q, self.mode, self.den, parts)

    def scale(self, factor: Scalar) -> _Packed:
        """factor * self: a float64 factor multiplies every entry, an exact
        one enters as an integer pair over its own denominator."""
        q, mode = self.q, self.mode
        if mode is not EXACT:
            return type(self)(q, mode, 1, [[_scaled(factor, level) for level in self.parts[0]]])
        a, b = factor.a, factor.b
        den = lcm(a.denominator, b.denominator)
        fa, fb = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        x, y = self.parts
        if fb:  # (fa + fb*sqrt(q)) (x + y*sqrt(q))
            parts = [_combine(fa, x, q * fb, y), _combine(fb, x, fa, y)]
        else:
            parts = [[_scaled(fa, level) for level in part] for part in self.parts]
        return type(self)(q, mode, self.den * den, parts)

    # -- layout -------------------------------------------------------------------

    @staticmethod
    def _size(q: int, d: int) -> int:
        """Number of entries stored at depth d."""
        raise NotImplementedError

    def _weight(self, d: int) -> int:
        """Number of vertices of the sphere S(d) one entry stands for."""
        return sphere_volume(self.q, d) // self._size(self.q, d)

    def _distance_two_pairs(self):
        """Every unordered pair of vertices at distance 2 with a stored end
        that can differ in value, as (depth of the deeper end, x slices,
        y slices, multiplicity); y is None where its values are all 0."""
        raise NotImplementedError

    def _adjacent_part(self, part: list) -> list:
        """Neighbour sum of one part; the module-level ``_adjacent`` or
        ``_radial_adjacent`` is looked up at each call."""
        raise NotImplementedError

    # -- operators, written once ----------------------------------------------------

    def _neighbour_sums(self) -> list:
        """The parts of x -> sum of the values at the q+1 neighbours of x."""
        return [self._adjacent_part(part) for part in self.parts]

    def adjacency(self) -> _Packed:
        """x -> sum of the values at the q+1 neighbours of x."""
        return type(self)(self.q, self.mode, self.den, self._neighbour_sums())

    def step(self, previous: _Packed) -> _Packed:
        """The leapfrog (1/sqrt(q)) * adjacency(self) - previous."""
        q, mode = self.q, self.mode
        pushed = self._neighbour_sums()
        if mode is not EXACT:
            weight = sqrt_q_power(q, -1, mode)
            return type(self)(q, mode, 1, [_combine(weight, pushed[0], -1, previous.parts[0])])
        # sqrt(q) * (a + b*sqrt(q)) / (q D)
        pushed_den = q * self.den
        den = lcm(pushed_den, previous.den)
        cx, cy = den // pushed_den, -(den // previous.den)
        parts = [_combine(cx, x, cy, y) for x, y in zip(_times_sqrt(q, pushed), previous.parts)]
        return type(self)(q, mode, den, parts)

    def _minus_over(self, parts: list, weight: int) -> _Packed:
        """self - parts / weight, for parts over the denominator of self."""
        q, mode = self.q, self.mode
        if mode is not EXACT:
            return type(self)(q, mode, 1, [_combine(1, self.parts[0], -1 / weight, parts[0])])
        return type(self)(
            q,
            mode,
            weight * self.den,
            [_combine(weight, p, -1, s) for p, s in zip(self.parts, parts)],
        )

    def laplacian(self) -> _Packed:
        """u - Adj u / (q+1)."""
        return self._minus_over(self._neighbour_sums(), self.q + 1)

    def two_step_laplacian(self) -> _Packed:
        """u - S2 u / (q(q+1)), with the distance-2 sphere sum taken as
        S2 = Adj^2 - (q+1) I (paths of length 2 that do not return)."""
        q, adjacent = self.q, self._adjacent_part
        spheres = [_combine(1, adjacent(adjacent(p)), -(q + 1), p) for p in self.parts]
        return self._minus_over(spheres, q * (q + 1))

    # -- sums, written once -------------------------------------------------------

    def _sum(self, terms) -> list:
        """Parts of sum weight * (x*y) over the (weight, xs, ys) terms."""
        total = [0, 0, 0] if self.mode is EXACT else [0.0]
        for weight, xs, ys in terms:
            for i, value in enumerate(self._products(xs, ys)):
                total[i] += weight * value
        return total

    def _squares(self, parts: list, limit: int | None = None):
        """Weighted square terms of the depths d < limit (all if None)."""
        depths = zip(*parts) if limit is None else islice(zip(*parts), max(limit, 0))
        return ((self._weight(d), level, level) for d, level in enumerate(depths))

    def _pair_squares(self, limit: int | None = None):
        """Square terms of the distance-2 differences over unordered pairs
        with both ends at depth < limit (all if None)."""
        for deeper, xs, ys, count in self._distance_two_pairs():
            if limit is None or deeper < limit:
                diff = xs if ys is None else [list(map(sub, x, y)) for x, y in zip(xs, ys)]
                yield count, diff, diff

    def dot(self, other: _Packed) -> Scalar:
        """Counting inner product sum_x u(x) v(x)."""
        terms = (
            (self._weight(d), x, y)
            for d, (x, y) in enumerate(zip(zip(*self.parts), zip(*other.parts)))
        )
        return self._scalar(self._sum(terms), self.den * other.den)

    def kinetic(self, minus: _Packed) -> Scalar:
        """(1/2) * sum_x ((u(x) - v(x)) / 2)^2 with u = self, v = minus."""
        den, parts = self._sum_with(minus, -1)
        return self._scalar(self._sum(self._squares(parts)), 8 * den * den)

    def potential_pair(self) -> Scalar:
        """(1/(4q)) sum over ordered pairs at distance 2 of ((u(x)-u(y))/2)^2
        - ((q-1)^2/(8q)) sum_x u(x)^2, with the pairs enumerated one by one.
        Ordered pairs count every unordered pair twice, so both terms share
        the scale 8q D^2."""
        q, c = self.q, (self.q - 1) ** 2
        pair = self._sum(self._pair_squares())
        mass = self._sum(self._squares(self.parts))
        return self._scalar([p - c * m for p, m in zip(pair, mass)], 8 * q * self.den**2)

    def huygens_sums(self, plus: _Packed, minus: _Packed, limit: int) -> tuple:
        """The interior sums over depths < limit: sum u^2, the squared
        distance-2 differences over ordered pairs with both ends interior,
        and sum (plus - minus)^2."""
        den2 = self.den**2
        mass = self._scalar(self._sum(self._squares(self.parts, limit)), den2)
        pairs = self._sum(self._pair_squares(limit))
        gradient = self._scalar([2 * value for value in pairs], den2)
        den, parts = plus._sum_with(minus, -1)
        kinetic = self._scalar(self._sum(self._squares(parts, limit)), den * den)
        return mass, gradient, kinetic


class Levels(_Packed):
    """A vertex function on the origin ball in canonical order, with M_n
    built from geodesic index ranges."""

    __slots__ = ()

    @classmethod
    def pack(cls, q: int, mode: ScalarMode, values) -> Levels:
        """Pack a mapping vertex -> scalar (nonzero values only)."""
        radius = max((vertex.depth for vertex in values), default=-1)
        entries = (
            (vertex.depth, _vertex_index(vertex, q), value) for vertex, value in values.items()
        )
        return cls._pack(q, mode, radius, entries)

    @staticmethod
    def _size(q: int, d: int) -> int:
        return sphere_volume(q, d)

    def _distance_two_pairs(self):
        q, parts = self.q, self.parts
        radius = len(parts[0]) - 1

        def cut(d: int, *bounds) -> list:
            window = slice(*bounds)
            return [part[d][window] for part in parts]

        for d in range(radius + 1):
            level = [part[d] for part in parts]
            if d == 1:  # the q+1 children of the origin
                for shift in range(1, q + 1):
                    yield 1, cut(1, shift, None), cut(1, None, -shift), 1
            elif d >= 2:  # groups of q consecutive children
                for r in range(q):
                    for s in range(r + 1, q):
                        yield d, cut(d, r, None, q), cut(d, s, None, q), 1
            if d + 2 > radius:
                yield d + 2, level, None, (q + 1) * q if d == 0 else q * q
            elif d == 0:
                yield 2, [part[0] * len(part[2]) for part in parts], [part[2] for part in parts], 1
            else:  # the grandchildren of j are j*q^2 .. j*q^2 + q^2 - 1
                stride = q * q
                for t in range(stride):
                    yield d + 2, level, cut(d + 2, t, None, stride), 1

    def _adjacent_part(self, part: list) -> list:
        return _adjacent(part, self.q)

    def values(self) -> dict:
        """The nonzero values as vertex -> scalar, in canonical order."""
        q = self.q
        out = {}
        labels = [()]
        for d, level in enumerate(zip(*self.parts)):
            if d:
                branches = range(q + 1 if d == 1 else q)
                labels = [word + (label,) for word in labels for label in branches]
            for j, value in self._unpacked(level):
                out[VertexAddress(q, labels[j])] = value
        return out

    def ball_mean(self, n: int) -> Levels:
        """M_n for n >= 1: q^(-n/2) times the sum of the values at the
        vertices y with d(x, y) <= n and n - d(x, y) even.  Each stored value
        is added, source by source in canonical order, to the index ranges
        of its spheres (``_sphere_ranges``); no neighbour sum is taken, which
        keeps this route independent of the leapfrog.  A float64 value is
        weighted before it is added; exact parts are weighted once at the
        end, through the denominator and the sqrt(q) swap of ``step``."""
        q, mode, exact = self.q, self.mode, self.mode is EXACT
        radius = len(self.parts[0]) - 1
        zero = 0 if exact else 0.0
        out = [
            [[zero] * sphere_volume(q, e) for e in range(radius + n + 1)] for _ in self.parts
        ]
        weight = 1 if exact else sqrt_q_power(q, -n, mode)
        for k, level in enumerate(zip(*self.parts)):
            for j, values in enumerate(zip(*level)):
                spread = [(part, value * weight) for part, value in zip(out, values) if value]
                if not spread:
                    continue
                for depth, lo, hi in _sphere_ranges(q, k, j, n):
                    if lo < hi:
                        for part, value in spread:
                            target = part[depth]
                            target[lo:hi] = map(add, target[lo:hi], repeat(value, hi - lo))
        if not exact:
            return Levels(q, mode, 1, out)
        if n % 2:  # q^(-n/2) = sqrt(q) / q^((n+1)/2)
            return Levels(q, mode, self.den * q ** ((n + 1) // 2), _times_sqrt(q, out))
        return Levels(q, mode, self.den * q ** (n // 2), out)


class RadialLevels(_Packed):
    """A radial profile p, standing for x -> p(|x|): one entry per depth,
    weighted by the sphere volume.  Packed per call, never cached."""

    __slots__ = ()

    @classmethod
    def pack(cls, q: int, mode: ScalarMode, values) -> RadialLevels:
        """Pack a mapping radius -> scalar (nonzero values only)."""
        radius = max(values, default=-1)
        return cls._pack(q, mode, radius, ((m, 0, value) for m, value in values.items()))

    @staticmethod
    def _size(q: int, d: int) -> int:
        return 1

    def _distance_two_pairs(self):
        parts = self.parts
        radius = len(parts[0]) - 1
        for d in range(radius + 1):
            partner = [part[d + 2] for part in parts] if d + 2 <= radius else None
            yield d + 2, [part[d] for part in parts], partner, sphere_volume(self.q, d + 2)

    def _adjacent_part(self, part: list) -> list:
        return _radial_adjacent(part, self.q)

    def values(self) -> dict:
        """The nonzero values as radius -> scalar, in increasing radius."""
        levels = enumerate(zip(*self.parts))
        return {m: value for m, level in levels for _, value in self._unpacked(level)}

    def ball_mean(self, n: int) -> RadialLevels:
        """M_n for n >= 1, as the convolution with its distance kernel
        q^(-n/2) at the distances d <= n with n - d even; no neighbour sum
        is taken."""
        q, mode = self.q, self.mode
        weight = sqrt_q_power(q, -n, mode)
        kernel = self._pack(q, mode, n, ((d, 0, weight) for d in range(n % 2, n + 1, 2)))
        return self.convolve(kernel)

    def convolve(self, kernel: RadialLevels) -> RadialLevels:
        """The radial operator with distance kernel ``kernel`` applied to this
        profile p: out(m) = sum_d kernel(d) sum_r count(m, d, r) p(r), where
        ``count(m, d, r)`` = ``distance_count(q, m, d, r)`` is the number of
        vertices at radius r and distance d from a vertex at radius m.  Terms
        are added in the order of d, then r, then m, each as
        (kernel(d) p(r)) * count."""
        q, mode = self.q, self.mode
        ks = [[level[0] for level in part] for part in kernel.parts]
        ps = [[level[0] for level in part] for part in self.parts]
        exact = mode is EXACT
        out = [[0 if exact else 0.0] * (len(ks[0]) + len(ps[0]) - 1) for _ in self.parts]
        for d, kd in enumerate(zip(*ks)):
            for r, pr in enumerate(zip(*ps)):
                if exact:
                    (ka, kb), (pa, pb) = kd, pr
                    pair = (ka * pa + q * kb * pb, ka * pb + kb * pa)
                else:
                    pair = (kd[0] * pr[0],)
                if not any(pair):
                    continue
                for m in range(abs(d - r), d + r + 1, 2):
                    c = distance_count(q, m, d, r)
                    if c:
                        for part, value in zip(out, pair):
                            part[m] += value * c
        return RadialLevels(q, mode, kernel.den * self.den, [[[v] for v in part] for part in out])


class HeightLevels(_Packed):
    """A function s of the horocyclic height: depth 0 holds s(0), depth
    d >= 1 holds s(d) and s(-d).  Packed per call, never cached."""

    __slots__ = ()

    @classmethod
    def pack(cls, q: int, mode: ScalarMode, values) -> HeightLevels:
        """Pack a mapping height -> scalar (nonzero values only)."""
        radius = max(map(abs, values), default=-1)
        entries = ((abs(h), int(h < 0), value) for h, value in values.items())
        return cls._pack(q, mode, radius, entries)

    @staticmethod
    def _size(q: int, d: int) -> int:
        return 2 if d else 1

    def values(self) -> dict:
        """The nonzero values as height -> scalar, by |h|, h >= 0 first."""
        levels = enumerate(zip(*self.parts))
        return {-d if j else d: value for d, level in levels for j, value in self._unpacked(level)}
