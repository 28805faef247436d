"""Packed functions: the one place where a function's values are summed.

A packed function keeps its values in parts, one list (a row) per depth
d = 0..R, or one flat list for radial profiles.  Two choices stay separate.

The *number type* decides only packing, unpacking, linear combinations
(sums, negation, scaling by a scalar), the scalars of the step, mean and
two-step operators and how a final scalar is built.  Exact data are
integer pairs (A, B) standing for (A + B*sqrt(q)) / D, one part list for A
and one for B, over one common denominator D per function; when q is a
perfect square, sqrt(q) is folded into A and every B is 0, as in ``QSurd``.
float64 data are one part list of floats with D = 1.

The *layout* decides only the storage shape of a part, the neighbour sum of
one part, the ball mean M_n, the distance-2 pair enumeration, the weight of
an entry and the keys it stands for (``_key_rows``):

- vertex data: the orbit layout of radius R (``Levels``, one class per R
  from ``orbit_layout``).  Depths d <= R list the vertices of the sphere
  S(d) in the canonical order of ``Ball.vertices()``: the origin, its q+1
  children, and then, for every vertex j at depth d >= 1, its children
  jq .. jq+q-1.  Each depth d > R holds one entry per vertex a of S(R), in
  the index order of depth R, standing for the |S(d)|/|S(R)| descendants
  of a at depth d, its weight; an entry of depth d <= R has weight 1.  Data
  supported in Ball(R) keep this form under the wave step: the
  automorphisms that fix Ball(R) permute those descendants.  ``pack`` takes
  R to be the data radius, so data built in Ball(R) are orbit data with no
  tail, and a layout whose radius no stored depth passes is the plain
  vertex layout.  Up to depth R the parent of the vertices at depth d >= 2
  is each entry of depth d-1 repeated q times, the children of depth d >= 1
  are the strided slices [r::q] of depth d+1, and the descendants at depth
  d + t of vertex i at depth d >= 1 are the index range [i*q^t, (i+1)*q^t).
  Beyond R the parent of an entry is the entry of the same index one depth
  up, and from depth R on the q children of an entry (q+1 at the origin
  when R = 0) are the one entry of the same index one depth down; float64
  adds that entry q times in sequence, as the vertex rows add q children.
  The distance-2 partners of a vertex (siblings, grandparent,
  grandchildren) are slices too, up to one depth past the last stored one,
  whose entries are 0; siblings beyond R share a value and add 0.  M_n
  and C_n of both number types, tail or not, stay in the layout: one pass
  down the stored depths and one pass up give the parity sums P_x(m) of
  the distance sums about every entry x (``_parity_rows``), and a vertex
  below the last stored depth t reaches the data only through its ancestor
  at depth t.
  Those sums are kept on the datum (``_kept_parity_rows``), so the M_n of
  one closed solve sum the data once, not once per n, and a datum with a
  long tail is summed only to about the distances asked.  Operands of
  different radii meet in the layout of the larger radius
  (``_one_layout``): widening (``_widen``) expands only the rows between
  the two radii.
- radial profiles (``RadialLevels``): the orbit layout of radius 0, stored
  flat: each part is one list indexed by radius, whose entry m stands for
  the |S(m)| = ``sphere_volume(q, m)`` vertices of that sphere, its weight
  in the sums (as a key it is the one radius m).
  One list per part, not one row per depth, keeps a step, a sum or an
  energy of the long radial runs several times cheaper.  A linear
  combination is one ``map`` per part and a weighted sum one term per
  part, whose weights |S(m)| are one running product.  The neighbour sum
  is (q+1)*p(1) at the origin and p(m-1) + q*p(m+1) elsewhere.  Read as
  orbit data of radius 0 (``Levels.from_radial``), a profile has the
  parity sums of the vertex kernel ``_parity_rows`` and keeps them as
  vertex data do, so M_n and C_n take the one body vertex data take
  (``ball_mean``, ``cosine``), with no kernel built, in O(n + R).  A
  convolution with a distance kernel k, which the closed radial route
  takes with the propagator kernels, reads k by its parity runs k(j) -
  k(j+2), one for M_n and S_n, two for C_n, against the same sums.
  The distance-2 pairs are the grandparent pairs (m, m+2), |S(m+2)| of
  them; siblings share a value and add 0.
- height sequences (``HeightLevels``): depth |h| holds s(h), and at depth
  d >= 1 also s(-d) after s(d).

Every read that lists a function (keys, values, CSV rows) takes each
stored nonzero entry once, in one pass per depth (``_listing``): the entry
stands for an index range of keys, and they share its one scalar.  A layout
builds the keys of each depth once per read (``_key_rows``), and the
support size counts each row's nonzero entries times their width.  Nothing
is widened.
Kinetic energy, mass, the pair-sum potential, the counting inner product,
the three Huygens interior sums, the linear combinations, the leapfrog
step and the tree and two-step Laplacians are written once over these two
choices, so vertex and radial data share one operator algebra.  No
``Fraction`` is built; values become ``QSurd`` (the same integer triple)
only when a slot is read, a function is materialised or a sum is returned.
The cost of a vertex operation grows with Ball(R) plus one entry per vertex
of S(R) at each further depth, not with the support.
"""

from __future__ import annotations

from functools import cache, reduce, wraps
from itertools import accumulate, chain, compress, product, repeat
from math import fsum, gcd, lcm
from operator import add, floordiv, itemgetter, mul, or_, sub

from .scalars import Scalar, ScalarMode, _square_root_if_perfect, sqrt_q_power
from .scalars import scalar_zero, surd_from_slots, surd_sign
from .topology import VertexAddress, sphere_volume

EXACT = ScalarMode.EXACT


def _vertex_index(labels: tuple, q: int) -> int:
    """The canonical index of the vertex with these labels in its sphere."""
    index = 0
    for label in labels:
        index = index * q + label
    return index


def _map_row(op, row: list, c) -> list:
    return list(map(op, row, repeat(c, len(row))))


def _scaled(c, row: list) -> list:
    return row if c == 1 else _map_row(mul, row, c)


def _repeat_each(row: list, times: int) -> list:
    """Each entry of row repeated ``times`` times, in order."""
    return list(chain.from_iterable(map(repeat, row, repeat(times, len(row)))))


def _combine_row(cx, x: list, cy, y: list) -> list:
    """cx*x + cy*y entry by entry; a missing entry counts as zero."""
    if len(x) != len(y):
        n = min(len(x), len(y))
        return _combine_row(cx, x[:n], cy, y[:n]) + _scaled(cx, x[n:]) + _scaled(cy, y[n:])
    if cy == -1:
        return list(map(sub, _scaled(cx, x), y))
    return list(map(add, _scaled(cx, x), _scaled(cy, y)))


def _sphere_volumes(q: int, start: int, size: int) -> list:
    """[|S(start)|, .., |S(start + size - 1)|] as one running product of
    the volumes 1, q + 1, (q + 1) q, ..; ``topology.sphere_volume`` is the
    closed form."""
    volumes = [1, *accumulate(repeat(q, start + size - 2), mul, initial=q + 1)]
    return volumes[start : start + size]


def _parity_rows(q: int, part: list, last: int, orbit: int) -> list:
    """Per depth e of one part in the orbit layout of radius ``orbit``,
    the rows [P(0), .., P(last)]: entry i of P(m) sums the values at the
    vertices y with d(x, y) <= m and m - d(x, y) even, x a vertex of entry
    i.  A pass down gives D_x(k), the sum of the values k depths below x; a
    pass up gives the sphere sums S_x(d) = D_x(d) + S_p(d-1) - D_x(d-2), p
    the parent of x.  The children of an entry are the strided slices of
    the next depth up to ``orbit``, and from there on q times (q+1 at the
    origin) the entry of the same index; its parent is repeated once per
    child up to ``orbit`` and is the entry of the same index beyond it."""
    downs = [[row] for row in part]  # downs[e][k]: D_x(k) per entry x of depth e
    for e in range(len(part) - 2, -1, -1):
        width = q + 1 if e == 0 else q
        for row in downs[e + 1][:last]:
            if e >= orbit:
                downs[e].append(_scaled(width, row))
            else:
                downs[e].append(list(map(sum, zip(*(row[r::width] for r in range(width))))))
    rows, above = [], None
    for e, down in enumerate(downs):
        spheres = [down[0]]
        for d in range(1, last + 1):
            sphere = down[d] if d < len(down) else [0] * len(down[0])
            if above is not None:
                parent = above[d - 1]
                if e <= orbit:
                    parent = _repeat_each(parent, q + 1 if e == 1 else q)
                sphere = list(map(add, sphere, parent))
                if 2 <= d < len(down) + 2:
                    sphere = list(map(sub, sphere, down[d - 2]))
            spheres.append(sphere)
        sums = spheres[:2]
        for m in range(2, last + 1):
            sums.append(list(map(add, spheres[m], sums[m - 2])))
        rows.append(sums)
        above = spheres
    return rows


def _parity_read(sums: list, last: int, n: int) -> list:
    """P(n) of every depth of the result, from the sums [P(0), .., P(last)]
    of one part per stored depth (``_parity_rows``): depth e <= t, the last
    stored depth, holds P(n) of depth e, and depth t + s (s = 1..n) holds
    P(n - s) of depth t, since a vertex there reaches the data only through
    its ancestor at depth t.  Past ``last``, which is then 2t + 1, P repeats
    its value of the same parity.  Rows are shared, not copied."""
    top = sums[-1]
    if n <= last:
        return [row[n] for row in sums] + top[:n][::-1]
    beyond = n - 1 - last  # the distances last + 1 .. n - 1 below depth t
    repeats = ([top[last - 1], top[last]] * (beyond // 2 + 1))[:beyond]
    return [row[last - (n - last) % 2] for row in sums] + repeats[::-1] + top[::-1]


def _adjacent(levels: list, q: int, orbit: int, exact: bool) -> list:
    """Neighbour sum of one part in the orbit layout of radius ``orbit``:
    depth d of the result holds the parent values plus the child sums of
    every entry at depth d, added in that order (which keeps float64 sums
    bit-identical to a neighbour scatter).  Up to depth ``orbit`` a parent
    is repeated once per child and the children are the strided slices of
    the next depth; beyond it the parent of an entry is the entry of the
    same index one depth up.  From depth ``orbit`` on, the q children of an
    entry (q+1 at the origin) are the one entry c of the same index one
    depth down, added as q*c for exact data and q times in sequence for
    float64, as the vertex rows add them."""
    top = len(levels) - 1
    if top < 0:
        return []
    out = []
    for d in range(top + 2):
        parent = levels[d - 1] if d else [0]
        if d == 0 or d > orbit:
            level = parent
        elif d == 1:
            level = parent * (q + 1)
        else:
            level = [0] * (len(parent) * q)
            for r in range(q):
                level[r::q] = parent
        if d < top:
            children = levels[d + 1]
            if d >= orbit:
                times = q + 1 if d == 0 else q
                if exact:
                    level = list(map(add, level, _scaled(times, children)))
                else:
                    for _ in range(times):
                        level = list(map(add, level, children))
            elif d == 0:
                level = [reduce(add, children)]
            else:
                for r in range(q):
                    level = list(map(add, level, children[r::q]))
        out.append(level)
    return out


def _radial_adjacent(p: list, q: int) -> list:
    """Neighbour sum of one radial part: (q+1)*p(1) at the origin and
    p(m-1) + q*p(m+1) at m >= 1, with p(m-1) alone at the last two radii."""
    if not p:
        return []
    head = [(q + 1) * p[1] if len(p) > 1 else 0]
    return head + list(map(add, p, _scaled(q, p[2:]))) + p[-2:]


def _one_layout(method):
    """A method of several packed operands, run in one layout: vertex
    operands in orbit layouts of different radii are first widened to the
    largest radius (``Levels._widen``), which expands only the rows between
    the radii.  This is the one place where layouts meet."""

    @wraps(method)
    def aligned(self, *args):
        layout = type(self)
        for x in args:
            if type(x) is not layout and isinstance(x, Levels):
                operands = (self, *args)
                radius = max(y._orbit_radius for y in operands if isinstance(y, Levels))
                return method(*(y._widen(radius) if isinstance(y, Levels) else y for y in operands))
        return method(self, *args)

    return aligned


class _Packed:
    """A function packed by number type and layout (see module docstring).
    Immutable by convention; trailing all-zero depths are trimmed and D is
    reduced, so the zero function has no depths at all."""

    __slots__ = ("q", "mode", "den", "parts", "_sums")  # _sums: see ``_kept_parity_rows``

    def __init__(self, q: int, mode: ScalarMode, den: int, parts: list):
        size = len(parts[0])
        while size and not any(self._entries([part[size - 1] for part in parts])):
            size -= 1
        if size < len(parts[0]):
            parts = [part[:size] for part in parts]
        if not size:
            den = 1
        elif den != 1:
            common = gcd(den, *chain.from_iterable(map(self._entries, parts)))
            if common != 1:
                den //= common
                parts = [self._map(floordiv, part, common) for part in parts]
        self.q, self.mode, self.den, self.parts = q, mode, den, parts

    # -- storage shape: a part is one row per depth (one flat row when radial) ------

    _entries = staticmethod(chain.from_iterable)  # the stored values of a part

    @staticmethod
    def _map(op, part: list, c) -> list:
        """op(v, c) for every stored value v of a part."""
        return [_map_row(op, row, c) for row in part]

    @staticmethod
    def _combine(cx, x: list, cy, y: list) -> list:
        """cx*x + cy*y depth by depth; a missing depth counts as zero."""
        n = min(len(x), len(y))
        head = [_combine_row(cx, a, cy, b) for a, b in zip(x, y)]
        return head + [_scaled(cx, a) for a in x[n:]] + [_scaled(cy, b) for b in y[n:]]

    _part = staticmethod(lambda rows: rows)  # a part from the rows ``_pack`` filled

    def _rows(self):
        """(d, row) pairs, a row holding the parts' lists of one depth d."""
        return enumerate(zip(*self.parts))

    @classmethod
    def _over_root_power(cls, q: int, n: int, den: int, parts: list) -> tuple[int, list]:
        """(D, parts) of exact parts over den times q^(-n/2), n >= 0: over
        den*q^(n/2) for even n; for odd n, q^(-n/2) = sqrt(q) / q^((n+1)/2)
        and sqrt(q) * (a + b*sqrt(q)) = q*b + a*sqrt(q), or root*a for a
        square q."""
        if n % 2 == 0:
            return den * q ** (n // 2), parts
        a, b = parts
        root = _square_root_if_perfect(q)
        swapped = [cls._map(mul, b, q), a] if root is None else [cls._map(mul, a, root), b]
        return den * q ** ((n + 1) // 2), swapped

    # -- number type ----------------------------------------------------------

    @classmethod
    def _pack(cls, q: int, mode: ScalarMode, sizes: list, entries) -> _Packed:
        """Pack (row, index, scalar) entries of nonzero values into rows of
        the given sizes."""
        if mode is not EXACT:
            values = [[0.0] * size for size in sizes]
            for d, j, value in entries:
                values[d][j] = value
            return cls(q, mode, 1, [cls._part(values)])
        entries = [(d, j, value.slots) for d, j, value in entries]
        den = lcm(*(slots[2] for _, _, slots in entries))
        a = [[0] * size for size in sizes]
        b = [[0] * size for size in sizes]
        for d, j, (x, y, e) in entries:
            a[d][j], b[d][j] = x * (den // e), y * (den // e)
        return cls(q, mode, den, [cls._part(a), cls._part(b)])

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
        return surd_from_slots(q, total[0] + q * total[1], total[2], scale)

    def _value(self, slots) -> Scalar:
        """The scalar of one entry's stored values, one per part."""
        if self.mode is not EXACT:
            return slots[0] or 0.0
        return surd_from_slots(self.q, *slots, self.den)

    def value_at(self, key) -> Scalar:
        """The value at key, read from its one slot (``_slot``); a key of the
        wrong type or q, or beyond the stored depths, reads as zero."""
        slot = self._slot(key)
        return self._value(slot) if slot else scalar_zero(self.q, self.mode)

    def _listing(self):
        """(d, js, slots) of each stored depth d with a nonzero entry: the
        indices j of those entries in storage order and their stored values,
        one per part (a scalar through ``_value``).  Entry j of depth d
        stands for the keys j*w .. (j+1)*w - 1 of that depth, w =
        ``_weight(d)``.  This is the one read that lists a function; nothing
        is widened."""
        exact = self.mode is EXACT
        for d, row in self._rows():
            nonzero = map(or_, *row) if exact else row[0]
            entries = list(compress(enumerate(zip(*row)), nonzero))
            if entries:
                yield d, *zip(*entries)

    def keys(self) -> list:
        """The keys of the nonzero values, in storage order."""
        return list(chain.from_iterable(self._key_rows(self._listing())))

    def values(self) -> dict:
        """The nonzero values as key -> scalar, in storage order; the keys of
        one entry share one scalar."""
        values, listing = {}, list(self._listing())
        for (d, _, slots), keys in zip(listing, self._key_rows(listing)):
            shared = map(repeat, map(self._value, slots), repeat(self._weight(d)))
            values.update(zip(keys, chain.from_iterable(shared)))
        return values

    def support_size(self) -> int:
        """Number of keys with a nonzero value: each row's nonzero entries
        counted times their width."""
        exact, total = self.mode is EXACT, 0
        for d, row in self._rows():
            flags = list(map(or_, *row)) if exact else row[0]
            total += (len(flags) - flags.count(0)) * self._weight(d)
        return total

    @_one_layout
    def same_as(self, other: _Packed) -> bool:
        """Equal values, read from the canonical (D, parts) of two packed
        functions of one layout, q and mode."""
        return self.den == other.den and self.parts == other.parts

    def max_abs(self) -> Scalar:
        """The largest |value|: one pass over a float64 part; exact entries
        are compared as integer pairs by the sign test of ``QSurd``, and one
        scalar is built."""
        if self.mode is not EXACT:
            return max(map(abs, self._entries(self.parts[0])), default=0.0)
        q, top = self.q, (0, 0)
        for a, b in zip(*map(self._entries, self.parts)):
            if surd_sign(a, b, q) < 0:
                a, b = -a, -b
            if surd_sign(a - top[0], b - top[1], q) > 0:
                top = (a, b)
        return surd_from_slots(q, top[0], top[1], self.den)

    def _sum_with(self, other: _Packed, sign: int) -> tuple[int, list]:
        """(D, parts) of self + sign * other over their common denominator."""
        den = lcm(self.den, other.den)
        cx, cy = den // self.den, sign * (den // other.den)
        return den, [self._combine(cx, x, cy, y) for x, y in zip(self.parts, other.parts)]

    @_one_layout
    def __add__(self, other: _Packed) -> _Packed:
        return type(self)(self.q, self.mode, *self._sum_with(other, 1))

    @_one_layout
    def __sub__(self, other: _Packed) -> _Packed:
        # float64: x - y rounds exactly as x + (-y)
        return type(self)(self.q, self.mode, *self._sum_with(other, -1))

    def __neg__(self) -> _Packed:
        # float64: x * -1 is -x, signed zeros included
        parts = [self._map(mul, part, -1) for part in self.parts]
        return type(self)(self.q, self.mode, self.den, parts)

    def scale(self, factor: Scalar) -> _Packed:
        """factor * self: a float64 factor multiplies every entry, an exact
        one enters as an integer pair over its own denominator."""
        q, mode = self.q, self.mode
        if mode is not EXACT:
            return type(self)(q, mode, 1, [self._map(mul, self.parts[0], factor)])
        fa, fb, den = factor.slots
        x, y = self.parts
        if fb:  # (fa + fb*sqrt(q)) (x + y*sqrt(q))
            parts = [self._combine(fa, x, q * fb, y), self._combine(fb, x, fa, y)]
        else:
            parts = [part if fa == 1 else self._map(mul, part, fa) for part in self.parts]
        return type(self)(q, mode, self.den * den, parts)

    # -- layout -------------------------------------------------------------------

    def _weight(self, d: int) -> int:
        """The number of keys an entry of depth d stands for."""
        return 1

    def _key_rows(self, listing):
        """Per (d, js, ...) of ``listing``, in increasing d, the list of the
        keys of the entries js of depth d, ``_weight(d)`` per entry, in
        storage order."""
        raise NotImplementedError

    def _slot(self, key) -> list | None:
        """The parts' stored values at key, or None where nothing is stored."""
        raise NotImplementedError

    def _distance_two_pairs(self):
        """Every unordered pair of vertices at distance 2 with a stored end
        that can differ in value, as (depth of the deeper end, x slices,
        y slices, multiplicity); y is None where its values are all 0.  The
        radial layout gives its pairs as one term in ``_pair_squares``."""
        raise NotImplementedError

    def _adjacent_part(self, part: list) -> list:
        """Neighbour sum of one part; the module-level ``_adjacent`` or
        ``_radial_adjacent`` is looked up at each call."""
        raise NotImplementedError

    def _parity_rows_of(self, last: int) -> list:
        """Per part, the sums [P(0), .., P(last)] of every stored depth
        (``_parity_rows`` in the orbit layout of radius ``_orbit_radius``)."""
        raise NotImplementedError

    def _from_parity(self, den: int, parts: list) -> _Packed:
        """The function, in this datum's layout, of parts read from its
        parity sums (``_parity_read``) over den."""
        raise NotImplementedError

    def _terms(self, xs: list, ys: list):
        """(weight, x, y) terms whose products add up to sum w * x * y over
        the stored entries of the parts xs and ys (ys is xs for squares),
        with w the number of vertices an entry stands for."""
        raise NotImplementedError

    # -- operators, written once ----------------------------------------------------

    def _neighbour_sums(self) -> list:
        """The parts of x -> sum of the values at the q+1 neighbours of x."""
        return [self._adjacent_part(part) for part in self.parts]

    def adjacency(self) -> _Packed:
        """x -> sum of the values at the q+1 neighbours of x."""
        return type(self)(self.q, self.mode, self.den, self._neighbour_sums())

    @_one_layout
    def step(self, previous: _Packed) -> _Packed:
        """The leapfrog (1/sqrt(q)) * adjacency(self) - previous."""
        q, mode, combine = self.q, self.mode, self._combine
        pushed = self._neighbour_sums()
        if mode is not EXACT:
            weight = sqrt_q_power(q, -1, mode)
            return type(self)(q, mode, 1, [combine(weight, pushed[0], -1, previous.parts[0])])
        pushed_den, weighted = self._over_root_power(q, 1, self.den, pushed)
        den = lcm(pushed_den, previous.den)
        cx, cy = den // pushed_den, -(den // previous.den)
        parts = [combine(cx, x, cy, y) for x, y in zip(weighted, previous.parts)]
        return type(self)(q, mode, den, parts)

    def _minus_over(self, parts: list, weight: int) -> _Packed:
        """self - parts / weight, for parts over the denominator of self."""
        q, mode, combine = self.q, self.mode, self._combine
        if mode is not EXACT:
            return type(self)(q, mode, 1, [combine(1, self.parts[0], -1 / weight, parts[0])])
        parts = [combine(weight, p, -1, s) for p, s in zip(self.parts, parts)]
        return type(self)(q, mode, weight * self.den, parts)

    def _kept_parity_rows(self, n: int) -> tuple[int, list]:
        """(last, sums): the parity sums of every part (``_parity_rows_of``),
        built to a distance last >= min(n, 2t + 1), t the last stored depth,
        and kept on this datum, so the M_n of one closed solve sum the data
        once, not once per n.  Past 2t + 1 no distance adds a vertex.  A
        build reaches at least min(t, R) + 1 (R the orbit radius), so data
        with no tail are built once and extended at most once, to 2t + 1; an
        extension grows to max(n, 2 last), capped at 2t + 1, so a datum with
        a long tail is summed to about the distances asked, not to 2t + 1.
        Results share the kept rows, which are never mutated in place."""
        top = len(self.parts[0]) - 1
        complete = 2 * top + 1
        last, kept = getattr(self, "_sums", (-1, None))
        if min(n, complete) > last:
            last = min(max(n, 2 * last, min(top, self._orbit_radius) + 1), complete)
            kept = self._parity_rows_of(last)
            self._sums = last, kept
        return last, kept

    def __getstate__(self):
        # a copy carries the values, not the parity sums kept on them
        return None, {name: getattr(self, name) for name in ("q", "mode", "den", "parts")}

    def ball_mean(self, n: int) -> _Packed:
        """M_n for n >= 1, in this layout, of data of either number type,
        vertex or radial, tail or not: P(n) of the parity sums kept on them
        (``_kept_parity_rows``, ``_parity_read``) weighted once by
        q^(-n/2); results share the kept rows.  No kernel is built and no
        neighbour sum is taken."""
        return self._parity_mean(n, False)

    def cosine(self, n: int) -> _Packed:
        """C_n = (M_n - M_(n-2)) / 2 for n >= 1, as one parity combination:
        q^(-n/2) (P(n) - q P(n-2)) / 2, with P(-1) = 0, since M_(n-2) =
        q^(-n/2) q P(n-2).  One packed result, no M_n."""
        return self._parity_mean(n, True)

    def _parity_mean(self, n: int, cosine: bool) -> _Packed:
        """M_n, or C_n if ``cosine`` (``ball_mean``, ``cosine``): exact
        parts over 2D for C_n are weighted by ``_over_root_power``, float64
        parts multiplied by the one float q^(-n/2), halved for C_n."""
        if not self.parts[0]:
            return self
        q, den = self.q, self.den
        last, kept = self._kept_parity_rows(n)
        out = [_parity_read(sums, last, n) for sums in kept]
        if cosine:
            den *= 2
            if n >= 2:
                back = (_parity_read(sums, last, n - 2) for sums in kept)
                out = [self._combine(1, x, -q, y) for x, y in zip(out, back)]
        if self.mode is not EXACT:
            weight = sqrt_q_power(q, -n, self.mode) / den
            return self._from_parity(1, [self._map(mul, out[0], weight)])
        return self._from_parity(*self._over_root_power(q, n, den, out))

    def laplacian(self) -> _Packed:
        """u - Adj u / (q+1)."""
        return self._minus_over(self._neighbour_sums(), self.q + 1)

    def two_step_laplacian(self) -> _Packed:
        """u - S2 u / (q(q+1)), with the distance-2 sphere sum taken as
        S2 = Adj^2 - (q+1) I (paths of length 2 that do not return)."""
        q, adjacent = self.q, self._adjacent_part
        spheres = [self._combine(1, adjacent(adjacent(p)), -(q + 1), p) for p in self.parts]
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
        if limit is not None:
            parts = [part[: max(limit, 0)] for part in parts]
        return self._terms(parts, parts)

    def _pair_squares(self, limit: int | None = None):
        """Square terms of the distance-2 differences over unordered pairs
        with both ends at depth < limit (all if None)."""
        for deeper, xs, ys, count in self._distance_two_pairs():
            if limit is None or deeper < limit:
                diff = xs if ys is None else [list(map(sub, x, y)) for x, y in zip(xs, ys)]
                yield count, diff, diff

    @_one_layout
    def dot(self, other: _Packed) -> Scalar:
        """Counting inner product sum_x u(x) v(x)."""
        return self._scalar(self._sum(self._terms(self.parts, other.parts)), self.den * other.den)

    @_one_layout
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

    @_one_layout
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
    """A vertex function in the orbit layout of a radius R (see module
    docstring): depths 0..R hold vertex rows, and each depth beyond R one
    entry per vertex of S(R).  ``orbit_layout(R)`` gives the class of radius
    R, one per R, so that every result of the algebra keeps R."""

    __slots__ = ()
    _orbit_radius: int

    @classmethod
    def pack(cls, q: int, mode: ScalarMode, values) -> Levels:
        """Pack a mapping vertex -> scalar (nonzero values only) in the
        orbit layout of the data radius, as orbit data with no tail."""
        radius = max((vertex.depth for vertex in values), default=-1)
        entries = (
            (vertex.depth, _vertex_index(vertex.labels, q), value)
            for vertex, value in values.items()
        )
        sizes = [sphere_volume(q, d) for d in range(radius + 1)]
        return orbit_layout(max(radius, 0))._pack(q, mode, sizes, entries)

    @classmethod
    def from_radial(cls, profile: RadialLevels) -> Levels:
        """x -> p(|x|) on the ball of the profile's radius: the profile read
        as orbit data of radius 0, one entry per depth, whose tail stands
        for the |S(d)| vertices of each sphere."""
        rows = [[[value] for value in part] for part in profile.parts]
        return orbit_layout(0)(profile.q, profile.mode, profile.den, rows)

    def _weight(self, d: int) -> int:
        """The number of vertices (keys) an entry of depth d stands for: 1 up
        to R, and beyond it |S(d)|/|S(R)|, the descendants of a vertex of
        S(R)."""
        q, orbit = self.q, self._orbit_radius
        return 1 if d <= orbit else sphere_volume(q, d) // sphere_volume(q, orbit)

    def _widen(self, radius: int) -> Levels:
        """This function in the orbit layout of a radius >= R: an entry of
        depth d > R is repeated once per vertex of S(min(d, radius)) below
        it, which keeps the canonical order (those vertices are one index
        range).  Only the rows beyond R grow, to |S(radius)| entries at
        most."""
        q, orbit = self.q, self._orbit_radius
        if radius == orbit:
            return self

        def widened(part: list) -> list:
            rows = part[: orbit + 1]
            for d, row in enumerate(part[orbit + 1 :], orbit + 1):
                times = sphere_volume(q, min(d, radius)) // len(row)
                rows.append(_repeat_each(row, times))
            return rows

        return orbit_layout(radius)(q, self.mode, self.den, list(map(widened, self.parts)))

    def _terms(self, xs: list, ys: list):
        weight, rows = self._weight, enumerate(zip(*xs))
        if ys is xs:
            return ((weight(d), x, x) for d, x in rows)
        return ((weight(d), x, y) for (d, x), y in zip(rows, zip(*ys)))

    def _distance_two_pairs(self):
        for d in range(len(self.parts[0])):
            yield from self._sibling_pairs(d)
            yield from self._grandchild_pairs(d)

    def _cut(self, d: int, *bounds) -> list:
        """The slice of depth d of every part."""
        window = slice(*bounds)
        return [part[d][window] for part in self.parts]

    def _sibling_pairs(self, d: int):
        """The pairs of children of one vertex, at depth d <= R; beyond R
        the children of a vertex descend from one vertex of S(R) and share
        its value, so their differences add 0."""
        q, orbit = self.q, self._orbit_radius
        if d == 1 <= orbit:  # the q+1 children of the origin
            for shift in range(1, q + 1):
                yield 1, self._cut(1, shift, None), self._cut(1, None, -shift), 1
        elif 2 <= d <= orbit:  # groups of q consecutive children
            for r in range(q):
                for s in range(r + 1, q):
                    yield d, self._cut(d, r, None, q), self._cut(d, s, None, q), 1

    def _grandchild_pairs(self, d: int):
        """The pairs of a vertex at depth d and one of its grandchildren.
        An entry of depth d is in |S(d+2)| divided by the size of its row
        such pairs, and a listed pair of entries stands for the weight of
        depth d+2 of them."""
        q, parts = self.q, self.parts
        level = [part[d] for part in parts]
        if d + 2 >= len(parts[0]):  # every grandchild is 0
            yield d + 2, level, None, sphere_volume(q, d + 2) // len(level[0])
        elif d == 0:
            origin = [part[0] * len(part[2]) for part in parts]
            yield 2, origin, [part[2] for part in parts], self._weight(2)
        else:  # the grandchildren of entry j are the entries j*s .. j*s + s - 1
            stride = len(parts[0][d + 2]) // len(level[0])
            for t in range(stride):
                yield d + 2, level, self._cut(d + 2, t, None, stride), self._weight(d + 2)

    def _adjacent_part(self, part: list) -> list:
        return _adjacent(part, self.q, self._orbit_radius, self.mode is EXACT)

    def _parity_rows_of(self, last: int) -> list:
        return [_parity_rows(self.q, part, last, self._orbit_radius) for part in self.parts]

    def _key_rows(self, listing):
        """The vertices of the entries js of each depth d, in canonical order:
        per entry, the label word of its vertex of S(e), e = min(d, R),
        followed by each of the ``_weight(d)`` tails below it.  The words of
        each S(e) are built once per read, from those of S(e-1), and the
        tails once per depth (``itertools.product``)."""
        q, orbit, words, e = self.q, self._orbit_radius, [()], 0
        vertex = VertexAddress._built  # every word is built valid
        for d, js, *_ in listing:
            while e < min(d, orbit):
                e += 1
                branches = range(q + 1 if e == 1 else q)
                words = [word + (label,) for word in words for label in branches]
            if d <= orbit:
                yield [vertex(q, words[j]) for j in js]
                continue
            tails = list(product(*[range(q + 1 if k == 1 else q) for k in range(orbit + 1, d + 1)]))
            yield [vertex(q, words[j] + tail) for j in js for tail in tails]

    def _slot(self, key) -> list | None:
        # a vertex beyond R reads the entry of its ancestor in S(R)
        if isinstance(key, VertexAddress) and key.q == self.q and key.depth < len(self.parts[0]):
            j = _vertex_index(key.labels[: self._orbit_radius], self.q)
            return [part[key.depth][j] for part in self.parts]
        return None

    def _from_parity(self, den: int, parts: list) -> Levels:
        """A parity read holds rows up to t = min(top, R) and one entry per
        vertex of S(t) below: it is in the orbit layout of t, widened to R
        (rows are shared, as ``_widen`` shares them)."""
        orbit = self._orbit_radius
        layout = orbit_layout(min(len(self.parts[0]) - 1, orbit))
        return layout(self.q, self.mode, den, parts)._widen(orbit)


@cache
def orbit_layout(radius: int) -> type:
    """The class of the orbit layout of the given radius R >= 0."""
    return type(f"Levels{radius}", (Levels,), {"__slots__": (), "_orbit_radius": radius})


class RadialLevels(_Packed):
    """A radial profile p, standing for x -> p(|x|): each part is one flat
    list indexed by radius, whose entry m stands for the |S(m)| vertices of
    that sphere.  A profile keeps it once built."""

    __slots__ = ()
    _orbit_radius = 0  # its parity sums are those of ``Levels.from_radial``
    # storage shape: a part is its one row, so an entry's index is its radius
    _entries = staticmethod(iter)
    _map = staticmethod(_map_row)
    _combine = staticmethod(_combine_row)
    _part = staticmethod(itemgetter(0))

    def _rows(self):
        return [(0, self.parts)]

    def _key_rows(self, listing):
        return (js for _, js, *_ in listing)  # an entry's key is its radius

    def _slot(self, key) -> list | None:
        if isinstance(key, int) and 0 <= key < len(self.parts[0]):
            return [part[key] for part in self.parts]
        return None

    def _terms(self, xs: list, ys: list, shift: int = 0):
        """One term: the parts xs weighted by |S(m + shift)| at radius m."""
        volumes = _sphere_volumes(self.q, shift, len(xs[0]))
        return [(1, [list(map(mul, volumes, x)) for x in xs], ys)]

    def _pair_squares(self, limit: int | None = None):
        """One term for the grandparent pairs (m, m+2), |S(m+2)| of them,
        with both ends at depth < limit; siblings share a value and add 0."""
        size = len(self.parts[0])
        n = size if limit is None else max(min(limit - 2, size), 0)
        diffs = [list(map(sub, part[:n], part[2:] + [0, 0])) for part in self.parts]
        return self._terms(diffs, diffs, 2)

    def _adjacent_part(self, part: list) -> list:
        return _radial_adjacent(part, self.q)

    def _parity_rows_of(self, last: int) -> list:
        """The sums of the profile read as orbit data of radius 0, one entry
        per depth (``Levels.from_radial``), each sum unwrapped from its row
        of width 1."""
        q, parts = self.q, Levels.from_radial(self).parts
        rows = (_parity_rows(q, part, last, 0) for part in parts)
        return [[[row[0] for row in sums] for sums in part_rows] for part_rows in rows]

    @classmethod
    def pack(cls, q: int, mode: ScalarMode, values) -> RadialLevels:
        """Pack a mapping radius -> scalar (nonzero values only)."""
        radius = max(values, default=-1)
        return cls._pack(q, mode, [radius + 1], ((0, m, value) for m, value in values.items()))

    @classmethod
    def m_kernel(cls, q: int, mode: ScalarMode, n: int) -> RadialLevels:
        """The distance kernel of M_n for n >= 0: q^(-n/2) at the distances
        d <= n with n - d even.  Exact kernels are ones over D = q^ceil(n/2),
        in the B part for odd n (folded into A when q is a square)."""
        if mode is not EXACT:
            weight = sqrt_q_power(q, -n, mode)
            return cls(q, mode, 1, [[0.0 if (n - d) % 2 else weight for d in range(n + 1)]])
        parts = [[int((n - d) % 2 == 0) for d in range(n + 1)], [0] * (n + 1)]
        return cls(q, mode, *cls._over_root_power(q, n, 1, parts))

    @classmethod
    def c_kernel(cls, q: int, mode: ScalarMode, n: int) -> RadialLevels:
        """The distance kernel of C_n = (M_n - M_(n-2)) / 2 for n >= 1, built
        as its two parity runs: q^(-n/2) (1 - q) / 2 at the distances d < n
        with n - d even, and q^(-n/2) / 2 at d = n.  Exact kernels are
        integers over 2 q^ceil(n/2); a float64 entry is rounded as the
        halved difference of the two M kernels' entries."""
        if mode is not EXACT:
            weight = sqrt_q_power(q, -n, mode)
            inner = (weight - sqrt_q_power(q, 2 - n, mode)) * 0.5
            values = [0.0 if (n - d) % 2 else inner for d in range(n)]
            return cls(q, mode, 1, [values + [weight * 0.5]])
        parts = [[0 if (n - d) % 2 else 1 - q for d in range(n)] + [1], [0] * (n + 1)]
        return cls(q, mode, *cls._over_root_power(q, n, 2, parts))

    def _from_parity(self, den: int, parts: list) -> RadialLevels:
        return RadialLevels(self.q, self.mode, den, parts)

    def convolve(self, kernel: RadialLevels) -> RadialLevels:
        """The radial operator with distance kernel ``kernel`` applied to this
        profile p: out(m) = sum_d kernel(d) sum_r count(m, d, r) p(r), where
        count(m, d, r) is the number of vertices at radius r and distance d
        from a vertex at radius m (``topology.distance_count``).

        Exact profiles read the kernel by its parity runs w_j = kernel(j) -
        kernel(j + 2), so that kernel(d) is the sum of the w_j with j >= d
        and j - d even, and out = sum_j w_j P(j), with P(j) the unweighted
        parity sums of p read as orbit data of radius 0
        (``_kept_parity_rows``, ``_parity_read``).  The kernels of M_n and
        S_n are one run, that of C_n two, so a propagator kernel costs
        O(n + R) once the sums are kept on p; M_n and C_n themselves read
        the sums with no kernel (``ball_mean``, ``cosine``).  This is the
        route of ``radial.radial_convolve``.

        Float64 profiles add term by term, in the order of d, then r, each
        as (kernel(d) p(r)) * count: for one (d, r), the path from radius m
        climbs a = (m + d - r)/2 steps, and the radii m = |d - r|, ...,
        d + r (step 2) take the counts, with k = min(d, r): q^k (|S(k)| if
        d = r, where m = 0), then (q-1) q^(k-2), ..., (q-1) q^0, then 1 at
        a = d.  These lists are built once per call."""
        q, mode = self.q, self.mode
        if mode is EXACT:
            return self._convolve_runs(kernel)
        (values,) = self.parts
        size = len(kernel.parts[0]) + len(values) - 1
        out = [0.0] * size
        plain, diagonal = [[1]], [[1]]
        for k in range(1, min(len(kernel.parts[0]), len(values))):
            middle = [(q - 1) * q**i for i in range(k - 2, -1, -1)]
            plain.append([q**k, *middle, 1])
            diagonal.append([(q + 1) * q ** (k - 1), *middle, 1])
        for d, kd in enumerate(kernel.parts[0]):
            for r, pr in enumerate(values):
                value = kd * pr
                if value:
                    counts = diagonal[d] if d == r else plain[min(d, r)]
                    for m, c in zip(range(abs(d - r), size, 2), counts):
                        out[m] += value * c
        return RadialLevels(q, mode, 1, [out])

    def _convolve_runs(self, kernel: RadialLevels) -> RadialLevels:
        """``convolve`` of exact parts: sum over the runs (j, wa, wb) of
        (wa + wb sqrt(q)) (PA(j) + PB(j) sqrt(q)), over the product of the
        two denominators.  Each part adds its nonzero coefficients' columns
        into one list, a column of P(j) covering its first R + 1 + j
        entries."""
        q, (ka, kb) = self.q, kernel.parts
        if not ka or not self.parts[0]:
            return RadialLevels(q, self.mode, 1, [[], []])
        wa, wb = (list(map(sub, k, k[2:] + [0, 0])) for k in (ka, kb))
        last, kept = self._kept_parity_rows(len(ka) - 1)
        out = [[0] * (len(self.parts[0]) + len(ka) - 1) for _ in kept]
        for j in compress(range(len(ka)), map(or_, wa, wb)):
            pa, pb = (_parity_read(sums, last, j) for sums in kept)
            for total, c, column in (
                (out[0], wa[j], pa),
                (out[0], q * wb[j], pb),
                (out[1], wb[j], pa),
                (out[1], wa[j], pb),
            ):
                if c:
                    total[: len(column)] = map(add, total, _scaled(c, column))
        return RadialLevels(q, self.mode, kernel.den * self.den, out)


class HeightLevels(_Packed):
    """A function s of the horocyclic height: depth 0 holds s(0), depth
    d >= 1 holds s(d) and s(-d).  A height sequence keeps it once built; it
    is storage only, and the transforms read its slots."""

    __slots__ = ()

    @classmethod
    def pack(cls, q: int, mode: ScalarMode, values) -> HeightLevels:
        """Pack a mapping height -> scalar (nonzero values only)."""
        radius = max(map(abs, values), default=-1)
        entries = ((abs(h), int(h < 0), value) for h, value in values.items())
        return cls._pack(q, mode, [2 if d else 1 for d in range(radius + 1)], entries)

    def _key_rows(self, listing):
        return ([-d if j else d for j in js] for d, js, *_ in listing)

    def _slot(self, key) -> list | None:
        if isinstance(key, int) and abs(key) < len(self.parts[0]):
            return [part[abs(key)][key < 0] for part in self.parts]
        return None
