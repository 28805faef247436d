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
  in the sums (as a key it is the one radius m).  A linear combination is
  one ``map`` per part and a weighted sum one term per part, whose weights
  |S(m)| are one running product.  The neighbour sum is (q+1)*p(1) at the
  origin and p(m-1) + q*p(m+1) elsewhere.  Read as orbit data of radius 0
  (``Levels.from_radial``), a profile has the parity sums of the vertex
  kernel ``_parity_rows`` and keeps them as vertex data do, so M_n and C_n
  take the one body vertex data take (``ball_mean``, ``cosine``).  A
  convolution with a distance kernel k reads k by its parity runs k(j) -
  k(j+2) against the same sums; a float64 difference rounds, so float64
  reads only the kernel's stored run from them and adds its rows distance
  by distance.  The distance-2 pairs are the grandparent pairs (m, m+2),
  |S(m+2)| of them.
- height sequences (``HeightLevels``): depth |h| holds s(h), and at depth
  d >= 1 also s(-d) after s(d).

A leading parity run: vertex and radial data store depths 0 .. a-1 as their
two class values per part, E at every entry of even depth and O at every
entry of odd depth (``lead`` = a, and per part the *pair* [E, O], so depth
d < a reads ``pair[d % 2]`` whatever a is), then the rows from depth a on
as above; data with no run store their rows alone.  ``__init__`` grows the
run as far as exact equality allows (a float64 zero repeats only with its
sign) and stores a run of fewer than ``_SHORTEST_RUN`` depths as rows, so
the form is canonical.  Inside the light cone a wave snapshot is such a
run (the interior lemma: there u is a function of the parity-class sums of
the data alone), so it stores O(R) rows at any |n|.  Linear combinations,
the neighbour sum and step, the parity reads of M_n, C_n and the
convolution columns, the kernels, the exact sums and the slot, support and
max reads work on the run; ``parts``, ``_rows`` and ``_listing`` expand
it, and so do the parity sums of data that carry a run, float64 parity
reads and every float64 sum, which adds in the order of the expanded rows.
Height sequences keep no run.  Short runs are kept through the operators
rather than expanded and found again: an exact parity read returns its
class-total run (``_parity_read``), the neighbour sum takes runs of 3
depths, a combination cuts the longer run to the shorter (its pair
unchanged, only rows expanded), and ``_grow`` starts from the form's own
run.

Every read that lists a function (keys, values, CSV rows) takes each
stored nonzero entry once, in one pass per depth (``_listing``): the entry
stands for an index range of keys, and they share its one scalar.  The
sum at a list of keys (``sum_at``: the mean-value check's sphere sums)
reads each key's slot and builds one scalar of the integers added over D.
Kinetic energy, mass, the pair-sum potential, the counting inner product,
the three Huygens interior sums, the linear combinations, the leapfrog
step, M_n, C_n, the convolution and the tree and two-step Laplacians are
written once over these choices, so vertex and radial data share one
operator algebra.  They compose a few helpers, each written once for
both layouts and number types: ``_combined`` (cx x + cy y of two forms),
``_sum_with`` (over a common denominator), ``_times`` (an exact form times
fa + fb sqrt(q): ``scale``, the odd-n weighting, the convolution columns),
``_over_root`` (a form over den q^(n/2): the step, M_n, C_n), ``_grow``
(the run finder, over ``_holds``), ``_slot`` (over ``_address``),
``_neighbour_sums`` (the run's neighbour sums, over ``_around``, then the
layout's row kernel ``_adjacent_rows``), ``_terms`` (the common run's
term, then the layout's ``_row_terms``) and ``_column_sum`` (sum_j w_j
P(j) over the kept parity sums: M_n, C_n and the convolution).  No
``Fraction`` is built; values become ``QSurd`` (the same integer triple)
only when a slot is read, a function is materialised or a sum is returned.
"""

from __future__ import annotations

from functools import cache, reduce, wraps
from itertools import accumulate, chain, compress, product, repeat
from math import copysign, fsum, gcd, lcm
from operator import add, attrgetter, floordiv, itemgetter, mul, or_, sub

from .scalars import Scalar, ScalarMode, _square_root_if_perfect, sqrt_q_power
from .scalars import scalar_zero, surd_from_slots, surd_sign
from .topology import VertexAddress, sphere_volume

EXACT = ScalarMode.EXACT
# A run of fewer depths is stored as rows.  Three is the least with which
# every wave snapshot at |n| >= 2R + 2 stores at most 2 + (2R + 2)|S(R)|
# entries (R = 0 at |n| = 4 needs a run of three depths).
_SHORTEST_RUN = 3


def _vertex_index(labels: tuple, q: int) -> int:
    """The canonical index of the vertex with these labels in its sphere."""
    index = 0
    for label in labels:
        index = index * q + label
    return index


def _map_row(op, row: list, c) -> list:
    return list(map(op, row, repeat(c)))


def _scaled(c, row: list) -> list:
    return row if c == 1 else _map_row(mul, row, c)


def _repeat_each(row: list, times: int) -> list:
    """Each entry of row repeated ``times`` times, in order."""
    return list(chain.from_iterable(map(repeat, row, repeat(times, len(row)))))


def _combine_row(cx, x: list, cy, y: list) -> list:
    """cx*x + cy*y entry by entry; a missing entry counts as zero."""
    if len(x) == len(y):  # one list, no scaled copies
        sx = x if cx == 1 else map(mul, x, repeat(cx))
        if cy == -1:
            return list(map(sub, sx, y))
        return list(map(add, sx, y if cy == 1 else map(mul, y, repeat(cy))))
    sx = _scaled(cx, x)
    if cy == -1:
        out = list(map(sub, sx, y))
        return out + sx[len(out) :] if len(x) >= len(y) else out + _scaled(cy, y[len(out) :])
    sy = _scaled(cy, y)
    out = list(map(add, sx, sy))
    return out + (sx if len(x) >= len(y) else sy)[len(out) :]


def _signs(values) -> list:
    """The sign of each float, zeros included: copysign(1.0, v)."""
    return list(map(copysign, repeat(1.0), values))


def _sphere_volumes(q: int, start: int, size: int) -> list:
    """[|S(start)|, .., |S(start + size - 1)|] as one running product from
    ``topology.sphere_volume(q, start)``."""
    if not size:
        return []
    if not start:
        return [1, *_sphere_volumes(q, 1, size - 1)]
    return list(accumulate(repeat(q, size - 1), mul, initial=sphere_volume(q, start)))


@cache
def _descendants(q: int, orbit: int, d: int) -> int:
    """|S(d)| / |S(orbit)|: the vertices of depth d >= orbit below one
    vertex of S(orbit)."""
    return sphere_volume(q, d) // sphere_volume(q, orbit)


def _class_pair(n: int, value, zero=0) -> list:
    """The class values [E, O] of a run: ``value`` in the class of depth n,
    ``zero`` in the other."""
    return [value, zero] if n % 2 == 0 else [zero, value]


def _parity_counts(q: int, a: int) -> tuple[int, int]:
    """(vertices at even depths, vertices at odd depths) of Ball(a - 1):
    1 + q (q^2J - 1)/(q - 1) with J = (a - 1) // 2, and (q^2K - 1)/(q - 1)
    with K = a // 2."""
    if not a:
        return 0, 0
    even = 1 + q * (q ** (2 * ((a - 1) // 2)) - 1) // (q - 1)
    return even, (q ** (2 * (a // 2)) - 1) // (q - 1)


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


def _adjacent(levels: list, q: int, orbit: int, exact: bool, base: int | None = None) -> list:
    """Neighbour sum of one part in the orbit layout of radius ``orbit``,
    from its rows of depths base .. t: depths base + 1 .. t + 1 of the
    result (0 .. t + 1 when base is None).  Depth d holds the parent values
    plus the child sums of every entry at depth d, added in that order
    (which keeps float64 sums bit-identical to a neighbour scatter).  Up to
    depth ``orbit`` a parent is repeated once per child and the children
    are the strided slices of the next depth; beyond it the parent of an
    entry is the entry of the same index one depth up.  From depth
    ``orbit`` on, the q children of an entry (q+1 at the origin) are the
    one entry c of the same index one depth down, added as q*c for exact
    data and q times in sequence for float64, as the vertex rows add
    them."""
    start, base = (0, 0) if base is None else (base + 1, base)
    top, out = base + len(levels) - 1, []
    for d in range(start, top + 2 if levels else 0):
        parent = levels[d - 1 - base] if d else [0]
        if d == 0 or d > orbit:
            level = parent
        elif d == 1:
            level = parent * (q + 1)
        else:
            level = [0] * (len(parent) * q)
            for r in range(q):
                level[r::q] = parent
        if d < top:
            children = levels[d + 1 - base]
            if d >= orbit:
                times = q + 1 if d == 0 else q
                if exact:
                    level = list(map(add, level, map(mul, children, repeat(times))))
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


def _radial_adjacent(p: list, q: int, base: int | None = None) -> list:
    """Neighbour sum of one radial part, from its values at radii base ..
    t: radii base + 1 .. t + 1 of the result (0 .. t + 1 when base is None),
    (q+1)*p(1) at the origin and p(m-1) + q*p(m+1) at m >= 1, with p(m-1)
    alone at the last two radii."""
    if not p:
        return []
    rest = list(map(add, p, map(mul, p[2:], repeat(q)))) + p[-2:]
    return rest if base is not None else [(q + 1) * p[1] if len(p) > 1 else 0] + rest


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
    Immutable by convention.  A *form* (lead, pairs, parts) is what is
    stored, or an operator's unreduced result: per part, the *pair* holds
    the run's class values [E, O] (depth d < lead holds ``pair[d % 2]``)
    and the part its rows from depth ``lead``.  A form with no run has lead
    0, no pairs (None) and its rows from depth 0.
    ``__init__`` trims trailing all-zero depths, grows the run (a run of
    fewer than ``_SHORTEST_RUN`` depths is stored as rows) and reduces D,
    so the form is canonical and the zero function has no depths."""

    # _sums: see ``_kept_parity_rows``
    __slots__ = ("q", "mode", "den", "lead", "pairs", "body", "size", "_sums")
    _keeps_runs = True
    _first = staticmethod(itemgetter(0))  # the value of a row that holds one value
    form = property(attrgetter("lead", "pairs", "body"))

    def __init__(self, q: int, mode: ScalarMode, den: int, parts: list, lead=0, pairs=None):
        entries = self._entries
        self.q, self.mode = q, mode
        size = len(parts[0])
        if size and not any(entries([part[-1] for part in parts])):
            size -= 1
            while size and not any(entries([part[size - 1] for part in parts])):
                size -= 1
            parts = [part[:size] for part in parts]
        if size:
            if self._keeps_runs and lead + size >= _SHORTEST_RUN:
                lead, pairs, parts = self._grow(lead, pairs, parts)
        else:  # no row: the zero depths that end the run are trailing too
            while lead and not any(pair[(lead - 1) % 2] for pair in pairs):
                lead -= 1
        if 0 < lead < _SHORTEST_RUN:  # too short to keep: its rows are stored
            lead, pairs, parts = 0, None, self._from((lead, pairs, parts), 0)
        if not lead:
            pairs = None
        if not (lead or len(parts[0])):
            den = 1
        elif den != 1:
            values = chain.from_iterable(map(entries, parts))
            common = gcd(den, *(chain(values, *pairs) if pairs else values))
            if common != 1:
                den //= common
                parts = [self._map(floordiv, part, common) for part in parts]
                pairs = pairs and [_map_row(floordiv, pair, common) for pair in pairs]
        self.den, self.lead, self.pairs, self.body = den, lead, pairs, parts
        self.size = lead + len(parts[0])  # the stored depths, the run's included

    def _grow(self, a: int, pairs: list | None, parts: list) -> tuple:
        """The form grown over the first rows that hold, at every entry of
        every part, the class value of their depth (``_holds``; a float zero
        with its sign); depths 0 and 1 open the run with one value each.
        Per part, one pass from depth a stops at the first row that fails,
        or where an earlier part stopped.  Called by a layout that keeps
        runs."""
        first, holds, d = self._first, self._holds, max(a, 2)
        for pair, part in zip(pairs or parts, parts):  # most forms fail the first comparison
            if first(part[d - a]) != (pair[d % 2] if a > d - 2 else first(part[d - 2 - a])):
                return a, pairs, parts
        k, grown = len(parts[0]), []
        for pair, part in zip(pairs or repeat([None, None]), parts):
            values, i = pair[:], 0
            while i < k:
                row, d = part[i], a + i
                if d < 2:
                    values[d] = first(row)
                if not holds(row, values[d % 2]):
                    k = i
                    break
                i += 1
            if a + k < _SHORTEST_RUN or not k:
                return a, pairs, parts
            grown.append(values)
        return a + k, grown, [part[k:] for part in parts]

    def _holds(self, row, value) -> bool:
        """Whether every entry of a stored row is ``value`` (a float zero
        with its sign)."""
        raise NotImplementedError

    # -- storage shape: a part is one row per depth (one flat row when radial) ------

    _entries = staticmethod(chain.from_iterable)  # the stored values of a part

    @staticmethod
    def _map(op, part: list, c) -> list:
        """op(v, c) for every stored value v of a part."""
        return [list(map(op, row, repeat(c))) for row in part]

    @staticmethod
    def _combine(cx, x: list, cy, y: list) -> list:
        """cx*x + cy*y depth by depth, as ``_combine_row`` adds two rows of
        one width (the rows of one depth have one), inline: a call of
        ``_combine_row`` per depth cost vertex leapfrogs about 10%; a
        missing depth counts as zero."""
        if cy == -1:
            out = [list(map(sub, a if cx == 1 else map(mul, a, repeat(cx)), b)) for a, b in zip(x, y)]
        else:
            out = [
                list(
                    map(
                        add,
                        a if cx == 1 else map(mul, a, repeat(cx)),
                        b if cy == 1 else map(mul, b, repeat(cy)),
                    )
                )
                for a, b in zip(x, y)
            ]
        n = len(out)
        if len(x) > n:
            out += [_scaled(cx, a) for a in x[n:]]
        elif len(y) > n:
            out += [_scaled(cy, b) for b in y[n:]]
        return out

    _part = staticmethod(lambda rows: rows)  # a part from the rows ``_pack`` filled

    @property
    def parts(self) -> list:
        """Every part as its rows from depth 0: the run expanded (with no run,
        the stored parts)."""
        return self._from(self.form, 0) if self.lead else self.body

    @property
    def runs(self) -> list:
        """Per part, the run values [E, O] at even and at odd depths."""
        if not self.lead:
            zero = 0 if self.mode is EXACT else 0.0
            return [[zero, zero] for _ in self.body]
        return self.pairs

    def _make(self, den: int, form: tuple) -> _Packed:
        lead, pairs, parts = form
        return type(self)(self.q, self.mode, den, parts, lead, pairs)

    def _fill(self, start: int, stop: int, pair: list) -> list:
        """The stored rows of depths start .. stop - 1 >= 0 of the run whose
        class values are ``pair``."""
        raise NotImplementedError

    def _realigned(self, form: tuple, a: int) -> tuple:
        """A form as the form of a run of a <= lead depths: the same pair,
        the rows of depths a .. lead - 1 expanded."""
        if a == form[0]:
            return form
        return (a, form[1], self._from(form, a)) if a else (0, None, self._from(form, 0))

    def _from(self, form: tuple, start: int, stop: int | None = None) -> list:
        """Per part, the rows of depths start .. stop - 1 (to the last if
        None) of a form whose run has at least ``start`` depths, the run
        expanded from ``start``; the stored rows themselves when nothing is
        expanded or cut."""
        lead, pairs, parts = form
        end, cut = lead, None
        if stop is not None:
            end, cut = (stop, 0) if stop < lead else (lead, stop - lead)
        if start >= end:
            return parts if cut is None or cut >= len(parts[0]) else [part[:cut] for part in parts]
        fill, rows = self._fill, parts if cut is None else [part[:cut] for part in parts]
        return [fill(start, end, pair) + part for pair, part in zip(pairs, rows)]

    def _rows(self):
        """(d, row) pairs, a row holding the parts' lists of one depth d, the
        run expanded."""
        return enumerate(zip(*self.parts))

    def _body_rows(self):
        """(d, row) pairs of the rows stored from depth ``lead`` on."""
        return enumerate(zip(*self.body), self.lead)

    def _run_keys(self) -> tuple[int, int]:
        """The keys the even and the odd depths of the run stand for."""
        return _parity_counts(self.q, self.lead)

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

    @classmethod
    def _times(cls, q: int, form: tuple, fa: int, fb: int) -> tuple:
        """The exact form (fa + fb sqrt(q)) * form: with x and y its parts,
        (fa x + q fb y) + (fb x + fa y) sqrt(q); a factor with fb = 0 scales
        each part once (not at all when fa = 1), one with fa = 0 swaps them,
        q fb y + fb x sqrt(q)."""
        lead, pairs, (x, y) = form
        if not fb:
            return form if fa == 1 else cls._mapped(mul, form, fa)
        if not fa:
            qb = q * fb
            pairs = pairs and [[qb * v for v in pairs[1]], _scaled(fb, pairs[0])]
            return lead, pairs, [cls._map(mul, y, qb), x if fb == 1 else cls._map(mul, x, fb)]
        combine = cls._combine
        if pairs:
            (px, py) = pairs
            pairs = [_combine_row(fa, px, q * fb, py), _combine_row(fb, px, fa, py)]
        return lead, pairs, [combine(fa, x, q * fb, y), combine(fb, x, fa, y)]

    @classmethod
    def _weighted(cls, q: int, n: int, den: int, form: tuple) -> tuple[int, tuple]:
        """(D, form) of an exact form over den times q^(-n/2), n >= 0: over
        den*root^n for a square q = root^2, over den*q^(n/2) for even n, and
        for odd n, q^(-n/2) = sqrt(q) / q^((n+1)/2) (``_times``)."""
        root = _square_root_if_perfect(q)
        if root is not None:
            return den * root**n, form
        if n % 2 == 0:
            return den * q ** (n // 2), form
        return den * q ** ((n + 1) // 2), cls._times(q, form, 0, 1)

    def _over_root(self, n: int, den: int, form: tuple) -> tuple[int, tuple]:
        """(D, form) of form / (den q^(n/2)) for either number type: exact
        forms by ``_weighted``, float64 forms times the one float q^(-n/2) /
        den."""
        if self.mode is EXACT:
            return self._weighted(self.q, n, den, form)
        return 1, self._mapped(mul, form, sqrt_q_power(self.q, -n, self.mode) / den)

    def _scalar(self, total: list, scale: int) -> Scalar:
        """The scalar (sum x*y) / scale from the parts ``_sum`` built."""
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
        wrong type (a bool too) or q, or beyond the stored depths, reads as
        zero."""
        slot = self._slot(key)
        return self._value(slot) if slot else scalar_zero(self.q, self.mode)

    def sum_at(self, keys) -> Scalar:
        """The sum of the values at ``keys`` from their slots (``_slot``):
        exact slots add as integers over D into one scalar; float64 adds in
        key order from 0.0, bit for bit as ``scalar_sum`` of ``value_at``."""
        slots = [slot for slot in map(self._slot, keys) if slot]
        if self.mode is not EXACT:
            return reduce(add, map(self._first, slots), 0.0)
        a, b = map(sum, zip(*slots)) if slots else (0, 0)
        return surd_from_slots(self.q, a, b, self.den)

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
        """Number of keys with a nonzero value: the keys of each parity of
        the run whose value is nonzero, and each row's nonzero entries
        counted times their width."""
        exact, total = self.mode is EXACT, 0
        if self.lead:
            for keys, values in zip(self._run_keys(), zip(*self.runs)):
                total += keys if any(values) else 0
        for d, row in self._body_rows():
            flags = list(map(or_, *row)) if exact else row[0]
            total += (len(flags) - flags.count(0)) * self._weight(d)
        return total

    @_one_layout
    def same_as(self, other: _Packed) -> bool:
        """Equal values, read from the canonical (D, lead, pairs, parts) of
        two packed functions of one layout, q and mode."""
        return (self.den, self.form) == (other.den, other.form)

    def max_abs(self) -> Scalar:
        """The largest |value|, over the pair and the rows (a run's values
        are its class values): one pass over a float64 part; exact entries
        are compared as integer pairs by the sign test of ``QSurd``, and one
        scalar is built."""
        values = list(map(self._entries, self.body))
        if self.lead:
            values = [chain(pair, part) for pair, part in zip(self.pairs, values)]
        if self.mode is not EXACT:
            return max(map(abs, values[0]), default=0.0)
        q, top = self.q, (0, 0)
        for a, b in zip(*values):
            if surd_sign(a, b, q) < 0:
                a, b = -a, -b
            if surd_sign(a - top[0], b - top[1], q) > 0:
                top = (a, b)
        return surd_from_slots(q, top[0], top[1], self.den)

    # -- linear combinations of forms ---------------------------------------------

    def _combined(self, cx, x: tuple, cy, y: tuple) -> tuple:
        """The form cx*x + cy*y, one of them scaled where the other is 0;
        the longer run is expanded to the shorter."""
        if not (y[0] or len(y[2][0])):
            return x if cx == 1 else self._mapped(mul, x, cx)
        if not (x[0] or len(x[2][0])):
            return y if cy == 1 else self._mapped(mul, y, cy)
        if x[0] > y[0]:
            x = self._realigned(x, y[0])
        elif y[0] > x[0]:
            y = self._realigned(y, x[0])
        combine, pairs = self._combine, x[1]
        # as _combine_row adds them: x * cx + y * cy, a sum of two products
        pairs = pairs and [[a * cx + c * cy, b * cx + d * cy] for (a, b), (c, d) in zip(pairs, y[1])]
        return x[0], pairs, [combine(cx, px, cy, py) for px, py in zip(x[2], y[2])]

    @classmethod
    def _mapped(cls, op, form: tuple, c) -> tuple:
        """The form of op(v, c) for every value v of a form."""
        lead, pairs, parts = form
        pairs = pairs and [[op(a, c), op(b, c)] for a, b in pairs]
        return lead, pairs, [cls._map(op, part, c) for part in parts]

    def _sum_with(self, other: _Packed, sign: int, own: tuple | None = None) -> tuple[int, tuple]:
        """(D, form) of x + sign * other over their common denominator, x
        the (D, form) ``own``, or self."""
        den, form = own or (self.den, self.form)
        common = lcm(den, other.den)
        return common, self._combined(common // den, form, sign * (common // other.den), other.form)

    @_one_layout
    def __add__(self, other: _Packed) -> _Packed:
        return self._make(*self._sum_with(other, 1))

    @_one_layout
    def __sub__(self, other: _Packed) -> _Packed:
        # float64: x - y rounds exactly as x + (-y)
        return self._make(*self._sum_with(other, -1))

    def __neg__(self) -> _Packed:
        # float64: x * -1 is -x, signed zeros included
        return self._make(self.den, self._mapped(mul, self.form, -1))

    def scale(self, factor: Scalar) -> _Packed:
        """factor * self: a float64 factor multiplies every entry, an exact
        one enters as an integer pair over its own denominator."""
        if self.mode is not EXACT:
            return self._make(1, self._mapped(mul, self.form, factor))
        fa, fb, den = factor.slots
        return self._make(self.den * den, self._times(self.q, self.form, fa, fb))

    # -- layout -------------------------------------------------------------------

    def _weight(self, d: int) -> int:
        """The number of keys an entry of depth d stands for."""
        return 1

    def _key_rows(self, listing):
        """Per (d, js, ...) of ``listing``, in increasing d, the list of the
        keys of the entries js of depth d, ``_weight(d)`` per entry, in
        storage order."""
        raise NotImplementedError

    def _address(self, key) -> tuple:
        """(depth, index) of the entry that stands for key, the index None
        where a row is one value; depth -1 for a key of another type or q."""
        raise NotImplementedError

    def _slot(self, key) -> list | None:
        """The parts' stored values at key, or None where nothing is stored:
        a depth of the run reads its parity's value in the pair, a row its
        entry (``_address``)."""
        (d, j), lead = self._address(key), self.lead
        if lead <= d < self.size:
            return [part[d - lead] if j is None else part[d - lead][j] for part in self.body]
        return [pair[d % 2] for pair in self.pairs] if 0 <= d < lead else None

    def _distance_two_pairs(self):
        """Every unordered pair of vertices at distance 2 with a stored end
        that can differ in value, as (depth of the deeper end, x slices,
        y slices, multiplicity); y is None where its values are all 0.  The
        radial layout gives its pairs as one term in ``_pair_squares``."""
        raise NotImplementedError

    def _parity_rows_of(self, rows: list, last: int) -> list:
        """Per part of ``rows`` (the expanded parts of ``_sum_rows``), the
        sums [P(0), .., P(last)] of every stored depth (``_parity_rows`` in
        the orbit layout of radius ``_orbit_radius``)."""
        raise NotImplementedError

    def _from_parity(self, form: tuple) -> tuple:
        """A form read from the parity sums of this datum (``_parity_read``)
        in this datum's layout."""
        return form

    def _row_terms(self, rows: list, other: list, a: int) -> list:
        """(weight, xs, ys) terms whose products add up to sum w * x * y over
        the rows of two forms from depth a (``other`` is ``rows`` for
        squares), with w the number of vertices an entry stands for."""
        raise NotImplementedError

    def _around(self, odd, even) -> list | None:
        """[E, O] of the neighbour sums of a run whose odd depths hold
        ``odd`` and even depths ``even``: the q+1 neighbours of an even
        depth hold the odd value, and those of an odd depth the even one.
        None where a float64 origin would round apart from the run."""
        raise NotImplementedError

    def _adjacent_rows(self, part: list, base: int | None = None) -> list:
        """The layout's row kernel of the neighbour sum of one part, from its
        rows of depths base .. t (``_adjacent``, ``_radial_adjacent``)."""
        raise NotImplementedError

    # -- operators, written once ----------------------------------------------------

    def _neighbour_sums(self, form: tuple) -> tuple:
        """The form of x -> sum of the values at the q+1 neighbours of x.  In
        a run of a >= 3 depths, depth d <= a - 2 of the result adds the q+1
        values of the other class (``_around``), a run of a - 1 depths (of
        two when a = 3, which ``__init__`` stores as rows), and the rows from
        depth a - 2 on give the rest; a shorter run, or one whose float64
        origin rounds apart, is expanded."""
        lead, pairs, _ = form
        if lead >= 3:
            classes = [self._around(odd, even) for even, odd in pairs]
            if None not in classes:
                rows = self._from(form, lead - 2)
                return lead - 1, classes, [self._adjacent_rows(part, lead - 2) for part in rows]
        return 0, None, [self._adjacent_rows(part) for part in self._from(form, 0)]

    def adjacency(self) -> _Packed:
        """x -> sum of the values at the q+1 neighbours of x."""
        return self._make(self.den, self._neighbour_sums(self.form))

    @_one_layout
    def step(self, previous: _Packed) -> _Packed:
        """The leapfrog (1/sqrt(q)) * adjacency(self) - previous (float64:
        w*x - y, w the float 1/sqrt(q))."""
        pushed = self._over_root(1, self.den, self._neighbour_sums(self.form))
        return self._make(*self._sum_with(previous, -1, pushed))

    def _minus_over(self, form: tuple, weight: int) -> _Packed:
        """self - form / weight, for a form over the denominator of self."""
        if self.mode is not EXACT:
            return self._make(1, self._combined(1, self.form, -1 / weight, form))
        combined = self._combined(weight, self.form, -1, form)
        return self._make(weight * self.den, combined)

    def _kept_parity_rows(self, n: int) -> tuple[int, list]:
        """(last, sums): the parity sums of every part (``_parity_rows_of``),
        built to a distance last >= min(n, 2t + 1), t the last stored depth,
        and kept on this datum with the expanded rows they sum, so the M_n
        of one closed solve sum the data once, not once per n.  Past 2t + 1
        no distance adds a vertex.  A build reaches at least min(t, R) + 1
        (R the orbit radius), so data with no tail are built once and
        extended at most once, to 2t + 1; an extension grows to max(n,
        2 last), capped at 2t + 1, so a datum with a long tail is summed to
        about the distances asked, not to 2t + 1.  Results share the kept
        rows, which are never mutated in place."""
        top = self.size - 1
        complete = 2 * top + 1
        last, kept, rows = getattr(self, "_sums", (-1, None, None))
        if min(n, complete) > last:
            last = min(max(n, 2 * last, min(top, self._orbit_radius) + 1), complete)
            rows = rows or self._sum_rows()
            kept = self._parity_rows_of(rows, last)
            self._sums = last, kept, rows
        return last, kept

    def _sum_rows(self) -> list:
        return self.parts

    def __getstate__(self):
        # a copy carries the values, not the parity sums kept on them
        names = ("q", "mode", "den", "lead", "pairs", "body", "size")
        return None, {name: getattr(self, name) for name in names}

    def _parity_read(self, n: int) -> tuple:
        """The form of P(n) at every depth of the result, from the sums
        [P(0), .., P(last)] kept per part and stored depth
        (``_kept_parity_rows``): depth e <= t, the last stored depth, holds
        P(n) of depth e, and depth t + s (s = 1..n) P(n - s) of depth t,
        since a vertex there reaches the data only through its ancestor at
        depth t.  Past ``last``, which is then 2t + 1, P repeats its value of
        the same parity.  A vertex at depth d is at most d + t from the
        data, so P(n) sums one whole parity class of the data at every depth
        d <= n - t (at depth t + s it reads P(n - s) of depth t, with
        n - s >= 2t): for exact data with n >= t + 1 the depths 0 .. n - t
        are returned as a run of those n - t + 1 depths whose class values
        are the two class totals, P(last) and P(last - 1) of depth 0 (last
        >= t + 1), and only the rows after it; the constructor grows the run
        further where the rows allow, and stores one of two depths as rows.
        Float64 sums of one class may round apart, so their rows are read in
        full.  Rows are shared, not copied."""
        last, kept, _ = self._sums
        t = len(kept[0]) - 1
        a = n - t + 1
        if a >= 2 and self.mode is EXACT:
            # depth d holds the total of class n - d mod 2, P(m) of depth 0
            # for the m in (last, last - 1) of that parity: E the total of
            # class n and O that of class n - 1, then P(n) of the depths
            # a .. t and P(n - s) of depth t at depth t + s
            first, pairs, parts = self._first, [], []
            i, j = (last, last - 1) if (last - n) % 2 == 0 else (last - 1, last)
            tail = slice(min(n, 2 * t) - 1, None, -1) if t else slice(0)
            for sums in kept:
                pairs.append([first(sums[0][i]), first(sums[0][j])])
                rows = sums[-1][tail]
                parts.append([row[n] for row in sums[a:]] + rows if a <= t else rows)
            return a, pairs, parts
        parts = []
        for sums in kept:
            top = sums[-1]
            if n <= last:
                rows = [row[n] for row in sums] + top[:n][::-1]
            else:  # depths t + 1 .. t + n - last - 1 alternate between two rows
                beyond = n - 1 - last
                repeats = ([top[last - 1], top[last]] * (beyond // 2 + 1))[:beyond]
                rows = [row[last - (n - last) % 2] for row in sums] + repeats[::-1] + top[::-1]
            parts.append(rows)
        return 0, None, parts

    def _column_sum(self, columns: list) -> tuple:
        """The form sum_j w_j P(j) over the (j, w_j) columns, read from the
        parity sums kept on this datum (``_kept_parity_rows``,
        ``_parity_read``, ``_from_parity``) and added in the order given
        (``_combined``): an exact (wa, wb) weight enters as (wa + wb sqrt(q))
        P(j) (``_times``), a number as w P(j)."""
        out = 0, None, [[] for _ in self.body]
        if columns:
            self._kept_parity_rows(max(columns)[0])  # the largest j
        for j, w in columns:
            column = self._from_parity(self._parity_read(j))
            if type(w) is tuple:
                column, w = self._times(self.q, column, *w), 1
            out = self._combined(1, out, w, column)
        return out

    def ball_mean(self, n: int) -> _Packed:
        """M_n for n >= 1, in this layout, of data of either number type,
        vertex or radial, tail or not: the column P(n) of the parity sums
        kept on them (``_column_sum``) weighted once by q^(-n/2); results
        share the kept rows.  No kernel is built and no neighbour sum is
        taken."""
        if not self.size:
            return self
        return self._make(*self._over_root(n, self.den, self._column_sum([(n, 1)])))

    def cosine(self, n: int) -> _Packed:
        """C_n = (M_n - M_(n-2)) / 2 for n >= 1, as one parity combination:
        q^(-n/2) (P(n) - q P(n-2)) / 2, with P(-1) = 0, since M_(n-2) =
        q^(-n/2) q P(n-2): the columns (n, 1) and (n - 2, -q), over 2D.  One
        packed result, no M_n."""
        if not self.size:
            return self
        columns = [(n, 1), (n - 2, -self.q)] if n >= 2 else [(n, 1)]
        return self._make(*self._over_root(n, 2 * self.den, self._column_sum(columns)))

    def laplacian(self) -> _Packed:
        """u - Adj u / (q+1)."""
        return self._minus_over(self._neighbour_sums(self.form), self.q + 1)

    def two_step_laplacian(self) -> _Packed:
        """u - S2 u / (q(q+1)), with the distance-2 sphere sum taken as
        S2 = Adj^2 - (q+1) I (paths of length 2 that do not return)."""
        q, form = self.q, self.form
        twice = self._neighbour_sums(self._neighbour_sums(form))
        return self._minus_over(self._combined(1, twice, -(q + 1), form), q * (q + 1))

    # -- sums, written once -------------------------------------------------------

    def _sum(self, terms) -> list:
        """Parts of sum weight * (x*y) over the (weight, xs, ys) terms, each
        a pair of aligned slices of x's and y's parts: [sum xa*ya, sum xb*yb,
        sum xa*yb + xb*ya] for exact data, [sum x*y] for float64 (each term
        with ``fsum``, which rounds alike on every Python)."""
        if self.mode is not EXACT:
            total = 0.0
            for weight, xs, ys in terms:
                total += weight * fsum(map(mul, xs[0], ys[0]))
            return [total]
        aa = bb = ab = 0
        for weight, xs, ys in terms:
            (xa, xb), (ya, yb) = xs, ys
            if xs is ys:
                cross = 2 * sum(map(mul, xa, xb))
            else:
                cross = sum(map(mul, xa, yb)) + sum(map(mul, xb, ya))
            aa += weight * sum(map(mul, xa, ya))
            bb += weight * sum(map(mul, xb, yb))
            ab += weight * cross
        return [aa, bb, ab]

    def _terms(self, x: tuple, y: tuple, limit: int | None = None) -> list:
        """(weight, xs, ys) terms whose products add up to sum w * x * y over
        the depths < limit (all if None) of the forms x and y (y is x for
        squares): the common run's term of exact forms, whose products are
        [ce E, co O] times [E', O'] per part, with ce and co the vertices at
        its even and odd depths (``_parity_counts``), then the layout's
        rows from the run's end (``_row_terms``).  Float64 runs are
        expanded, so float sums add in the order of the expanded rows."""
        a = x[0] if x[0] < y[0] else y[0]
        if limit is not None and limit < a:
            a = limit if limit > 0 else 0
        if self.mode is not EXACT:
            a = 0
        rows = self._from(x, a, limit)
        terms = self._row_terms(rows, rows if y is x else self._from(y, a, limit), a)
        if not a:
            return terms
        counts = _parity_counts(self.q, a)
        return [(1, [list(map(mul, counts, pair)) for pair in x[1]], y[1]), *terms]

    def _pair_squares(self, limit: int | None = None):
        """Square terms of the distance-2 differences over unordered pairs
        with both ends at depth < limit (all if None)."""
        for deeper, xs, ys, count in self._distance_two_pairs():
            if limit is None or deeper < limit:
                diff = xs if ys is None else [list(map(sub, x, y)) for x, y in zip(xs, ys)]
                yield count, diff, diff

    @_one_layout
    def dot(self, other: _Packed) -> Scalar:
        """Counting inner product sum_x u(x) v(x), over the depths both
        store."""
        x, y = self.form, other.form
        total = self._sum(self._terms(x, y, min(self.size, other.size)))
        return self._scalar(total, self.den * other.den)

    @_one_layout
    def kinetic(self, minus: _Packed) -> Scalar:
        """(1/2) * sum_x ((u(x) - v(x)) / 2)^2 with u = self, v = minus."""
        den, diff = self._sum_with(minus, -1)
        return self._scalar(self._sum(self._terms(diff, diff)), 8 * den * den)

    def potential_pair(self) -> Scalar:
        """(1/(4q)) sum over ordered pairs at distance 2 of ((u(x)-u(y))/2)^2
        - ((q-1)^2/(8q)) sum_x u(x)^2, with the pairs enumerated one by one.
        Ordered pairs count every unordered pair twice, so both terms share
        the scale 8q D^2."""
        q, c, form = self.q, (self.q - 1) ** 2, self.form
        pair = self._sum(self._pair_squares())
        mass = self._sum(self._terms(form, form))
        return self._scalar([p - c * m for p, m in zip(pair, mass)], 8 * q * self.den**2)

    @_one_layout
    def huygens_sums(self, plus: _Packed, minus: _Packed, limit: int) -> tuple:
        """The interior sums over depths < limit: sum u^2, the squared
        distance-2 differences over ordered pairs with both ends interior,
        and sum (plus - minus)^2."""
        den2, form = self.den**2, self.form
        mass = self._scalar(self._sum(self._terms(form, form, limit)), den2)
        pairs = self._sum(self._pair_squares(limit))
        gradient = self._scalar([2 * value for value in pairs], den2)
        den, diff = plus._sum_with(minus, -1)
        kinetic = self._scalar(self._sum(self._terms(diff, diff, limit)), den * den)
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
        for the |S(d)| vertices of each sphere; the run is kept."""
        body = [[[value] for value in part] for part in profile.body]
        return orbit_layout(0)(profile.q, profile.mode, profile.den, body, profile.lead, profile.pairs)

    def _weight(self, d: int) -> int:
        """The number of vertices (keys) an entry of depth d stands for: 1 up
        to R, and beyond it |S(d)|/|S(R)|, the descendants of a vertex of
        S(R)."""
        orbit = self._orbit_radius
        return 1 if d <= orbit else _descendants(self.q, orbit, d)

    def _holds(self, row: list, value) -> bool:
        if row.count(value) != len(row):
            return False
        return value != 0 or self.mode is EXACT or _signs(row).count(copysign(1.0, value)) == len(row)

    def _fill(self, start: int, stop: int, pair: list) -> list:
        q, orbit = self.q, self._orbit_radius
        wide = sphere_volume(q, orbit)
        return [[pair[d % 2]] * (wide if d > orbit else sphere_volume(q, d)) for d in range(start, stop)]

    def _widen(self, radius: int) -> Levels:
        """This function in the orbit layout of a radius >= R: an entry of
        depth d > R is repeated once per vertex of S(min(d, radius)) below
        it, which keeps the canonical order (those vertices are one index
        range).  Only the rows beyond R grow, to |S(radius)| entries at
        most; the run is kept."""
        q, orbit, lead = self.q, self._orbit_radius, self.lead
        if radius == orbit:
            return self
        keep = max(orbit + 1 - lead, 0)  # the rows of depths <= R

        def widened(part: list) -> list:
            rows = part[:keep]
            for d, row in enumerate(part[keep:], lead + keep):
                rows.append(_repeat_each(row, sphere_volume(q, min(d, radius)) // len(row)))
            return rows

        body = list(map(widened, self.body))
        return orbit_layout(radius)(q, self.mode, self.den, body, lead, self.pairs)

    def _row_terms(self, rows: list, other: list, a: int) -> list:
        """One term per depth, weighted by ``_weight``."""
        weight = self._weight
        if other is rows:
            return [(weight(d), r, r) for d, r in enumerate(zip(*rows), a)]
        return [(weight(d), r, s) for d, (r, s) in enumerate(zip(zip(*rows), zip(*other)), a)]

    def _distance_two_pairs(self):
        # inside the run the ends of a pair share a value: only pairs with
        # the deeper end at depth >= lead, from the rows of lead - 2 on
        start = max(self.lead - 2, 0)
        rows = self._from(self.form, start)
        for d in range(start, self.size):
            if d >= self.lead:
                yield from self._sibling_pairs(rows, d - start, d)
            yield from self._grandchild_pairs(rows, start, d)

    @staticmethod
    def _cut(rows: list, i: int, *bounds) -> list:
        """The slice of stored depth i of every part."""
        window = slice(*bounds)
        return [part[i][window] for part in rows]

    def _sibling_pairs(self, rows: list, i: int, d: int):
        """The pairs of children of one vertex, at depth d <= R (row i);
        beyond R the children of a vertex descend from one vertex of S(R)
        and share its value, so their differences add 0."""
        q, orbit, cut = self.q, self._orbit_radius, self._cut
        if d == 1 <= orbit:  # the q+1 children of the origin
            for shift in range(1, q + 1):
                yield 1, cut(rows, i, shift, None), cut(rows, i, None, -shift), 1
        elif 2 <= d <= orbit:  # groups of q consecutive children
            for r in range(q):
                for s in range(r + 1, q):
                    yield d, cut(rows, i, r, None, q), cut(rows, i, s, None, q), 1

    def _grandchild_pairs(self, rows: list, start: int, d: int):
        """The pairs of a vertex at depth d and one of its grandchildren,
        from the rows of depths start on.  An entry of depth d is in
        |S(d+2)| divided by the size of its row such pairs, and a listed
        pair of entries stands for the weight of depth d+2 of them."""
        q, i = self.q, d - start
        level = [part[i] for part in rows]
        if d + 2 >= self.size:  # every grandchild is 0
            yield d + 2, level, None, sphere_volume(q, d + 2) // len(level[0])
        elif d == 0:
            origin = [part[0] * len(part[2]) for part in rows]
            yield 2, origin, [part[2] for part in rows], self._weight(2)
        else:  # the grandchildren of entry j are the entries j*s .. j*s + s - 1
            stride = len(rows[0][i + 2]) // len(level[0])
            for t in range(stride):
                yield d + 2, level, self._cut(rows, i + 2, t, None, stride), self._weight(d + 2)

    def _around(self, odd, even) -> list | None:
        """(q+1)*v, and for float64 v added to itself q times, as
        ``_adjacent`` adds a parent and its q children (q + 1 children at the
        origin).  When R = 0 the origin adds them to 0, which turns a float
        zero -0.0 into 0.0: then None."""
        q = self.q
        if self.mode is EXACT:
            return [(q + 1) * odd, (q + 1) * even]
        sums = [reduce(add, repeat(v, q + 1)) for v in (odd, even)]
        return sums if self._orbit_radius or sums[0] or copysign(1.0, sums[0]) > 0 else None

    def _adjacent_rows(self, part: list, base: int | None = None) -> list:
        return _adjacent(part, self.q, self._orbit_radius, self.mode is EXACT, base)

    def _parity_rows_of(self, rows: list, last: int) -> list:
        return [_parity_rows(self.q, part, last, self._orbit_radius) for part in rows]

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

    def _address(self, key) -> tuple:
        # a vertex beyond R reads the entry of its ancestor in S(R)
        if not (isinstance(key, VertexAddress) and key.q == self.q):
            return -1, None
        d, stored = key.depth, self.lead <= key.depth < self.size  # only a row needs an index
        return d, _vertex_index(key.labels[: self._orbit_radius], self.q) if stored else None

    def _from_parity(self, form: tuple) -> tuple:
        """A parity read holds rows up to t = min(top, R) and one entry per
        vertex of S(t) below: it is in the orbit layout of t, widened to R
        (rows are shared, as ``_widen`` shares them)."""
        orbit, top = self._orbit_radius, self.size - 1
        if top >= orbit:
            return form
        lead, pairs, parts = form
        return orbit_layout(top)(self.q, self.mode, 1, parts, lead, pairs)._widen(orbit).form


@cache
def orbit_layout(radius: int) -> type:
    """The class of the orbit layout of the given radius R >= 0."""
    return type(f"Levels{radius}", (Levels,), {"__slots__": (), "_orbit_radius": radius})


class RadialLevels(_Packed):
    """A radial profile p, standing for x -> p(|x|): each part is one flat
    list indexed by radius, whose entry m stands for the |S(m)| vertices of
    that sphere, so a part is p from radius ``lead`` on.  A profile keeps
    it once built."""

    __slots__ = ()
    _orbit_radius = 0  # its parity sums are those of ``Levels.from_radial``
    # storage shape: a part is its one row, so an entry's index is its radius
    _first = staticmethod(lambda value: value)
    _entries = staticmethod(iter)
    _map = staticmethod(_map_row)
    _combine = staticmethod(_combine_row)
    _part = staticmethod(itemgetter(0))

    def _holds(self, row, value) -> bool:  # a row is one value
        if row != value:
            return False
        return value != 0 or self.mode is EXACT or copysign(1.0, row) == copysign(1.0, value)

    def _rows(self):
        return [(0, self.parts)]

    def _body_rows(self):
        return [(0, self.body)]

    def _run_keys(self) -> tuple[int, int]:
        return (self.lead + 1) // 2, self.lead // 2  # the radii of each parity

    def _fill(self, start: int, stop: int, pair: list) -> list:
        size = stop - start
        return ((pair[::-1] if start % 2 else pair) * ((size + 1) // 2))[:size]

    def _key_rows(self, listing):
        return (js for _, js, *_ in listing)  # an entry's key is its radius

    def _address(self, key) -> tuple:
        return (key, None) if type(key) is int else (-1, None)  # a bool is not a key

    def _row_terms(self, rows: list, other: list, a: int) -> list:
        """One term: the rows of x weighted by |S(m)| at radius m."""
        volumes = _sphere_volumes(self.q, a, len(rows[0]))
        return [(1, [list(map(mul, volumes, row)) for row in rows], other)]

    def _pair_squares(self, limit: int | None = None):
        """One term for the grandparent pairs (m, m+2), |S(m+2)| of them,
        with both ends at depth < limit; siblings share a value and add 0,
        and so do the pairs inside the run."""
        size = self.size
        n = size if limit is None else max(min(limit - 2, size), 0)
        start = min(max(self.lead - 2, 0), n)
        rows = self._from(self.form, start)
        diffs = [list(map(sub, part[: n - start], part[2:] + [0, 0])) for part in rows]
        volumes = _sphere_volumes(self.q, start + 2, n - start)
        return [(1, [list(map(mul, volumes, diff)) for diff in diffs], diffs)]

    def _around(self, odd, even) -> list | None:
        """v + q v at a radius whose neighbours hold v (as
        ``_radial_adjacent`` adds p(m-1) + q p(m+1)).  The origin's (q+1)
        p(1) can round apart from the even radii's p(1) + q p(3) in
        float64: then None."""
        sums = [v + v * self.q for v in (odd, even)]
        return None if self.mode is not EXACT and (self.q + 1) * odd != sums[0] else sums

    def _adjacent_rows(self, part: list, base: int | None = None) -> list:
        return _radial_adjacent(part, self.q, base)

    def _sum_rows(self) -> list:
        return Levels.from_radial(self).parts

    def _parity_rows_of(self, rows: list, last: int) -> list:
        """The sums of the profile read as orbit data of radius 0, one entry
        per depth (``Levels.from_radial``), each sum unwrapped from its row
        of width 1."""
        sums = (_parity_rows(self.q, part, last, 0) for part in rows)
        return [[[row[0] for row in part_sums] for part_sums in part] for part in sums]

    @classmethod
    def pack(cls, q: int, mode: ScalarMode, values) -> RadialLevels:
        """Pack a mapping radius -> scalar (nonzero values only)."""
        radius = max(values, default=-1)
        return cls._pack(q, mode, [radius + 1], ((0, m, value) for m, value in values.items()))

    @classmethod
    def _exact_kernel(cls, q: int, n: int, den: int, lead: int, pair: list, rows: list):
        """An exact kernel of one rational part over den, times q^(-n/2):
        the run of ``lead`` depths whose class values are ``pair``, then
        ``rows``."""
        form = (lead, [pair, [0, 0]], [rows, [0] * len(rows)])
        den, (lead, pairs, parts) = cls._weighted(q, n, den, form)
        return cls(q, EXACT, den, parts, lead, pairs)

    @classmethod
    def m_kernel(cls, q: int, mode: ScalarMode, n: int) -> RadialLevels:
        """The distance kernel of M_n for n >= 0, one run over the distances
        0 .. n: q^(-n/2) at the d with n - d even.  Exact kernels are ones
        over D = q^ceil(n/2), in the B part for odd n (folded into A when q
        is a square)."""
        if mode is not EXACT:
            return cls(q, mode, 1, [[]], n + 1, [_class_pair(n, sqrt_q_power(q, -n, mode), 0.0)])
        return cls._exact_kernel(q, n, 1, n + 1, _class_pair(n, 1), [])

    @classmethod
    def c_kernel(cls, q: int, mode: ScalarMode, n: int) -> RadialLevels:
        """The distance kernel of C_n = (M_n - M_(n-2)) / 2 for n >= 1, built
        as its two parity runs: a run of q^(-n/2) (1 - q) / 2 at the
        distances d < n with n - d even, and q^(-n/2) / 2 at d = n.  Exact
        kernels are integers over 2 q^ceil(n/2); a float64 entry is rounded
        as the halved difference of the two M kernels' entries."""
        if mode is not EXACT:
            weight = sqrt_q_power(q, -n, mode)
            inner = (weight - sqrt_q_power(q, 2 - n, mode)) * 0.5 if n >= 2 else 0.0
            return cls(q, mode, 1, [[weight * 0.5]], n, [_class_pair(n, inner, 0.0)])
        return cls._exact_kernel(q, n, 2, n, _class_pair(n, 1 - q if n >= 2 else 0), [1])

    def convolve(self, kernel: RadialLevels) -> RadialLevels:
        """The radial operator with distance kernel ``kernel`` applied to this
        profile p: out(m) = sum_d kernel(d) sum_r count(m, d, r) p(r), where
        count(m, d, r) is the number of vertices at radius r and distance d
        from a vertex at radius m (``topology.distance_count``).

        The kernel is read by its parity runs w_j = kernel(j) - kernel(j +
        2), so that kernel(d) is the sum of the w_j with j >= d and j - d
        even, and out = sum_j w_j P(j), with P(j) the unweighted parity
        sums of p read as orbit data of radius 0 (``_kept_parity_rows``,
        ``_parity_read``), added in increasing j.  Inside the kernel's run
        every w_j is 0; the kernels of M_n and S_n have one nonzero w_j,
        that of C_n two, so a propagator kernel costs O(R) once the sums
        are kept on p.  The column sum of M_n and C_n adds the columns
        (``_column_sum``), an exact one as (wa + wb sqrt(q)) P(j).  A float64
        difference w_j rounds, so float64 profiles read only the run this
        way, the class value of depth j times P(j) for j = a - 2 and a - 1
        (for m_kernel(n), bitwise M_n), and add the kernel's rows distance
        by distance (``_add_rows``).  This is the route of
        ``radial.radial_convolve``."""
        q, exact = self.q, self.mode is EXACT
        if not (kernel.size and self.size):
            return RadialLevels(q, self.mode, 1, [[] for _ in self.body])
        if exact:  # the kernel from depth lead - 2 on
            start = max(kernel.lead - 2, 0)
            weights = [list(map(sub, k, k[2:] + [0, 0])) for k in kernel._from(kernel.form, start)]
            columns = [(j, w) for j, w in enumerate(zip(*weights), start) if any(w)]
        else:  # the run's columns only, its class values at P(a - 2), P(a - 1)
            a, pair = kernel.lead, (kernel.pairs or [[0.0, 0.0]])[0]
            columns = [(j, pair[j % 2]) for j in (a - 2, a - 1) if j >= 0 and pair[j % 2]]
        out = self._column_sum(columns)
        if not exact:
            out = 0, None, [self._add_rows(out[2][0], kernel.body[0], kernel.lead)]
        return self._make(kernel.den * self.den, out)

    def _add_rows(self, out: list, ks: list, start: int) -> list:
        """A new list: ``out`` padded to the radii of the convolution, plus
        the float64 kernel values ``ks`` at the distances d = start, start +
        1, .. against p, term by term in the order of d, then r, each as
        (kernel(d) p(r)) * count: for one (d, r), the path from radius m
        climbs a = (m + d - r)/2 steps, and the radii m = |d - r|, ..., d + r
        (step 2) take the counts, with k = min(d, r): q^k (|S(k)| if d = r,
        where m = 0), then (q-1) q^(k-2), ..., (q-1) q^0, then 1 at a = d."""
        q, (values,) = self.q, self.parts
        size = start + len(ks) + len(values) - 1
        out, counts = out + [0.0] * (size - len(out)), {}
        for d, kd in enumerate(ks, start):
            for r, pr in enumerate(values):
                value = kd * pr
                if value:
                    k = min(d, r)
                    if (k, d == r) not in counts:
                        middle = [(q - 1) * q**i for i in range(k - 2, -1, -1)]
                        top = (q + 1) * q ** (k - 1) if d == r and k else q**k
                        counts[k, d == r] = [top, *middle, 1] if k else [1]
                    for m, c in zip(range(abs(d - r), size, 2), counts[k, d == r]):
                        out[m] += value * c
        return out


class HeightLevels(_Packed):
    """A function s of the horocyclic height: depth 0 holds s(0), depth
    d >= 1 holds s(d) and s(-d).  A height sequence keeps it once built; it
    is storage only, keeps no run, and the transforms read its slots."""

    __slots__ = ()
    _keeps_runs = False

    @classmethod
    def pack(cls, q: int, mode: ScalarMode, values) -> HeightLevels:
        """Pack a mapping height -> scalar (nonzero values only)."""
        radius = max(map(abs, values), default=-1)
        entries = ((abs(h), int(h < 0), value) for h, value in values.items())
        return cls._pack(q, mode, [2 if d else 1 for d in range(radius + 1)], entries)

    def _key_rows(self, listing):
        return ([-d if j else d for j in js] for d, js, *_ in listing)

    def _address(self, key) -> tuple:
        return (abs(key), key < 0) if type(key) is int else (-1, None)  # a bool is not a key
