"""The scattered ball mean M_n over the vertex rows, and the float64 radial
convolution summed distance by distance: the tests' oracles of the parity
sums of ``treewave.levels``.

M_n f(x) = q^(-n/2) times the sum of f(y) over the vertices y with
d(x, y) <= n and n - d(x, y) even.  Here each stored value of f is added,
source by source in canonical order, to the index ranges of the vertices
at each such distance (``sphere_ranges``).  No neighbour sum and no parity
sum is taken, so this route shares only the packed storage with
``_parity_rows`` and the leapfrog.  Its cost grows with Ball(R + n).
"""

from itertools import repeat
from operator import add

from treewave.functions import RadialProfile
from treewave.levels import RadialLevels, orbit_layout
from treewave.scalars import ScalarMode, sqrt_q_power
from treewave.topology import sphere_volume


def descendants(q, e, i, t):
    """Index range at depth e + t of the descendants of vertex i at depth e."""
    if e == 0:
        return (0, 1) if t == 0 else (0, (q + 1) * q ** (t - 1))
    return i * q**t, (i + 1) * q**t


def sphere_ranges(q, k, j, n):
    """(depth, lo, hi) index ranges that together list, once each, the
    vertices x with d(x, y) = d, for the vertex y at depth k and index j and
    every d <= n with n - d even.  The geodesic from y climbs a steps to its
    ancestor z and descends d - a steps without going back through the child
    of z towards y; both the descendants of z and those of that child are
    one range, so each (d, a) gives at most two."""
    for d in range(n % 2, n + 1, 2):
        for a in range(min(d, k) + 1):
            e, t = k - a, d - a
            lo, hi = descendants(q, e, j // q**a, t)
            if a and t:
                cut_lo, cut_hi = descendants(q, e + 1, j // q ** (a - 1), t - 1)
                yield e + t, lo, cut_lo
                yield e + t, cut_hi, hi
            else:
                yield e + t, lo, hi


def full_rows(levels):
    """Packed vertex data widened to their top depth: the vertex rows, every
    entry of weight 1."""
    return levels._widen(max(len(levels.parts[0]) - 1, levels._orbit_radius))


def scatter_mean(levels, n):
    """M_n for n >= 1 of packed vertex data, on the vertex rows, in the
    orbit layout of its top depth.  A float64 value is weighted before it
    is added; exact parts are weighted once at the end (``_weighted``)."""
    q, mode, exact = levels.q, levels.mode, levels.mode is ScalarMode.EXACT
    full = full_rows(levels).parts
    radius = len(full[0]) - 1
    zero = 0 if exact else 0.0
    out = [[[zero] * sphere_volume(q, e) for e in range(radius + n + 1)] for _ in full]
    weight = 1 if exact else sqrt_q_power(q, -n, mode)
    for k, level in enumerate(zip(*full)):
        for j, values in enumerate(zip(*level)):
            spread = [(part, value * weight) for part, value in zip(out, values) if value]
            if not spread:
                continue
            for depth, lo, hi in sphere_ranges(q, k, j, n):
                if lo < hi:
                    for part, value in spread:
                        target = part[depth]
                        target[lo:hi] = map(add, target[lo:hi], repeat(value, hi - lo))
    layout = orbit_layout(radius + n)
    if not exact:
        return layout(q, mode, 1, out)
    den, (_, _, rows) = levels._weighted(q, n, levels.den, (0, None, out))
    return layout(q, mode, den, rows)


def loop_convolve(kernel, p):
    """The float64 radial convolution out(m) = sum_d kernel(d) sum_r
    count(m, d, r) p(r), added term by term in the order of d, then r, each
    as (kernel(d) p(r)) * count.  For one (d, r) the path from radius m
    climbs a = (m + d - r)/2 steps, and the radii m = |d - r|, ..., d + r
    (step 2) take the counts, with k = min(d, r): q^k (|S(k)| if d = r,
    where m = 0), then (q-1) q^(k-2), ..., (q-1) q^0, then 1 at a = d.  No
    parity sum is read."""
    q = p.q
    (ks,), (values,) = kernel._as_levels().parts, p._as_levels().parts
    size = len(ks) + len(values) - 1
    out = [0.0] * size
    plain, diagonal = [[1]], [[1]]
    for k in range(1, min(len(ks), len(values))):
        middle = [(q - 1) * q**i for i in range(k - 2, -1, -1)]
        plain.append([q**k, *middle, 1])
        diagonal.append([(q + 1) * q ** (k - 1), *middle, 1])
    for d, kd in enumerate(ks):
        for r, pr in enumerate(values):
            value = kd * pr
            if value:
                counts = diagonal[d] if d == r else plain[min(d, r)]
                for m, c in zip(range(abs(d - r), size, 2), counts):
                    out[m] += value * c
    return RadialProfile._from_levels(RadialLevels(q, p.mode, 1, [out]))
