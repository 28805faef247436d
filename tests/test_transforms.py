import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewave.errors import DomainError, ModeError, ParameterError
from treewave.functions import HeightSequence, RadialProfile
from treewave.laplacians import tau
from treewave.scalars import QSurd, ScalarMode, scalar_from_fraction, sqrt_q_power
from treewave.transforms import (
    abel,
    abel_inverse,
    cos_q,
    dual_abel,
    dual_abel_inverse,
    fourier_height,
    fourier_table,
    sin_q,
    sine_ratio_q,
)

EXACT = ScalarMode.EXACT


def random_profile(q, rng, radius=6):
    return RadialProfile(
        q, EXACT, [(n, QSurd(rng.randint(-3, 3), 0, q)) for n in range(radius + 1)]
    )


def random_even_sequence(q, rng, radius=6):
    entries = {0: QSurd(rng.randint(-3, 3), 0, q)}
    for h in range(1, radius + 1):
        value = QSurd(rng.randint(-3, 3), 0, q)
        entries[h] = value
        entries[-h] = value
    return HeightSequence(q, EXACT, entries)


def test_abel_of_delta_profile():
    out = abel(RadialProfile.delta(2, EXACT))
    assert out == HeightSequence.delta(2, EXACT)
    assert abel(RadialProfile.delta(2, EXACT), method="brute") == out


def test_abel_of_radius_one_profile():
    # one vertex at height +1 with weight sqrt(q), q vertices at height -1
    # with weight q * q^(-1/2); both give sqrt(2) for q = 2
    p = RadialProfile.delta(2, EXACT, at=1)
    out = abel(p)
    root = QSurd.sqrt(2)
    assert out[1] == root
    assert out[-1] == root
    assert out[0].is_zero()
    assert abel(p, method="brute") == out


def test_abel_output_is_even():
    rng = random.Random(2)
    for q in (2, 3):
        out = abel(random_profile(q, rng))
        assert out.is_even()


def test_abel_brute_equals_closed():
    rng = random.Random(3)
    for q in (2, 3, 4):
        p = random_profile(q, rng)
        assert abel(p, method="brute") == abel(p, method="closed")


def test_abel_second_form():
    # telescoping form: sum_k q^(|h|/2+k) {f(|h|+2k) - f(|h|+2k+2)}
    rng = random.Random(5)
    q = 3
    p = random_profile(q, rng)
    out = abel(p)
    radius = p.support_radius()
    for h in range(-radius, radius + 1):
        total = QSurd.zero(q)
        for k in range((radius - abs(h)) // 2 + 1):
            weight = sqrt_q_power(q, abs(h) + 2 * k, EXACT)
            total = total + weight * (p[abs(h) + 2 * k] - p[abs(h) + 2 * k + 2])
        assert out[h] == total


def test_abel_inverse_of_delta():
    out = abel_inverse(HeightSequence.delta(2, EXACT))
    assert out == RadialProfile.delta(2, EXACT)


def test_abel_inverse_example_radius_one():
    root = QSurd.sqrt(2)
    s = HeightSequence(2, EXACT, [(1, root), (-1, root)])
    assert abel_inverse(s) == RadialProfile.delta(2, EXACT, at=1)


def test_abel_inverse_requires_even_input():
    with pytest.raises(DomainError):
        abel_inverse(HeightSequence.delta(2, EXACT, at=1))


@given(data=st.data(), q=st.sampled_from([2, 3]))
@settings(max_examples=30, deadline=None)
def test_abel_round_trips(data, q):
    values = data.draw(
        st.lists(st.integers(-4, 4), min_size=1, max_size=7), label="profile"
    )
    p = RadialProfile(q, EXACT, [(n, QSurd(v, 0, q)) for n, v in enumerate(values)])
    assert abel_inverse(abel(p)) == p
    s = abel(p)
    assert abel(abel_inverse(s)) == s


def test_dual_abel_at_zero_returns_value_at_zero():
    rng = random.Random(7)
    s = random_even_sequence(2, rng)
    assert dual_abel(s, 0) == s[0]
    assert dual_abel(s, 0, method="brute") == s[0]


def test_dual_abel_radius_one_example():
    s = HeightSequence(2, EXACT, [(1, QSurd(1, 0, 2)), (-1, QSurd(1, 0, 2))])
    expected = QSurd(0, Fraction(2, 3), 2)  # (2/3) sqrt(2)
    assert dual_abel(s, 1, method="brute") == expected
    assert dual_abel(s, 1, method="closed") == expected


def test_dual_abel_brute_equals_closed_on_constant():
    q = 2
    s = HeightSequence(q, EXACT, [(h, QSurd(1, 0, q)) for h in range(-4, 5)])
    for n in range(5):
        assert dual_abel(s, n, "brute") == dual_abel(s, n, "closed")


def test_dual_abel_brute_equals_closed_random():
    rng = random.Random(9)
    for q in (2, 3, 4):
        s = random_even_sequence(q, rng, radius=4)
        for n in range(5):
            assert dual_abel(s, n, "brute") == dual_abel(s, n, "closed")


def test_dual_abel_even_average_reading_on_non_even_input():
    # the closed form averages value(k) and value(-k); that reading matches
    # the sphere sum even on non-even data
    for q in (2, 3):
        s = HeightSequence.delta(q, EXACT, at=-1)
        assert dual_abel(s, 1, "brute") == dual_abel(s, 1, "closed")


def test_dual_abel_inverse_at_zero():
    rng = random.Random(13)
    m = random_profile(2, rng, radius=4)
    assert dual_abel_inverse(m)[0] == m[0]


def test_dual_abel_inverse_round_trip():
    rng = random.Random(17)
    for q in (2, 3):
        s = random_even_sequence(q, rng, radius=6)
        radius = s.support_radius()
        means = RadialProfile(
            q, EXACT, [(n, dual_abel(s, n, "closed")) for n in range(radius + 1)]
        )
        assert dual_abel_inverse(means) == s


def test_dual_abel_inverse_forward_round_trip():
    rng = random.Random(19)
    for q in (2, 3):
        m = random_profile(q, rng, radius=6)
        reconstructed = dual_abel_inverse(m)
        for n in range(m.support_radius() + 1):
            assert dual_abel(reconstructed, n, "closed") == m[n]


def test_dual_abel_inverse_second_form():
    # expanded forms with the q^k partial sums
    rng = random.Random(21)
    q = 2
    m = random_profile(q, rng, radius=6)
    out = dual_abel_inverse(m)
    lead = QSurd(0, Fraction(q + 1, 2 * q), q)  # (sqrt(q) + 1/sqrt(q)) / 2
    drop = QSurd(0, Fraction(q - 1, 2 * q), q)  # (sqrt(q) - 1/sqrt(q)) / 2
    ratio = scalar_from_fraction(Fraction(q * q - 1, 2 * q), q, EXACT)  # (q - 1/q)/2
    for h in range(1, m.support_radius() + 1):
        expected = lead * sqrt_q_power(q, h - 1, EXACT) * m[h]
        tail = QSurd.zero(q)
        parity = 1 if h % 2 else 0
        for k in range(1, h):
            if k % 2 == parity:
                tail = tail + scalar_from_fraction(Fraction(q**k), q, EXACT) * m[k]
        expected = expected - ratio * sqrt_q_power(q, -h, EXACT) * tail
        if h % 2 == 0:
            expected = expected - drop * sqrt_q_power(q, -(h - 1), EXACT) * m[0]
        assert out[h] == expected


def test_duality_pairing():
    # sum_h A f(h) g(h) = sum_n delta(n) f(n) A* g(n)
    from treewave.topology import sphere_volume

    rng = random.Random(23)
    for q in (2, 3):
        f = random_profile(q, rng, radius=4)
        g = random_even_sequence(q, rng, radius=6)
        lhs = QSurd.zero(q)
        af = abel(f)
        for h, value in af.items():
            lhs = lhs + value * g[h]
        rhs = QSurd.zero(q)
        for n in range(f.support_radius() + 1):
            weight = QSurd(sphere_volume(q, n), 0, q)
            rhs = rhs + weight * f[n] * dual_abel(g, n, "closed")
        assert lhs == rhs


def test_fourier_of_delta_is_one():
    s = HeightSequence.delta(2, ScalarMode.FLOAT64)
    for lam in (0.0, 0.37, 2.2):
        assert fourier_height(s, lam) == pytest.approx(1.0)


def test_fourier_of_symmetric_pair_is_cosine():
    s = HeightSequence(2, ScalarMode.FLOAT64, [(1, 1.0), (-1, 1.0)])
    for lam in (0.0, 0.31, 1.7):
        assert fourier_height(s, lam).real == pytest.approx(2 * cos_q(lam, 2), abs=1e-12)
        assert fourier_height(s, lam).imag == pytest.approx(0.0, abs=1e-12)


def test_fourier_rejects_exact_mode():
    with pytest.raises(ModeError):
        fourier_height(HeightSequence.delta(2, EXACT), 0.5)


def test_fourier_periodicity():
    s = HeightSequence(3, ScalarMode.FLOAT64, [(0, 0.5), (2, -1.25), (-2, -1.25)])
    period = tau(3)
    for lam in (0.0, 0.4, 1.1):
        assert fourier_height(s, lam + period) == pytest.approx(
            fourier_height(s, lam), abs=1e-10
        )


def _fourier_by_points(s, lam):
    """The transform at one frequency, one exponential per term, added in
    increasing h from complex(0.0)."""
    total, log_q = complex(0.0), math.log(s.q)
    for h, value in s.items():
        total = total + value * cmath.exp(1j * lam * h * log_q)
    return total


def _bits(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_fourier_table_equals_the_per_point_sum_bit_for_bit(q):
    rng = random.Random(f"fourier table {q}")
    base = abel(random_profile(q, rng, radius=4)).as_float64()
    odd = HeightSequence(q, ScalarMode.FLOAT64, [(h, rng.uniform(-2, 2)) for h in range(-3, 6)])
    zero = HeightSequence(q, ScalarMode.FLOAT64)
    sequences = [base, odd, zero, HeightSequence.delta(q, ScalarMode.FLOAT64, 7)]
    period = tau(q)
    grid = [0.0, period / 2, -0.3, 1.7 * period] + [i * (period / 2) / 12 for i in range(13)]
    table = fourier_table(sequences, grid)
    assert len(table) == len(sequences) and all(len(row) == len(grid) for row in table)
    for s, row in zip(sequences, table):
        for lam, value in zip(grid, row):
            expected = _fourier_by_points(s, lam)
            assert _bits(value) == _bits(expected) == _bits(fourier_height(s, lam))


def test_fourier_table_refuses_mixed_q_and_exact_data():
    two, three = (HeightSequence.delta(q, ScalarMode.FLOAT64) for q in (2, 3))
    with pytest.raises(ParameterError, match="'q'"):
        fourier_table([two, three], [0.5])
    with pytest.raises(ModeError):
        fourier_table([two, HeightSequence.delta(2, EXACT)], [0.5])
    assert fourier_table([], [0.5]) == [] and fourier_table([two], []) == [[]]


@pytest.mark.parametrize(
    "call, field",
    [
        pytest.param(lambda s, m: dual_abel(s, 2.0), "'n'", id="dual_abel-float"),
        pytest.param(lambda s, m: dual_abel(s, True), "'n'", id="dual_abel-bool"),
        pytest.param(lambda s, m: dual_abel(s, "2", "brute"), "'n'", id="dual_abel-str"),
        pytest.param(lambda s, m: dual_abel_inverse(m, up_to=2.5), "'up_to'", id="inverse-float"),
        pytest.param(lambda s, m: dual_abel_inverse(m, up_to=True), "'up_to'", id="inverse-bool"),
    ],
)
def test_transform_radii_fail_closed(call, field):
    s = random_even_sequence(2, random.Random(3), radius=3)
    m = RadialProfile(2, EXACT, [(0, QSurd(1, 0, 2)), (1, QSurd(2, 0, 2))])
    with pytest.raises(ParameterError, match=field):
        call(s, m)


def test_fourier_of_abel_of_radius_one_kernel():
    # the radius-1 profile q^(-1/2)/2 maps to (delta_1 + delta_-1)/2, whose
    # transform is cos_q
    q = 2
    half_weight = sqrt_q_power(q, -1, EXACT) * scalar_from_fraction(Fraction(1, 2), q, EXACT)
    p = RadialProfile(q, EXACT, [(1, half_weight)])
    s = abel(p).as_float64()
    period = tau(q)
    for i in range(100):
        lam = i * (period / 2) / 99
        assert fourier_height(s, lam).real == pytest.approx(cos_q(lam, q), abs=1e-12)
        assert fourier_height(s, lam).imag == pytest.approx(0.0, abs=1e-12)


def test_sine_ratio_limit_values():
    q = 2
    assert sine_ratio_q(0, 0.0, q) == 0.0
    assert sine_ratio_q(1, 0.0, q) == 1.0
    for n in (2, 3, 5):
        assert sine_ratio_q(n, 0.0, q) == pytest.approx(n)
        lam = 0.637
        expected = sin_q(n * lam, q) / sin_q(lam, q)
        assert sine_ratio_q(n, lam, q) == pytest.approx(expected, abs=1e-10)


def test_float_mode_transforms_agree_with_exact():
    rng = random.Random(29)
    q = 2
    exact_profile = random_profile(q, rng, radius=5)
    float_profile = exact_profile.as_float64()
    exact_forward = abel(exact_profile).as_float64()
    for method in ("brute", "closed"):
        forward = abel(float_profile, method)
        for h in range(-5, 6):
            assert forward[h] == pytest.approx(exact_forward[h], abs=1e-12)
    recovered = abel_inverse(abel(float_profile))
    for n in range(6):
        assert recovered[n] == pytest.approx(
            float(exact_profile[n].to_float()), abs=1e-12
        )
    s = HeightSequence(q, ScalarMode.FLOAT64, [(1, 0.5), (-1, 0.5), (0, -2.0)])
    for n in range(4):
        assert dual_abel(s, n, "brute") == pytest.approx(dual_abel(s, n, "closed"), abs=1e-12)


def test_abel_inverse_second_form():
    # q^(-n/2) f(n) - (q-1) * sum_{k>=1} q^(-n/2-k) f(n+2k)
    rng = random.Random(31)
    q = 3
    s = random_even_sequence(q, rng, radius=6)
    out = abel_inverse(s)
    radius = s.support_radius()
    for n in range(radius + 1):
        expected = sqrt_q_power(q, -n, EXACT) * s[n]
        k = 1
        while n + 2 * k <= radius:
            weight = sqrt_q_power(q, -n, EXACT) * scalar_from_fraction(
                Fraction(1, q**k), q, EXACT
            )
            expected = expected - scalar_from_fraction(q - 1, q, EXACT) * weight * s[n + 2 * k]
            k += 1
        assert out[n] == expected


# -- the closed routes on irrational data, and their float64 order ----------------


def irrational_profile(q, rng, radius):
    def draw():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    return RadialProfile(q, EXACT, [(n, QSurd(draw(), draw(), q)) for n in range(radius + 1)])


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_closed_routes_equal_brute_routes_on_irrational_data(q):
    rng = random.Random(q)
    for radius in (0, 1, 2, 3):
        p = irrational_profile(q, rng, radius)
        forward = abel(p)
        assert forward == abel(p, method="brute")
        assert abel_inverse(forward) == p
        for n in range(radius + 3):
            assert dual_abel(forward, n) == dual_abel(forward, n, method="brute")
        lopsided = forward + HeightSequence(q, EXACT, [(-radius - 1, QSurd(1, 1, q))])
        for n in range(radius + 3):
            assert dual_abel(lopsided, n) == dual_abel(lopsided, n, method="brute")


def _scalar_abel(p, q):
    # the float64 closed forms written out here, in the order of the library's
    # scalar loops, so that a reordered sum shows as a changed bit
    radius, ratio = p.support_radius(), (q - 1) / q
    out = {}
    for h in range(-radius, radius + 1):
        total = float(q) ** (abs(h) / 2) * p[abs(h)]
        for m in range(abs(h) + 2, radius + 1, 2):
            total = total + ratio * float(q) ** (m / 2) * p[m]
        out[h] = total
    return out


def _scalar_abel_inverse(s, q):
    radius, out = s.support_radius(), {}
    for n in range(radius + 1):
        total = 0.0
        for k in range((radius - n) // 2 + 1):
            weight = float(q) ** (-n / 2) * (1 / q**k)
            total = total + weight * (s[n + 2 * k] - s[n + 2 * k + 2])
        out[n] = total
    return out


def _scalar_dual_abel(s, q, n):
    total = 2 * q / (q + 1) * s.even_value(n)
    for k in range(-n + 2, n - 1, 2):
        total = total + (q - 1) / (q + 1) * s.even_value(k)
    return total * float(q) ** (-n / 2)


@pytest.mark.parametrize("q", (2, 3, 5))
def test_float64_closed_routes_keep_the_bits_of_the_scalar_loops(q):
    rng = random.Random(100 + q)
    for radius in (1, 4, 6):
        p = irrational_profile(q, rng, radius).as_float64()
        forward = abel(p)
        assert {h: v.hex() for h, v in forward.items()} == {
            h: v.hex() for h, v in _scalar_abel(p, q).items() if v
        }
        back = abel_inverse(forward)
        assert {n: v.hex() for n, v in back.items()} == {
            n: v.hex() for n, v in _scalar_abel_inverse(forward, q).items() if v
        }
        for n in range(1, radius + 3):
            assert dual_abel(forward, n).hex() == _scalar_dual_abel(forward, q, n).hex()
