import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewave.errors import ModeError, ParameterError
from treewave.scalars import (
    QSurd,
    ScalarMode,
    ensure_mode,
    scalar_from_json,
    scalar_sum,
    scalar_to_json,
    sqrt_q_power,
    surd_to_float,
)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def surds(q):
    return st.builds(lambda a, b: QSurd(a, b, q), small_fractions, small_fractions)


def test_sqrt_q_squares_to_q():
    root = QSurd.sqrt(2)
    assert root * root == QSurd(2, 0, 2)


def test_norm_form_product():
    x = QSurd(1, 1, 2)
    assert x * x.conjugate() == QSurd(-1, 0, 2)
    assert x.norm() == Fraction(-1)


def test_gamma_value_for_q2():
    # 2/(sqrt(2) + 1/sqrt(2)) simplifies to (2/3)*sqrt(2)
    root = QSurd.sqrt(2)
    denominator = root + QSurd.one(2) / root
    value = QSurd(2, 0, 2) / denominator
    assert value == QSurd(0, Fraction(2, 3), 2)
    assert value.to_float() == pytest.approx(0.942809, abs=1e-6)


def test_perfect_square_q_folds_b_component():
    x = QSurd(1, 1, 4)
    assert x.a == Fraction(3) and x.b == 0
    assert x == 3


def test_mismatched_q_raises():
    with pytest.raises(ParameterError):
        QSurd(1, 0, 2) + QSurd(1, 0, 3)


def test_exact_sum_coerces_like_plus_and_refuses_another_q():
    exact = ScalarMode.EXACT
    values = [QSurd(Fraction(1, 3), Fraction(1, 2), 2), 2, Fraction(-5, 6), QSurd(0, 1, 2)]
    assert scalar_sum(values, 2, exact) == QSurd(Fraction(3, 2), Fraction(3, 2), 2)
    with pytest.raises(ParameterError, match="q=2 and q=3"):
        scalar_sum([QSurd(1, 0, 2), QSurd(1, 0, 3)], 2, exact)
    with pytest.raises(ParameterError, match="q=2 and q=3"):
        scalar_sum([QSurd(1, 0, 3)], 2, exact)
    with pytest.raises(TypeError):
        scalar_sum([QSurd(1, 0, 2), 0.5], 2, exact)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QSurd(1, 0, 2) / QSurd(0, 0, 2)


def test_mixing_modes_is_an_error():
    with pytest.raises(TypeError):
        QSurd(1, 0, 2) + 0.5
    with pytest.raises(ModeError):
        ensure_mode(QSurd(1, 0, 2), ScalarMode.FLOAT64, 2)
    with pytest.raises(ModeError):
        ensure_mode(0.5, ScalarMode.EXACT, 2)


def test_exact_ordering():
    root = QSurd.sqrt(2)
    assert QSurd(1, 0, 2) < root < QSurd(2, 0, 2)
    # 7/5 < sqrt(2) < 17/12 (close rational neighbours)
    assert QSurd(Fraction(7, 5), 0, 2) < root
    assert root < QSurd(Fraction(17, 12), 0, 2)
    assert abs(QSurd(1, -1, 2)) == QSurd(-1, 1, 2)


def test_sqrt_q_power_ladder():
    assert sqrt_q_power(2, 2, ScalarMode.EXACT) == QSurd(2, 0, 2)
    assert sqrt_q_power(2, -1, ScalarMode.EXACT) == QSurd(0, Fraction(1, 2), 2)
    assert sqrt_q_power(2, 3, ScalarMode.EXACT) == QSurd(0, 2, 2)
    assert sqrt_q_power(3, -4, ScalarMode.FLOAT64) == pytest.approx(1 / 9)


def test_json_round_trip():
    x = QSurd(Fraction(1, 2), Fraction(-3, 7), 5)
    assert scalar_to_json(x) == {"a": "1/2", "b": "-3/7"}
    assert scalar_from_json(x.to_json(), 5, ScalarMode.EXACT) == x
    assert scalar_from_json(0.25, 5, ScalarMode.FLOAT64) == 0.25


@given(x=surds(3), y=surds(3), z=surds(3))
@settings(max_examples=60, deadline=None)
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(x=surds(2))
@settings(max_examples=60, deadline=None)
def test_multiplicative_inverse(x):
    if not x.is_zero():
        assert x * x.inverse() == QSurd.one(2)
        assert x / x == 1


@given(x=surds(2), y=surds(2))
@settings(max_examples=60, deadline=None)
def test_to_float_tracks_float_arithmetic(x, y):
    # correctly rounded operands keep +/* within 4 ulp of float arithmetic,
    # measured at the scale of the operands (cancellation shrinks the result)
    scale = max(abs(x.to_float()), abs(y.to_float()), 1.0)
    for exact, approx in [
        ((x + y).to_float(), x.to_float() + y.to_float()),
        ((x * y).to_float(), x.to_float() * y.to_float()),
    ]:
        tolerance = 4 * math.ulp(max(abs(exact), abs(approx), scale))
        assert abs(exact - approx) <= tolerance


@given(x=surds(2))
@settings(max_examples=40, deadline=None)
def test_to_float_is_correctly_rounded(x):
    # the computed double must enclose the true value within half an ulp
    value = x.to_float()
    if x.b == 0:
        assert value == float(x.a)
        return
    # compare against a very high precision evaluation
    reference = float(x.a) + float(x.b) * math.sqrt(2)
    assert value == pytest.approx(reference, rel=1e-12, abs=1e-12)


def test_sign_on_cancelling_combinations():
    # 17/12 - sqrt(2) > 0 but 7/5 - sqrt(2) < 0
    assert (QSurd(Fraction(17, 12), -1, 2)).sign() == 1
    assert (QSurd(Fraction(7, 5), -1, 2)).sign() == -1
    assert QSurd.zero(7).sign() == 0


@given(x=surds(2), y=surds(2))
@settings(max_examples=60, deadline=None)
def test_order_consistent_with_floats(x, y):
    if x.to_float() < y.to_float():
        assert x < y
    elif x.to_float() > y.to_float():
        assert x > y


@given(x=surds(3), y=surds(3))
@settings(max_examples=60, deadline=None)
def test_sign_is_multiplicative(x, y):
    assert (x * y).sign() == x.sign() * y.sign()
    assert abs(x * y) == abs(x) * abs(y)


def test_integer_powers():
    x = QSurd(1, 1, 2)
    assert x**0 == 1
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()
    assert QSurd.sqrt(2) ** 4 == 4


def test_construction_coerces_plain_integers():
    x = QSurd(3, q=5)
    assert x == 3 and x.q == 5
    assert ensure_mode(2, ScalarMode.EXACT, 3) == QSurd(2, 0, 3)
    assert ensure_mode(Fraction(1, 4), ScalarMode.EXACT, 3) == QSurd(Fraction(1, 4), 0, 3)


def fraction_bracket_float(a: Fraction, b: Fraction, q: int) -> float:
    """Reference: bracket sqrt(q) between Fractions n/2^k and (n+1)/2^k,
    k = 64, 128, ..., until both ends of a + b*sqrt(q) round alike."""
    if b == 0:
        return float(a)
    bits = 64
    while True:
        n = math.isqrt(q << (2 * bits))
        ends = {float(a + b * Fraction(n + i, 1 << bits)) for i in (0, 1)}
        if len(ends) == 1:
            return ends.pop()
        bits *= 2


big = st.integers(-(10**40), 10**40)


@given(
    q=st.sampled_from((2, 3, 5, 7, 4, 9)),
    a=big,
    b=big,
    den=st.integers(1, 10**30),
    cancel=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_surd_to_float_matches_the_fraction_bracket(q, a, b, den, cancel):
    if math.isqrt(q) ** 2 == q:
        b = 0  # folded into a, as in QSurd and the packed form
    elif cancel:  # a + b*sqrt(q) close to 0: the bracket has to double
        a = -math.isqrt(q * b * b) * (1 if b > 0 else -1)
    expected = fraction_bracket_float(Fraction(a, den), Fraction(b, den), q)
    assert surd_to_float(q, a, b, den) == expected
    assert QSurd(Fraction(a, den), Fraction(b, den), q).to_float() == expected
    assert surd_to_float(q, -a, -b, den) == -expected


# -- the integer triple (A, B, D) -----------------------------------------------

FIELD_QS = (2, 3, 4, 5, 9)
wide_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=36)


def surd_pairs(count):
    """q from FIELD_QS and ``count`` rational pairs (a, b)."""
    pair = st.tuples(wide_fractions, wide_fractions)
    return st.tuples(st.sampled_from(FIELD_QS), st.lists(pair, min_size=count, max_size=count))


def folded(a: Fraction, b: Fraction, q: int) -> tuple[Fraction, Fraction]:
    """The Fraction-pair normal form: sqrt(q) folded into a for a square q."""
    root = math.isqrt(q)
    return (a + b * root, Fraction(0)) if root * root == q else (a, b)


def assert_canonical(x: QSurd, a: Fraction, b: Fraction) -> None:
    """x is the normal form of a + b*sqrt(q): D > 0, gcd(A, B, D) = 1, B = 0
    for a square q, and A/D, B/D are the folded pair."""
    big_a, big_b, den = x.slots
    assert den > 0 and math.gcd(big_a, big_b, den) == 1
    assert (x.a, x.b) == folded(a, b, x.q) == (Fraction(big_a, den), Fraction(big_b, den))


def pair_product(x, y, q):
    (a, b), (c, d) = x, y
    return a * c + q * b * d, a * d + b * c


def pair_inverse(x, q):
    a, b = x
    norm = a * a - q * b * b
    return a / norm, -b / norm


@given(data=surd_pairs(2), exponent=st.integers(-3, 4))
@settings(max_examples=200, deadline=None)
def test_operations_keep_the_normal_form(data, exponent):
    # each result against the same operation on folded Fraction pairs
    q, (x, y) = data
    x, y = folded(*x, q), folded(*y, q)
    u, v = QSurd(*x, q), QSurd(*y, q)
    assert_canonical(u, *x)
    assert_canonical(u + v, x[0] + y[0], x[1] + y[1])
    assert_canonical(u - v, x[0] - y[0], x[1] - y[1])
    assert_canonical(-u, -x[0], -x[1])
    assert_canonical(u * v, *pair_product(x, y, q))
    assert_canonical(u * 3 - Fraction(1, 6), 3 * x[0] - Fraction(1, 6), 3 * x[1])
    if v:
        assert_canonical(v.inverse(), *pair_inverse(y, q))
        assert_canonical(u / v, *pair_product(x, pair_inverse(y, q), q))
        assert_canonical(2 / v, *pair_product((2, 0), pair_inverse(y, q), q))
    if u or exponent >= 0:
        power = (Fraction(1), Fraction(0))
        base = x if exponent >= 0 else pair_inverse(x, q)
        for _ in range(abs(exponent)):
            power = pair_product(power, base, q)
        assert_canonical(u**exponent, *power)


@given(
    q=st.sampled_from(FIELD_QS),
    r=st.one_of(st.integers(-(10**20), 10**20), wide_fractions),
)
@settings(max_examples=200, deadline=None)
def test_rational_values_equal_and_hash_like_int_and_fraction(q, r):
    x = QSurd(r, 0, q)
    assert x == r and r == x
    assert hash(x) == hash(r) == hash(Fraction(r))
    assert x != r + 1 and x != QSurd(r, 0, 7)
    # a value with an irrational part is equal to no rational
    if math.isqrt(q) ** 2 != q:
        assert QSurd(r, 1, q) != r


@given(data=surd_pairs(1))
@settings(max_examples=200, deadline=None)
def test_printing_matches_the_fraction_pair_form(data):
    # str, repr and to_json as they were printed from the two Fractions
    q, ((a, b),) = data
    x = QSurd(a, b, q)
    a, b = folded(a, b, q)
    if b == 0:
        text = str(a)
    elif a == 0:
        text = f"{b}*sqrt({q})"
    else:
        text = f"{a}{'+' if b > 0 else '-'}{abs(b)}*sqrt({q})"
    assert str(x) == text
    assert repr(x) == f"QSurd({a}, {b}, q={q})"
    assert x.to_json() == {"a": str(a), "b": str(b)}
    assert QSurd.from_json(x.to_json(), q) == x


def test_zero_is_one_value_per_q():
    assert QSurd.zero(3) is QSurd.zero(3)
    assert QSurd.zero(3) == 0 and QSurd.zero(3) != QSurd.zero(2)
    with pytest.raises(ParameterError):
        QSurd.zero(1)
    with pytest.raises(ParameterError):
        QSurd.zero(2.0)
    with pytest.raises(AttributeError):
        QSurd.zero(3)._v = (1, 0, 1, 3)


@pytest.mark.parametrize("q", FIELD_QS)
def test_sqrt_q_power_matches_repeated_products(q):
    root, power = QSurd.sqrt(q), QSurd.one(q)
    for k in range(9):
        assert sqrt_q_power(q, k, ScalarMode.EXACT) == power
        assert sqrt_q_power(q, -k, ScalarMode.EXACT) == power.inverse()
        power = power * root
