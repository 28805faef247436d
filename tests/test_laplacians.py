import random
from fractions import Fraction

from treewave.functions import (
    HeightSequence,
    RadialProfile,
    TreeFunction,
    radial_profile_of,
    spherical_mean,
)
from treewave.laplacians import (
    SpectralConstants,
    gamma,
    gamma_tilde,
    laplacian_line,
    laplacian_tree,
    rayleigh_quotient,
    tau,
    two_step_laplacian,
)
from treewave.scalars import QSurd, ScalarMode, sqrt_q_power
from treewave.topology import Ball, VertexAddress, sphere

EXACT = ScalarMode.EXACT


def random_tree_function(q, radius, rng, hits=8):
    ball = list(Ball(q, radius))
    entries = {}
    for _ in range(hits):
        entries[rng.choice(ball)] = QSurd(rng.randint(-3, 3), 0, q)
    return TreeFunction(q, EXACT, entries)


def test_spectral_constants():
    constants = SpectralConstants(2)
    assert constants.gamma == QSurd(0, Fraction(2, 3), 2)
    assert constants.gamma_tilde == QSurd(Fraction(1, 6), 0, 2)
    assert 0 < constants.gamma < 1
    assert 0 < constants.gamma_tilde < 1
    assert abs(constants.tau - tau(2)) == 0.0


def test_line_laplacian_of_delta():
    s = HeightSequence.delta(2, EXACT)
    out = laplacian_line(s)
    assert out[0] == 1
    assert out[1] == QSurd(Fraction(-1, 2), 0, 2)
    assert out[-1] == QSurd(Fraction(-1, 2), 0, 2)


def test_line_laplacian_kills_constants_in_the_interior():
    s = HeightSequence(2, EXACT, [(h, QSurd(4, 0, 2)) for h in range(-3, 4)])
    out = laplacian_line(s)
    for h in range(-2, 3):
        assert out[h].is_zero()


def test_horocyclic_identity():
    # materialize a height function on the tree and compare the tree
    # Laplacian with gamma * q^(h/2) L_line(q^(-h/2) f) + (1-gamma) f
    q = 2
    rng = random.Random(5)
    heights = {h: QSurd(rng.randint(-3, 3), 0, q) for h in range(-2, 3)}
    s = HeightSequence(q, EXACT, heights)
    radius = 4
    f = TreeFunction(q, EXACT, [(v, s[v.height()]) for v in Ball(q, radius)])
    lf = laplacian_tree(f)
    conjugated = HeightSequence(
        q, EXACT, [(h, sqrt_q_power(q, -h, EXACT) * value) for h, value in s.items()]
    )
    line_part = laplacian_line(conjugated)
    g = gamma(q)
    for vertex in Ball(q, radius - 1):
        h = vertex.height()
        expected = g * sqrt_q_power(q, h, EXACT) * line_part[h] + (QSurd.one(q) - g) * s[h]
        assert lf[vertex] == expected


def test_tree_laplacian_of_delta():
    out = laplacian_tree(TreeFunction.delta(2, EXACT))
    assert out[VertexAddress.origin(2)] == 1
    for v in sphere(VertexAddress.origin(2), 1, Ball(2, 1)):
        assert out[v] == QSurd(Fraction(-1, 3), 0, 2)


def test_tree_laplacian_kills_constants_in_the_interior():
    profile = RadialProfile(2, EXACT, [(n, QSurd(7, 0, 2)) for n in range(4)])
    f = TreeFunction.from_radial(profile)
    out = laplacian_tree(f)
    for v in Ball(2, 2):
        assert out[v].is_zero()


def test_commutation_with_spherical_means():
    rng = random.Random(11)
    for q in (2, 3):
        f = random_tree_function(q, 3, rng)
        for x in [VertexAddress.origin(q), VertexAddress(q, (1, 0))]:
            means = radial_profile_of(f, center=x)
            radial_image = laplacian_tree(means)
            lf = laplacian_tree(f)
            for n in range(5):
                assert spherical_mean(lf, x, n) == radial_image[n]


def test_radial_laplacian_of_delta_profile():
    out = laplacian_tree(RadialProfile.delta(2, EXACT))
    assert out[0] == 1
    assert out[1] == QSurd(Fraction(-1, 3), 0, 2)


def test_radial_laplacian_kills_constants_in_the_interior():
    p = RadialProfile(3, EXACT, [(n, QSurd(2, 0, 3)) for n in range(5)])
    out = laplacian_tree(p)
    for n in range(1, 4):
        assert out[n].is_zero()
    # n = 0 is interior too: f(0) - f(1) = 0
    assert out[0].is_zero()


def test_two_step_laplacian_of_delta():
    out = two_step_laplacian(TreeFunction.delta(2, EXACT))
    assert out[VertexAddress.origin(2)] == 1
    for v in sphere(VertexAddress.origin(2), 2, Ball(2, 2)):
        assert out[v] == QSurd(Fraction(-1, 6), 0, 2)
    for v in sphere(VertexAddress.origin(2), 1, Ball(2, 1)):
        assert out[v].is_zero()


def test_two_step_factorization():
    # Lt = ((q+1)/q) * L * (2 - L) on delta data
    for q in (2, 3):
        f = TreeFunction.delta(q, EXACT)
        lf = laplacian_tree(f)
        composite = laplacian_tree(f.scale(QSurd(2, 0, q)) - lf).scale(
            QSurd(Fraction(q + 1, q), 0, q)
        )
        assert composite == two_step_laplacian(f)


def test_rayleigh_quotients_inside_spectra():
    rng = random.Random(23)
    for q in (2, 3):
        one = QSurd.one(q)
        g = gamma(q)
        gt = gamma_tilde(q)
        upper = QSurd(Fraction(q + 1, q), 0, q)
        for _ in range(10):
            f = random_tree_function(q, 3, rng)
            if not f:
                continue
            quotient = rayleigh_quotient(laplacian_tree, f)
            assert one - g <= quotient <= one + g
            quotient2 = rayleigh_quotient(two_step_laplacian, f)
            assert gt <= quotient2 <= upper


def test_operators_preserve_radiality():
    p = RadialProfile(2, EXACT, [(0, QSurd(1, 0, 2)), (2, QSurd(-2, 0, 2))])
    f = TreeFunction.from_radial(p)
    assert laplacian_tree(f) == TreeFunction.from_radial(laplacian_tree(p))


def test_self_adjointness():
    rng = random.Random(31)
    for operator in (laplacian_tree, two_step_laplacian):
        for _ in range(5):
            f = random_tree_function(2, 3, rng)
            g = random_tree_function(2, 3, rng)
            assert operator(f).dot(g) == f.dot(operator(g))


def test_line_laplacian_self_adjoint():
    rng = random.Random(33)
    q = 2
    s = HeightSequence(q, EXACT, [(h, QSurd(rng.randint(-3, 3), 0, q)) for h in range(-3, 4)])
    t = HeightSequence(q, EXACT, [(h, QSurd(rng.randint(-3, 3), 0, q)) for h in range(-3, 4)])

    def pair(a, b):
        total = QSurd.zero(q)
        for h, value in a.items():
            total = total + value * b[h]
        return total

    assert pair(laplacian_line(s), t) == pair(s, laplacian_line(t))
    assert laplacian_line(s + t) == laplacian_line(s) + laplacian_line(t)


def test_radial_laplacian_self_adjoint_for_tree_counting():
    # the counting inner product on the tree restricted to radial functions
    # carries the sphere-volume weights
    from treewave.topology import sphere_volume

    rng = random.Random(37)
    q = 3
    p = RadialProfile(q, EXACT, [(n, QSurd(rng.randint(-3, 3), 0, q)) for n in range(4)])
    r = RadialProfile(q, EXACT, [(n, QSurd(rng.randint(-3, 3), 0, q)) for n in range(4)])

    def pair(a, b):
        total = QSurd.zero(q)
        for n, value in a.items():
            total = total + value * b[n] * QSurd(sphere_volume(q, n), 0, q)
        return total

    assert pair(laplacian_tree(p), r) == pair(p, laplacian_tree(r))
    assert laplacian_tree(p + r) == laplacian_tree(p) + laplacian_tree(r)


def test_linearity():
    rng = random.Random(41)
    f = random_tree_function(3, 2, rng)
    g = random_tree_function(3, 2, rng)
    for operator in (laplacian_tree, two_step_laplacian):
        assert operator(f + g) == operator(f) + operator(g)
