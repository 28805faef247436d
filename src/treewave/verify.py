"""Verification suite: every statement of the discrete theory checked against
an independent route, reported pass/fail with deterministic detail text.

Each check names the mathematical statement it exercises and is driven by a
seeded generator, so the report bytes are reproducible for a fixed seed and
configuration.  The negative control corrupts the recurrence weight and must
make the conservation check fail; it guards against the suite going green by
construction.

Each statement is written once, here.  A check takes the q values and a
generator, plus keyword parameters for its reach (|n| range, data radius,
numbers of pairs or frequencies).  ``_SIZES`` holds the values of ``treewave
verify --size small|standard``; the acceptance tests
(``tests/test_acceptance.py``) call the same checks with larger pinned values
and assert that they pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .energy import (
    energies,
    equipartition_gap,
    gap_bound_constant,
    huygens_report,
    propagation_bounds,
    radial_equipartition_gap,
    total_energy,
    total_energy_closed_form,
)
from .errors import ConfigError, ParameterError
from .functions import RadialProfile, TreeFunction, radial_profile_of, spherical_mean
from .laplacians import (
    gamma,
    gamma_tilde,
    laplacian_tree,
    rayleigh_quotient,
    tau,
    two_step_laplacian,
)
from .radial import (
    kernel_family_recurrence,
    propagator_kernels,
    radial_convolve,
    radial_solve,
)
from .sampling import (
    random_data_pair,
    random_even_sequence,
    random_radial_profile,
    random_tree_function,
)
from .scalars import QSurd, ScalarMode, scalar_from_fraction, sqrt_q_power
from .topology import MAX_VERTICES, Ball, VertexAddress, distance, sphere, sphere_volume
from .transforms import (
    abel,
    abel_inverse,
    cos_q,
    dual_abel,
    dual_abel_inverse,
    fourier_table,
    sine_ratio_q,
)
from .wave import (
    WaveTrajectory,
    _leapfrog,
    adjacency_sum,
    asgeirsson_field,
    asgeirsson_verify,
    solve,
)

EXACT = ScalarMode.EXACT

# per size: check name -> the keyword arguments that differ between sizes;
# keyed by name because the benchmark's tracer replaces the check functions
# with wrappers that keep their names
_SIZES = {
    "small": {
        "check_mean_commutation": {"n_max": 4},
        "check_oracle_equivalence": {"n_max": 4},
        "check_energy_conservation": {"n_max": 5},
        "check_asgeirsson": {"pairs": 8},
        "check_multipliers": {"samples": 40},
    },
    "standard": {
        "check_mean_commutation": {"n_max": 6},
        "check_oracle_equivalence": {"n_max": 6},
        "check_energy_conservation": {"n_max": 8},
        "check_asgeirsson": {"pairs": 20},
        "check_multipliers": {"samples": 100},
    },
}

# the largest ball any check walks is Ball(q, 6): check_metric's
# breadth-first search is cut at that depth, and the Asgeirsson double sums
# take spheres of radius <= 4 about centres of depth <= 2; the brute Abel
# sum enumerates Ball(q, 5), and every vertex function keeps packed rows no
# deeper than its data radius (<= 2), since solutions and M_n stay in the
# orbit layout of the data (tests/test_cli.py traces every ball, sphere and
# packed row a check builds)
_ASGEIRSSON_TIMES, _LARGEST_BALL = 8, 6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _solve_recurrence(f: TreeFunction, g: TreeFunction, n_max: int, corrupt: bool = False):
    """The leapfrog on |n| <= n_max, in the orbit layout of the data radius;
    with ``corrupt`` the recurrence weight 1/sqrt(q) is scaled by 11/10, a
    fixture that must break conservation."""
    if not corrupt:
        return solve(f, g, n_max, solver="recurrence")
    q, mode = f.q, f.mode
    bad_weight = sqrt_q_power(q, -1, mode) * scalar_from_fraction(Fraction(11, 10), q, mode)
    half = scalar_from_fraction(Fraction(1, 2), q, mode)

    def bad_step(previous: TreeFunction, current: TreeFunction) -> TreeFunction:
        return adjacency_sum(current).scale(bad_weight) - previous

    pushed = adjacency_sum(f).scale(bad_weight * half)
    snapshots = _leapfrog(f, g, pushed, -n_max, n_max, bad_step)
    return WaveTrajectory(q=q, mode=mode, f=f, g=g, snapshots=snapshots)


def _delta_instance(q: int, n_max: int):
    """Radial leapfrog of the pinned instance u(., 0) = delta, u_t(., 0) = 0."""
    delta, zero = RadialProfile.delta(q, EXACT), RadialProfile(q, EXACT)
    return radial_solve(delta, zero, n_max, solver="recurrence")


def check_sphere_volumes(qs, rng) -> CheckResult:
    for q in qs:
        ball = Ball(q, 5)
        for n in range(5):
            listed = sphere(VertexAddress.origin(q), n, ball)
            if len(listed) != sphere_volume(q, n):
                return CheckResult("sphere volumes", False, f"q={q} n={n}")
            heights = sorted({v.height() for v in listed})
            if heights != list(range(-n, n + 1, 2)):
                return CheckResult(
                    "sphere volumes", False, f"height partition broken at q={q} n={n}"
                )
    return CheckResult(
        "sphere volumes and height partition over every tested tree", True, "radii 0..4"
    )


def _searched_distance(x: VertexAddress, y: VertexAddress) -> int:
    """d(x, y) by breadth-first search over ``neighbors()``, cut at depth
    ``_LARGEST_BALL``, from both ends in turn, one whole layer at a time:
    the first layer to reach a vertex the other end has seen gives the
    distance, its radius plus the least radius of the other end there."""
    if x == y:
        return 0
    seen, other, layer, other_layer = {x: 0}, {y: 0}, [x], [y]
    while True:
        radius = seen[layer[0]] + 1
        near = (nb for v in layer for nb in v.neighbors())
        layer = [nb for nb in near if nb.depth <= _LARGEST_BALL and nb not in seen]
        seen.update(dict.fromkeys(layer, radius))
        met = [other[v] for v in layer if v in other]
        if met:
            return radius + min(met)
        seen, other, layer, other_layer = other, seen, other_layer, layer


def check_metric(qs, rng) -> CheckResult:
    for q in qs:
        ball = list(Ball(q, 3))
        for _ in range(10):
            x, y = rng.choice(ball), rng.choice(ball)
            if _searched_distance(x, y) != distance(x, y) or distance(x, y) != distance(y, x):
                return CheckResult("tree metric", False, f"q={q} {x} {y}")
    return CheckResult(
        "tree metric against breadth-first search (symmetry included)",
        True,
        f"{10 * len(qs)} pairs",
    )


def check_transform_closed_forms(
    qs, rng, *, profile_radius: int = 5, sequence_radius: int = 4
) -> CheckResult:
    for q in qs:
        p = random_radial_profile(q, profile_radius, rng)
        if abel(p, "brute") != abel(p, "closed"):
            return CheckResult("horocycle sums", False, f"forward disagrees at q={q}")
        s = random_even_sequence(q, sequence_radius, rng)
        for n in range(sequence_radius + 1):
            if dual_abel(s, n, "brute") != dual_abel(s, n, "closed"):
                return CheckResult("horocycle sums", False, f"dual disagrees at q={q} n={n}")
    return CheckResult(
        "horocycle summation closed forms against vertex enumeration "
        "(pins the height convention)",
        True,
        f"q in {{{','.join(map(str, qs))}}}",
    )


def check_transform_inversions(qs, rng) -> CheckResult:
    for q in qs:
        p = random_radial_profile(q, 6, rng)
        if abel_inverse(abel(p)) != p:
            return CheckResult("transform inversions", False, f"radial round trip q={q}")
        s = random_even_sequence(q, 6, rng)
        means = RadialProfile(q, EXACT, [(n, dual_abel(s, n, "closed")) for n in range(7)])
        # up_to: trailing means can vanish while s(6) does not
        if dual_abel_inverse(means, up_to=6) != s:
            return CheckResult("transform inversions", False, f"dual round trip q={q}")
    return CheckResult(
        "both transform inversions as exact round trips on random data",
        True,
        "supports <= 6",
    )


def check_duality_pairing(qs, rng) -> CheckResult:
    for q in qs:
        f = random_radial_profile(q, 4, rng)
        g = random_even_sequence(q, 5, rng)
        lhs = QSurd.zero(q)
        for h, value in abel(f).items():
            lhs = lhs + value * g[h]
        rhs = QSurd.zero(q)
        for n in range(f.support_radius() + 1):
            rhs = rhs + QSurd(sphere_volume(q, n), 0, q) * f[n] * dual_abel(g, n, "closed")
        if lhs != rhs:
            return CheckResult("duality pairing", False, f"q={q}")
    return CheckResult(
        "duality pairing between the transform and its sphere-average dual",
        True,
        "random profile/sequence pairs",
    )


def check_laplacians(qs, rng) -> CheckResult:
    for q in qs:
        one = QSurd.one(q)
        for _ in range(5):
            f = random_tree_function(q, 2, rng)
            if not f:
                continue
            quotient = rayleigh_quotient(laplacian_tree, f)
            if not (one - gamma(q) <= quotient <= one + gamma(q)):
                return CheckResult("laplacian spectra", False, f"step-1 window q={q}")
            quotient2 = rayleigh_quotient(two_step_laplacian, f)
            if not (gamma_tilde(q) <= quotient2 <= QSurd(Fraction(q + 1, q), 0, q)):
                return CheckResult("laplacian spectra", False, f"step-2 window q={q}")
            g = random_tree_function(q, 2, rng)
            if laplacian_tree(f).dot(g) != f.dot(laplacian_tree(g)):
                return CheckResult("laplacian spectra", False, f"self-adjointness q={q}")
    return CheckResult(
        "laplacian Rayleigh quotients inside the spectral windows, "
        "self-adjointness for the counting inner product",
        True,
        "random finitely supported data",
    )


def check_mean_commutation(qs, rng, *, n_max: int) -> CheckResult:
    for q in qs:
        f = random_tree_function(q, 2, rng)
        for x in (VertexAddress.origin(q), VertexAddress(q, (1,))):
            image = laplacian_tree(radial_profile_of(f, center=x))
            lf = laplacian_tree(f)
            for n in range(n_max):
                if spherical_mean(lf, x, n) != image[n]:
                    return CheckResult("spherical-mean commutation", False, f"q={q} n={n}")
    return CheckResult(
        "laplacian commutes with spherical means (radial part identity)",
        True,
        "random data, two centers",
    )


def check_oracle_equivalence(
    qs, rng, *, n_max: int, data_radius: int = 1, vertex_n: dict | None = None
) -> CheckResult:
    """Kernel tables for |n| <= n_max; vertex snapshots of random data on
    Ball(data_radius) for |n| <= vertex_n[q] (n_max when not given)."""
    for q in qs:
        families = kernel_family_recurrence(q, n_max, EXACT)
        for n in range(-n_max, n_max + 1):
            if families[n] != propagator_kernels(q, n, EXACT):
                return CheckResult("propagator oracle", False, f"kernel mismatch q={q} n={n}")
        f, g = random_data_pair(q, data_radius, rng)
        reach = n_max if vertex_n is None else vertex_n[q]
        closed = solve(f, g, reach, solver="closed")
        leapfrog = solve(f, g, reach, solver="recurrence")
        for n in closed.n_values():
            if closed.snapshot(n) != leapfrog.snapshot(n):
                return CheckResult("propagator oracle", False, f"vertex mismatch q={q} n={n}")
    return CheckResult(
        "closed-form propagators equal the leapfrog recurrence "
        "(kernels and vertex snapshots, exact)",
        True,
        f"|n| <= {n_max}",
    )


def check_energy_conservation(qs, rng, *, n_max: int, corrupt: bool = False) -> CheckResult:
    """Energies at every interior time of |n| <= n_max, plus the pinned delta
    instance at q = 2, whose total is 5/16."""
    for q in qs:
        f, g = random_data_pair(q, 1, rng)
        trajectory = _solve_recurrence(f, g, n_max, corrupt)
        reference, reports = total_energy(trajectory)
        for report in reports:
            if report.total != reference:
                return CheckResult(
                    "energy conservation",
                    False,
                    f"E({report.n}) != E(reference) at q={q}",
                )
        if reference != total_energy_closed_form(f, g):
            return CheckResult("energy conservation", False, f"closed form q={q}")
        if energies(trajectory, 0).potential.sign() < 0:
            return CheckResult("energy conservation", False, f"negative potential q={q}")
    delta, zero = TreeFunction.delta(2, EXACT), TreeFunction.zero(2, EXACT)
    pinned = QSurd(Fraction(5, 16), 0, 2)
    _, reports = total_energy(_solve_recurrence(delta, zero, 4, corrupt))
    if total_energy_closed_form(delta, zero) != pinned or any(r.total != pinned for r in reports):
        return CheckResult("energy conservation", False, "delta instance E != 5/16")
    return CheckResult(
        "energy conservation (exact) and the closed-form total in the data",
        True,
        f"|n| <= {n_max - 1}",
    )


def check_equipartition(qs, rng, *, decay_n: int = 5) -> CheckResult:
    """Both gap routes at |n| <= 2 and the decay bound at 1 <= |n| <= decay_n
    on random data; the pinned delta sequence -2^(-n-5) for 2 <= n <= 10."""
    for q in qs:
        f, g = random_data_pair(q, 1, rng)
        trajectory = solve(f, g, decay_n + 1, solver="recurrence")
        bound = gap_bound_constant(f, g)
        for n in (-2, -1, 0, 1, 2):
            direct, operator_route = equipartition_gap(trajectory, n)
            if direct != operator_route:
                return CheckResult("equipartition", False, f"route mismatch q={q} n={n}")
        for report in total_energy(trajectory)[1]:
            n = report.n
            if n and abs(report.gap) * sqrt_q_power(q, 2 * abs(n), EXACT) > bound:
                return CheckResult("equipartition", False, f"decay bound q={q} n={n}")
    radial = _delta_instance(2, 11)
    for n in range(2, 11):
        direct, operator_route = radial_equipartition_gap(radial, n)
        if direct != operator_route or direct != QSurd(Fraction(-1, 2 ** (n + 5)), 0, 2):
            return CheckResult("equipartition", False, f"delta-instance gap at n={n}")
    return CheckResult(
        "equipartition gap: direct sums equal the operator pairings and decay "
        "inside the q^(-|n|) envelope",
        True,
        "random data plus the pinned delta sequence",
    )


def check_propagation(
    qs, rng, *, n_max: int = 4, data_radius: int = 1, delta_n: int = 8
) -> CheckResult:
    """The light cone for random data on Ball(data_radius) at |n| <= n_max;
    for the delta instance at |n| <= delta_n, support radius exactly |n| and
    the q^(|n|/2)-scaled peak exactly (q-1)/2 once |n| >= 2."""
    for q in qs:
        f, g = random_data_pair(q, data_radius, rng)
        if not propagation_bounds(solve(f, g, n_max, solver="recurrence")).within_cone:
            return CheckResult("finite propagation speed", False, f"cone violated q={q}")
        half_of = scalar_from_fraction(Fraction(q - 1, 2), q, EXACT)
        for row in propagation_bounds(_delta_instance(q, delta_n)).rows:
            n = row.n
            if row.support_radius != abs(n):
                return CheckResult("finite propagation speed", False, f"support q={q} n={n}")
            if abs(n) >= 2 and row.scaled_amplitude != half_of:
                return CheckResult("finite propagation speed", False, f"amplitude q={q} n={n}")
    return CheckResult(
        "finite propagation speed (support in the light cone, exactly) and "
        "the q^(-|n|/2) amplitude law",
        True,
        "random data and the delta instance",
    )


def check_asgeirsson(qs, rng, *, pairs: int) -> CheckResult:
    """At the first q only: the hypothesis and the double-sphere sums for
    radii m, n <= 4 at random base pairs x, y with d(x, y) <= 2."""
    q = qs[0]
    f, g = random_data_pair(q, 1, rng)
    trajectory = solve(f, g, _ASGEIRSSON_TIMES, solver="recurrence")
    field = asgeirsson_field(trajectory, Ball(q, _ASGEIRSSON_TIMES))
    base = list(Ball(q, 2))
    done = 0
    while done < pairs:
        x, y = rng.choice(base), rng.choice(base)
        if distance(x, y) > 2:
            continue
        if field.laplacian_in_x(x, y) != field.laplacian_in_y(x, y):
            return CheckResult("mean-value symmetry", False, f"hypothesis at ({x},{y})")
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        lhs, rhs = asgeirsson_verify(field, x, y, m, n)
        if lhs != rhs:
            return CheckResult("mean-value symmetry", False, f"double sum at ({x},{y})")
        done += 1
    return CheckResult(
        "two-variable mean-value symmetry (hypothesis and double-sphere sums, exact)",
        True,
        f"{pairs} random base pairs, radii <= 4",
    )


def check_multipliers(qs, rng, *, samples: int) -> CheckResult:
    """At the first q only: C_n and S_n for n <= 6 against cos_q and the sine
    ratio at ``samples`` >= 2 frequencies, within 1e-10.  The base and its
    14 images are transformed in one table (``fourier_table``)."""
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 2:
        raise ParameterError(f"field 'samples' must be an integer >= 2, got {samples!r}")
    q = qs[0]
    p = random_radial_profile(q, 3, rng)
    images = [abel(p).as_float64()]
    for n in range(7):
        for kernel in propagator_kernels(q, n, EXACT):  # (C_n, S_n)
            images.append(abel(radial_convolve(kernel, p)).as_float64())
    period = tau(q)
    grid = [i * (period / 2) / (samples - 1) for i in range(samples)]
    references, *table = fourier_table(images, grid)
    for n in range(7):
        cosines, sines = table[2 * n], table[2 * n + 1]
        for lam, reference, cosine, sine in zip(grid, references, cosines, sines):
            if abs(cosine - cos_q(n * lam, q) * reference) > 1e-10:
                return CheckResult("fourier multipliers", False, f"cosine n={n}")
            expected = sine_ratio_q(n, lam, q) * reference
            if abs(sine - expected) > 1e-10:
                return CheckResult("fourier multipliers", False, f"sine n={n}")
    return CheckResult(
        "propagators act as the trigonometric multipliers under the height "
        "Fourier transform",
        True,
        f"n <= 6, {samples} sampled frequencies",
    )


def check_huygens(qs, rng) -> CheckResult:
    """The delta instance at q = 2 (``qs`` is not used).

    The pinned reference interior_mass(6, margin 2) = 7/256 must hold on the
    radial route and equal the vertex-level sums.  A strict decrease of each
    interior sum cannot hold for this instance: the gradient sum vanishes
    identically and the mass alternates with time parity.  So the statement
    is a strict decrease of the combined interior content along the times
    4, 9, 16, 25, a zero gradient sum at each, and a per-sum decrease along
    the same-parity pairs (4, 16) and (9, 25).
    """
    trajectory = _delta_instance(2, 26)
    reference = huygens_report(trajectory, 6, 2)
    if reference.interior_mass != QSurd(Fraction(7, 256), 0, 2):
        return CheckResult("huygens concentration", False, "pinned interior mass")
    vertex = solve(TreeFunction.delta(2, EXACT), TreeFunction.zero(2, EXACT), 7, "recurrence")
    if huygens_report(vertex, 6, 2) != reference:
        return CheckResult("huygens concentration", False, "vertex and radial sums differ")
    reports = {n: huygens_report(trajectory, n) for n in (4, 9, 16, 25)}
    if not all(r.interior_gradient.is_zero() for r in reports.values()):
        return CheckResult("huygens concentration", False, "interior gradient sum nonzero")
    totals = [r.interior_mass + r.interior_gradient + r.interior_kinetic for r in reports.values()]
    for earlier, later in zip(totals, totals[1:]):
        if not later < earlier:
            return CheckResult("huygens concentration", False, "combined content grew")
    for earlier, later in ((reports[4], reports[16]), (reports[9], reports[25])):
        if not (
            later.interior_mass < earlier.interior_mass
            and later.interior_kinetic < earlier.interior_kinetic
        ):
            return CheckResult("huygens concentration", False, "same-parity sums grew")
    return CheckResult(
        "energy concentrates in the light-cone shell: combined interior "
        "content strictly decreasing on the square-root schedule",
        True,
        "times 4, 9, 16, 25",
    )


_CHECKS = [
    check_sphere_volumes,
    check_metric,
    check_transform_closed_forms,
    check_transform_inversions,
    check_duality_pairing,
    check_laplacians,
    check_mean_commutation,
    check_oracle_equivalence,
    check_energy_conservation,
    check_equipartition,
    check_propagation,
    check_asgeirsson,
    check_multipliers,
    check_huygens,
]


def run_verification(
    qs=(2, 3),
    seed: int = 0,
    size: str = "standard",
    negative_control: bool = False,
) -> tuple[str, bool]:
    """Run every check; returns (report text, all passed).

    The report is byte-stable for fixed arguments.  With
    ``negative_control=True`` the conservation check runs against a
    deliberately corrupted recurrence weight and must fail.  A q whose
    checks would walk more than ``MAX_VERTICES`` vertices is refused with a
    ``ConfigError`` before any check runs.
    """
    if size not in _SIZES:
        raise ParameterError(f"field 'size' must be one of {sorted(_SIZES)}, got {size!r}")
    qs = tuple(qs)
    if not qs:
        raise ParameterError("field 'q' must name at least one q")
    for q in qs:
        vertices = Ball(q, _LARGEST_BALL).vertex_count()
        if vertices > MAX_VERTICES:
            fits = 2
            while Ball(fits + 1, _LARGEST_BALL).vertex_count() <= MAX_VERTICES:
                fits += 1
            raise ConfigError(
                f"field 'q': the checks at q={q} walk a ball of {vertices} vertices, "
                f"above the limit of {MAX_VERTICES}; use q <= {fits}"
            )
    lines = [
        "verification report",
        f"q values: {','.join(map(str, qs))} | seed: {seed} | size: {size}"
        + (" | negative control" if negative_control else ""),
    ]
    all_passed = True
    for check in _CHECKS:
        name = check.__name__
        # string seeding hashes stably across processes (unlike tuple hashing)
        rng = random.Random(f"{seed}:{name}")
        params = dict(_SIZES[size].get(name, {}))
        if name == "check_energy_conservation":
            params["corrupt"] = negative_control
        result = check(qs, rng, **params)
        all_passed = all_passed and result.passed
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"{status} {result.name} [{result.detail}]")
    lines.append(f"result: {'all checks passed' if all_passed else 'FAILURES PRESENT'}")
    return "\n".join(lines) + "\n", all_passed
