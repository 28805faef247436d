"""The verification checks fail when one route they compare is perturbed.

The acceptance tests assert that the checks of ``treewave.verify`` pass, so a
check that lost a pin, part of its range or its tolerance would still pass
there.  Each test below perturbs one library call inside a check, at the
edge of what the check covers, and requires the check to fail with the
matching detail.
"""

import cmath
import random
from fractions import Fraction

import pytest

from treewave import verify
from treewave.errors import ParameterError
from treewave.functions import RadialProfile, TreeFunction
from treewave.levels import Levels
from treewave.scalars import QSurd, ScalarMode

EXACT = ScalarMode.EXACT
TINY = QSurd(Fraction(1, 2**20), 0, 2)


def _perturb(monkeypatch, name, change):
    """Rebind verify's ``name`` so that ``change(result, *args)`` edits each result."""
    original = getattr(verify, name)
    monkeypatch.setattr(
        verify, name, lambda *args, **kwargs: change(original(*args, **kwargs), *args)
    )


def _fails_with(check, detail, **params):
    result = getattr(verify, check)((2,), random.Random(0), **params)
    assert (result.passed, result.detail) == (False, detail)


def test_metric_search_catches_a_distance_off_by_one(monkeypatch):
    # symmetric, so only the breadth-first search can catch it: pairs in
    # different branches of the origin read one too far
    distance = verify.distance

    def off(x, y):
        apart = x.labels and y.labels and x.labels[0] != y.labels[0]
        return distance(x, y) + bool(apart)

    rng = random.Random("0:check_metric")
    assert verify.check_metric((2, 3), rng).passed
    monkeypatch.setattr(verify, "distance", off)
    rng = random.Random("0:check_metric")
    result = verify.check_metric((2, 3), rng)
    assert not result.passed and result.name == "tree metric"


def test_huygens_pin(monkeypatch):
    def mass_at_6(report, *args):
        if report.n != 6:
            return report
        return report._replace(interior_mass=report.interior_mass + TINY)

    _perturb(monkeypatch, "huygens_report", mass_at_6)
    _fails_with("check_huygens", "pinned interior mass")


def test_huygens_vertex_cross_check(monkeypatch):
    # both layouts share huygens_report: only the vertex trajectory's report changes
    def kinetic(report, trajectory, *args):
        if not isinstance(trajectory.f, TreeFunction):
            return report
        return report._replace(interior_kinetic=report.interior_kinetic + TINY)

    _perturb(monkeypatch, "huygens_report", kinetic)
    _fails_with("check_huygens", "vertex and radial sums differ")


def test_energy_pin(monkeypatch):
    # a doubled delta has E = 5/4 on both routes, so only the pin can fail
    delta = TreeFunction.delta
    monkeypatch.setattr(TreeFunction, "delta", lambda q, mode: delta(q, mode).scale(QSurd(2, 0, q)))
    _fails_with("check_energy_conservation", "delta instance E != 5/16", n_max=2)


def test_energy_closed_form_of_the_delta(monkeypatch):
    def closed_form(value, f, g):
        return value + TINY if f == TreeFunction.delta(2, EXACT) else value

    _perturb(monkeypatch, "total_energy_closed_form", closed_form)
    _fails_with("check_energy_conservation", "delta instance E != 5/16", n_max=2)


def test_equipartition_delta_gap_at_10(monkeypatch):
    def gap(routes, u, n):
        return tuple(route + TINY for route in routes) if n == 10 else routes

    _perturb(monkeypatch, "radial_equipartition_gap", gap)
    _fails_with("check_equipartition", "delta-instance gap at n=10")


def test_oracle_kernels_at_minus_n_max(monkeypatch):
    def kernels(pair, q, n, mode):
        return (pair[0].scale(QSurd(2, 0, q)), pair[1]) if n == -4 else pair

    _perturb(monkeypatch, "propagator_kernels", kernels)
    _fails_with("check_oracle_equivalence", "kernel mismatch q=2 n=-4", n_max=4)


def test_propagation_support_is_exactly_the_light_cone(monkeypatch):
    def outer_shell_dropped(trajectory, *args):
        state = trajectory.snapshots[-8]
        kept = [(r, value) for r, value in state.items() if r < 8]
        trajectory.snapshots[-8] = RadialProfile(state.q, state.mode, kept)
        return trajectory

    _perturb(monkeypatch, "radial_solve", outer_shell_dropped)
    _fails_with("check_propagation", "support q=2 n=-8")


def test_multiplier_tolerance(monkeypatch):
    # for delta data F(A p) = 1 at every frequency, so an error of 5e-10 in
    # cos_q is an error of 5e-10 in the identity: over 1e-10, under 1e-9
    monkeypatch.setattr(
        verify, "random_radial_profile", lambda q, radius, rng: RadialProfile.delta(q, EXACT)
    )
    _perturb(monkeypatch, "cos_q", lambda value, *args: value + 5e-10)
    _fails_with("check_multipliers", "cosine n=0", samples=40)


def test_multipliers_compute_each_phase_once(monkeypatch):
    # the profile has radius 3 and C_6, S_6 widen it by 6: heights -9 .. 9,
    # 19 of them; one exponential per (height, frequency), not per term
    calls = []
    exp = cmath.exp
    monkeypatch.setattr(cmath, "exp", lambda z: calls.append(z) or exp(z))
    samples = verify._SIZES["standard"]["check_multipliers"]["samples"]
    result = verify.check_multipliers((2, 3), random.Random("0:check_multipliers"), samples=samples)
    assert result.passed
    assert 0 < len(calls) <= 19 * samples


@pytest.mark.parametrize("samples", [0, 1, True, 2.0])
def test_multipliers_refuse_fewer_than_two_samples(samples):
    with pytest.raises(ParameterError, match="'samples'"):
        verify.check_multipliers((2,), random.Random(0), samples=samples)


def test_verification_refuses_an_empty_q_list():
    with pytest.raises(ParameterError, match="'q'"):
        verify.run_verification(())


def test_laplacian_check_lists_no_packed_function(monkeypatch):
    """``dot`` of a packed and an unpacked function reads the packed one by
    slots, so the self-adjointness check builds no value map of a packed
    function."""
    calls, values = [], Levels.values
    monkeypatch.setattr(Levels, "values", lambda self: calls.append(self) or values(self))
    assert verify.check_laplacians((2, 3), random.Random(0)).passed
    assert calls == []
