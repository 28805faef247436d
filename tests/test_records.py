"""The record classes: named tuples for reports and the configuration, plain
immutable classes for vertices, balls, trajectories and Ásgeirsson fields.

Each keeps its constructor, repr, equality, hash, immutability, copy and
pickle behaviour, and none of them loads ``dataclasses`` on import.
"""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import treewave
from treewave.energy import EnergyReport, HuygensReport, PropagationReport, PropagationRow
from treewave.errors import ParameterError, TruncationError
from treewave.experiment import ExperimentConfig
from treewave.functions import TreeFunction
from treewave.laplacians import SpectralConstants, gamma, gamma_tilde, tau
from treewave.scalars import QSurd, ScalarMode
from treewave.topology import Ball, VertexAddress
from treewave.verify import CheckResult
from treewave.wave import AsgeirssonField, WaveTrajectory, solve

EXACT = ScalarMode.EXACT
EMPTY = inspect.Parameter.empty
DELTA, ZERO = TreeFunction.delta(2, EXACT), TreeFunction(2, EXACT)


def _trajectory(n_max=2):
    return solve(DELTA, ZERO, n_max)


TRAJECTORY_REPR = (
    "WaveTrajectory(q=2, mode=<ScalarMode.EXACT: 'exact'>, "
    "f=TreeFunction(q=2, exact, support=1), g=TreeFunction(q=2, exact, support=0))"
)

# name -> (class, parameters as (name, default), a builder of one instance
# from its arguments, today's repr of that instance)
RECORDS = {
    "EnergyReport": (
        EnergyReport,
        [("n", EMPTY), ("kinetic", EMPTY), ("potential", EMPTY), ("total", EMPTY), ("gap", EMPTY)],
        lambda: (1, QSurd(1, 0, 2), 0.5, 2, 3),
        "EnergyReport(n=1, kinetic=QSurd(1, 0, q=2), potential=0.5, total=2, gap=3)",
    ),
    "HuygensReport": (
        HuygensReport,
        [("n", EMPTY), ("shell_margin", EMPTY), ("interior_mass", EMPTY),
         ("interior_gradient", EMPTY), ("interior_kinetic", EMPTY)],
        lambda: (4, 1, 0, 0, 0),
        "HuygensReport(n=4, shell_margin=1, interior_mass=0, interior_gradient=0, "
        "interior_kinetic=0)",
    ),
    "PropagationRow": (
        PropagationRow,
        [("n", EMPTY), ("support_radius", EMPTY), ("scaled_amplitude", EMPTY)],
        lambda: (1, 2, 0.5),
        "PropagationRow(n=1, support_radius=2, scaled_amplitude=0.5)",
    ),
    "PropagationReport": (
        PropagationReport,
        [("data_radius", EMPTY), ("rows", EMPTY), ("within_cone", EMPTY)],
        lambda: (1, [PropagationRow(1, 2, 0.5)], True),
        "PropagationReport(data_radius=1, rows=[PropagationRow(n=1, support_radius=2, "
        "scaled_amplitude=0.5)], within_cone=True)",
    ),
    "CheckResult": (
        CheckResult,
        [("name", EMPTY), ("passed", EMPTY), ("detail", EMPTY)],
        lambda: ("a", True, "d"),
        "CheckResult(name='a', passed=True, detail='d')",
    ),
    "SpectralConstants": (
        SpectralConstants,
        [("q", EMPTY), ("mode", EXACT)],
        lambda: (3,),
        "SpectralConstants(q=3, mode=<ScalarMode.EXACT: 'exact'>)",
    ),
    "ExperimentConfig": (
        ExperimentConfig,
        [("q", 2), ("steps", 8), ("mode", "exact"), ("solver", "both"), ("radius", None),
         ("seed", 0), ("initial", None), ("schedule", "sqrt"), ("out", None)],
        lambda: (3,),
        "ExperimentConfig(q=3, steps=8, mode='exact', solver='both', radius=None, seed=0, "
        "initial=None, schedule='sqrt', out=None)",
    ),
    "VertexAddress": (
        VertexAddress,
        [("q", EMPTY), ("labels", ())],
        lambda: (2, (0, 1)),
        "VertexAddress(q=2, '0,1')",
    ),
    "Ball": (Ball, [("q", EMPTY), ("radius", EMPTY)], lambda: (2, 3), "Ball(q=2, radius=3)"),
    "WaveTrajectory": (
        WaveTrajectory,
        [("q", EMPTY), ("mode", EMPTY), ("f", EMPTY), ("g", EMPTY), ("snapshots", EMPTY)],
        lambda: (2, EXACT, DELTA, ZERO, _trajectory().snapshots),
        TRAJECTORY_REPR,
    ),
    "AsgeirssonField": (
        AsgeirssonField,
        [("trajectory", EMPTY), ("ball", EMPTY)],
        lambda: (_trajectory(), Ball(2, 2)),
        f"AsgeirssonField(trajectory={TRAJECTORY_REPR}, ball=Ball(q=2, radius=2))",
    ),
}

# records holding a list, a dict of snapshots or a trajectory cannot be hashed
UNHASHABLE = {"PropagationReport", "WaveTrajectory", "AsgeirssonField"}


@pytest.mark.parametrize("name", RECORDS)
def test_constructor_signature_and_repr(name):
    cls, parameters, arguments, text = RECORDS[name]
    signature = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in signature] == parameters
    assert {p.kind for p in signature} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    positional = cls(*arguments())
    keywords = cls(**dict(zip((p for p, _ in parameters), arguments())))
    assert positional == keywords and repr(positional) == repr(keywords) == text


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    cls, parameters, arguments, _ = RECORDS[name]
    record = cls(*arguments())
    first = parameters[0][0]
    value = getattr(record, first)
    with pytest.raises(AttributeError):
        setattr(record, first, value)
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, first) is value


@pytest.mark.parametrize("name", RECORDS)
def test_equality_hash_copy_and_pickle(name):
    cls, _, arguments, _ = RECORDS[name]
    record, again = cls(*arguments()), cls(*arguments())
    assert record == again and not record != again
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again) and len({record, again}) == 1
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == repr(record)


def test_one_changed_field_makes_records_unequal():
    pairs = [
        (EnergyReport(1, 0, 0, 0, 0), EnergyReport(1, 0, 0, 0, 1)),
        (HuygensReport(4, 1, 0, 0, 0), HuygensReport(4, 2, 0, 0, 0)),
        (PropagationRow(1, 2, 0.5), PropagationRow(1, 3, 0.5)),
        (PropagationReport(1, [], True), PropagationReport(1, [], False)),
        (CheckResult("a", True, "d"), CheckResult("a", False, "d")),
        (SpectralConstants(3), SpectralConstants(3, ScalarMode.FLOAT64)),
        (ExperimentConfig(q=3), ExperimentConfig(q=3, seed=1)),
        (VertexAddress(2, (0, 1)), VertexAddress(3, (0, 1))),
        (Ball(2, 3), Ball(3, 3)),
        (_trajectory(), _trajectory(3)),
        (AsgeirssonField(_trajectory(), Ball(2, 2)), AsgeirssonField(_trajectory(3), Ball(2, 2))),
    ]
    for one, other in pairs:
        assert one != other and not one == other
    # the plain classes equal only their own class
    assert Ball(2, 3) != (2, 3) and Ball(2, 3) != VertexAddress(2, ())


def test_trajectory_caches_stay_out_of_equality():
    summed, fresh = _trajectory(), _trajectory()
    summed._energy_sums[1] = "summed"
    assert summed._gap_images and summed == fresh and repr(summed) == repr(fresh)
    assert pickle.loads(pickle.dumps(summed))._energy_sums == {1: "summed"}


def test_spectral_constants_read_the_functions():
    for mode in ScalarMode:
        constants = SpectralConstants(3, mode)
        assert constants.gamma == gamma(3, mode) and constants.gamma_tilde == gamma_tilde(3, mode)
        assert constants.tau == tau(3)


def test_config_to_json_lists_every_field_in_order():
    assert list(ExperimentConfig(q=3).to_json().items()) == [
        ("q", 3), ("steps", 8), ("mode", "exact"), ("solver", "both"), ("radius", None),
        ("seed", 0), ("initial", None), ("schedule", "sqrt"), ("out", None),
    ]
    initial = {"f": "delta", "g": "zero"}
    assert ExperimentConfig(initial=initial).to_json()["initial"] == initial


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: VertexAddress(1), ParameterError, "field 'q' must be an integer >= 2, got 1"),
        (lambda: VertexAddress(2, (3,)), ParameterError,
         "field 'labels': first label 3 outside 0..2"),
        (lambda: VertexAddress(2, (0, 2)), ParameterError, "field 'labels': label 2 outside 0..1"),
        (lambda: Ball(2, -1), ParameterError,
         "field 'radius' must be an integer radius >= 0, got -1"),
        (lambda: WaveTrajectory(2, EXACT, DELTA, ZERO, {0: ZERO}), ParameterError,
         "snapshot(0) must equal the initial position"),
        (lambda: WaveTrajectory(2, EXACT, DELTA, DELTA, _trajectory().snapshots), ParameterError,
         "snapshots violate the centered initial velocity condition"),
        (lambda: AsgeirssonField(_trajectory(), Ball(2, 3)), TruncationError,
         "ball heights span [-3, 3] but the trajectory covers -2..2"),
        (lambda: AsgeirssonField(WaveTrajectory(2, EXACT, DELTA, ZERO, {}), Ball(2, 0)),
         TruncationError, "ball heights span [-0, 0] but the trajectory covers nothing"),
    ],
)
def test_validation_messages(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def test_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import treewave, treewave.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    source = str(Path(treewave.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": source},
    )
    added = set(run.stdout.split())
    assert "treewave.cli" in added and "dataclasses" not in added
    if sys.version_info[:2] == (3, 11):
        assert "inspect" not in added
