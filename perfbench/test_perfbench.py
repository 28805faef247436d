"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They check that BENCHMARK.json lists what the code measures, that a traced
run covers every mapped span and passes the same exact checks as an
untraced run, that each workload's check rejects a wrong expected value, and
that the benchmark refuses to run without the library's sources.  Running
them takes about a minute: each workload runs once untraced and once traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import treewave as tw  # noqa: E402

import spec  # noqa: E402
from child import execute  # noqa: E402
from tracer import Rebinder, SnapshotCounter, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0


def _plus(value: tw.QSurd, amount: Fraction) -> tw.QSurd:
    return tw.QSurd(value.a + amount, value.b, value.q)


def _changed(expected: dict, key: str, change) -> dict:
    copy = dict(expected)
    copy[key] = change(expected[key])
    return copy


def _changed_entry(expected: dict, key: str, index, change) -> dict:
    inner = dict(expected[key])
    inner[index] = change(inner[index])
    return dict(expected, **{key: inner})


# per workload: wrong expected values, each of which the check must reject
WRONG_EXPECTATIONS = {
    "vertex_reach": [
        lambda e: _changed(e, "delta_energy", lambda v: tw.QSurd(Fraction(5, 17), 0, 2)),
        lambda e: _changed_entry(e, "delta_gap", 5, lambda v: tw.QSurd(Fraction(-1, 2**11), 0, 2)),
        lambda e: _changed(e, "random_energy", lambda v: _plus(v, Fraction(1, 17))),
    ],
    "radial_long": [
        lambda e: _changed_entry(
            e, "snapshots", 7, lambda p: p + tw.RadialProfile.delta(p.q, p.mode)
        ),
        lambda e: _changed_entry(e, "kernels", 3, lambda pair: (pair[1], pair[0])),
        lambda e: _changed(e, "energy", lambda v: _plus(v, Fraction(1, 17))),
        lambda e: _changed_entry(e, "gap", 10, lambda v: tw.QSurd(Fraction(-1, 2**16), 0, 2)),
    ],
    "verify_standard": [
        lambda e: _changed(e, "passed", lambda v: False),
        lambda e: _changed(e, "header", lambda v: v.replace("seed: 0", "seed: 1")),
        lambda e: _changed(e, "result_line", lambda v: "result: FAILURES PRESENT"),
    ],
    "propagate_csv": [
        lambda e: _changed(e, "agreement", lambda v: "MISMATCH"),
        lambda e: _changed(e, "energy", lambda v: _plus(v, Fraction(1, 17))),
    ],
}


def _bindings() -> dict:
    """Current value of every traced attribute, and the verify check list."""
    out = {}
    for _, module, path in spec.SPANS:
        owner = sys.modules[module]
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        out[(module, path)] = owner.__dict__[attribute]
    out["checks"] = list(tw.verify._CHECKS)
    out["solve in verify"] = tw.verify.solve
    return out


class BenchmarkDefinitionTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            set(definition),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual(definition["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(definition["paths"], ["perfbench"])
        self.assertEqual(
            [(w["name"], w["why"]) for w in definition["workloads"]],
            [(name, WORKLOADS[name].why) for name in spec.WORKLOADS],
        )
        for workload in definition["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in definition["end_to_end"]], list(spec.END_TO_END)
        )
        for metric in definition["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        setup = definition["end_to_end"][0]
        self.assertEqual((setup["name"], setup["better"]), ("setup_s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in definition["end_to_end"]))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in definition["per_layer"]], list(spec.PER_LAYER)
        )

    def test_tracer_rebinds_everywhere_and_restores(self):
        before = _bindings()
        rebinder = Rebinder()
        counter = SnapshotCounter()
        counter.install(rebinder)
        Tracer(run_id=0).install(rebinder, spec.SPANS)
        try:
            # verify imported solve by name; its binding must be the wrapper
            self.assertIsNot(tw.verify.solve, before["solve in verify"])
            self.assertIs(tw.verify.solve, tw.wave.solve)
            # run_verification picks this check by identity and seeds it by name
            conservation = tw.verify.check_energy_conservation
            self.assertIn(conservation, tw.verify._CHECKS)
            self.assertEqual(
                [check.__name__ for check in tw.verify._CHECKS],
                [check.__name__ for check in before["checks"]],
            )
            self.assertTrue(all(c not in before["checks"] for c in tw.verify._CHECKS))
        finally:
            rebinder.restore()
        self.assertEqual(_bindings(), before)


class WorkloadTest(unittest.TestCase):
    """Each workload once untraced and once traced, on one seed."""

    @classmethod
    def setUpClass(cls):
        WORKDIR.mkdir(exist_ok=True)

    def _exercise(self, name: str):
        workload = WORKLOADS[name]
        inputs = workload.inputs(SEED, WORKDIR)
        result = workload.collect(workload.run(inputs))
        expected = workload.expected(inputs, result)
        self.assertEqual(workload.check(result, expected), [])

        for index, wrong in enumerate(WRONG_EXPECTATIONS[name]):
            with self.subTest(wrong_expectation=index):
                self.assertNotEqual(workload.check(result, wrong(expected)), [])

        before = _bindings()
        traced = execute(workload, workload.inputs(SEED, WORKDIR), SEED, "trace", 0, WORKDIR)
        self.assertEqual(_bindings(), before)
        self.assertEqual(traced["failures"], [])
        self.assertEqual(traced["digest"], workload.digest(result))
        for span, workloads in spec.SPAN_WORKLOADS.items():
            if name in workloads:
                with self.subTest(span=span):
                    self.assertGreater(traced["span_calls"].get(span, 0), 0)
        for metric, _, workloads in spec.OTHER_LAYER_METRICS:
            if name in workloads:
                with self.subTest(metric=metric):
                    self.assertGreater(traced["layer"][metric], 0)
        self.assertEqual(set(traced["layer"]) | {"trace.overhead_s"}, {m for m, _ in spec.PER_LAYER})

    def test_vertex_reach(self):
        self._exercise("vertex_reach")

    def test_radial_long(self):
        self._exercise("radial_long")

    def test_verify_standard(self):
        self._exercise("verify_standard")

    def test_propagate_csv(self):
        self._exercise("propagate_csv")


class CommandTest(unittest.TestCase):
    def test_refuses_to_run_without_library_sources(self):
        bare = WORKDIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for source in HERE.glob("*.py"):
            shutil.copy(source, bare / "perfbench")
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "radial_long",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
