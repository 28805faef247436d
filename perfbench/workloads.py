"""The four workloads: seeded inputs, the library calls that are timed, and
the exact checks that run after the timer stops.

Each workload is driven only through public ``treewave`` calls.  Its inputs
come from the benchmark seed; the library receives only the generated data.
A workload's ``expected`` values are the pinned constants of the paper's
identities plus the values of the independent route (closed form, other
solver) computed in the run; ``check`` compares and returns the list of
mismatches, so a test can hand it a wrong expected value and see it rejected.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path

import treewave as tw
from treewave.sampling import random_radial_profile, random_tree_function

EXACT = tw.ScalarMode.EXACT


def _rng(seed: int, name: str) -> random.Random:
    # string seeding hashes stably across processes
    return random.Random(f"{seed}:{name}")


def _full_tree_function(q: int, rng: random.Random) -> tw.TreeFunction:
    """Random data on the ball of radius 1 with no zero value, drawn until
    full: a zero at a depth-1 vertex would shrink the solution's support, and
    so the work, by up to a factor of about q."""
    while True:
        f = random_tree_function(q, 1, rng, density=1.0)
        if f.support_size() == q + 2:
            return f


def _full_radial_profile(q: int, radius: int, rng: random.Random) -> tw.RadialProfile:
    while True:
        p = random_radial_profile(q, radius, rng)
        if len(p.support()) == radius + 1:
            return p


def _delta_gap(n: int) -> tw.QSurd:
    """Equipartition gap K(n) - P(n) of the q=2 delta data, n >= 2."""
    return tw.QSurd(Fraction(-1, 2 ** (n + 5)), 0, 2)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    why = ""
    params: dict = {}
    pins: tuple = ()

    def inputs(self, seed: int, workdir: Path) -> dict:
        raise NotImplementedError

    def run(self, inputs: dict):
        """The timed region: library calls only."""
        raise NotImplementedError

    def collect(self, raw):
        """Turn the run's raw result into checkable data (after the timer)."""
        return raw

    def expected(self, inputs: dict, result) -> dict:
        raise NotImplementedError

    def check(self, result, expected: dict) -> list[str]:
        raise NotImplementedError

    def digest(self, result) -> str | None:
        """Hash of the outputs that must be byte-identical for one seed."""
        return None

    def output_bytes(self, result) -> int:
        return 0

    def operands(self, inputs: dict, result, last_vertex_trajectory):
        """(scalar values, vertices) of the workload's final snapshot, for
        the microbenchmarks."""
        state = last_vertex_trajectory.snapshot(max(last_vertex_trajectory.n_values()))
        return [value for _, value in state.items()], [vertex for vertex, _ in state.items()]


class VertexReach(Workload):
    name = "vertex_reach"
    why = (
        "largest vertex working set near today's reach (q=2 to |n|=12, q=3 random data); "
        "a level-array vertex kernel does all its work here"
    )
    DELTA_N = 12
    RANDOM_Q, RANDOM_N = 3, 5
    params = {
        "part1": f"q=2, f=delta, g=0, solve (0, {DELTA_N}) by recurrence, total_energy, "
        f"energies(n={DELTA_N - 1})",
        "part2": f"q={RANDOM_Q}, f and g random and nonzero on ball 1, solve (0, {RANDOM_N}) "
        f"by recurrence, total_energy, energies(n={RANDOM_N - 1}), total_energy_closed_form",
    }
    pins = (
        "every E(n) of the delta data is 5/16",
        "delta gap K(n) - P(n) is -1/2^(n+5) for n >= 2",
        "every E(n) of the random data equals total_energy_closed_form(f, g)",
        "energies(): pair-sum and 2-step potentials agree (raises otherwise)",
    )

    def inputs(self, seed, workdir):
        rng = _rng(seed, self.name)
        q = self.RANDOM_Q
        return {
            "delta": (tw.TreeFunction.delta(2, EXACT), tw.TreeFunction.zero(2, EXACT)),
            "random": (_full_tree_function(q, rng), _full_tree_function(q, rng)),
        }

    def run(self, inputs):
        result = {}
        for part, n_max in (("delta", self.DELTA_N), ("random", self.RANDOM_N)):
            f, g = inputs[part]
            trajectory = tw.solve(f, g, (0, n_max), solver="recurrence")
            reference, reports = tw.total_energy(trajectory)
            last = tw.energies(trajectory, n_max - 1)
            result[part] = (trajectory, reference, reports + [last])
        result["closed_form"] = tw.total_energy_closed_form(*inputs["random"])
        return result

    def expected(self, inputs, result):
        return {
            "delta_energy": tw.QSurd(Fraction(5, 16), 0, 2),
            "delta_gap": {n: _delta_gap(n) for n in range(2, self.DELTA_N)},
            "random_energy": result["closed_form"],
        }

    def check(self, result, expected):
        failures = []
        _, reference, reports = result["delta"]
        if reference != expected["delta_energy"]:
            failures.append(f"delta reference energy {reference}")
        for report in reports:
            if report.total != expected["delta_energy"]:
                failures.append(f"delta E({report.n}) = {report.total}")
            if report.n >= 2 and report.gap != expected["delta_gap"].get(report.n):
                failures.append(f"delta gap({report.n}) = {report.gap}")
        _, reference, reports = result["random"]
        for report in reports:
            if report.total != expected["random_energy"]:
                failures.append(f"random E({report.n}) = {report.total}")
        return failures

    def operands(self, inputs, result, last_vertex_trajectory):
        return super().operands(inputs, result, result["random"][0])


class RadialLong(Workload):
    name = "radial_long"
    why = (
        "radial algebra to |n|=40 with ~40-bit coefficients and no vertex "
        "addressing; the control on which a vertex-layer change predicts no change"
    )
    Q, N, DATA_RADIUS = 3, 40, 4
    GAP_N = 28
    params = {
        "part1": f"q={Q}, f and g random radial profiles, nonzero at every radius <= "
        f"{DATA_RADIUS}, radial_solve |n| <= {N} by both routes, kernel_family_recurrence({N}) "
        "against propagator_kernels, radial_total_energy, total_energy_closed_form of the "
        "materialized data",
        "part2": f"q=2, f=delta, g=0, radial_solve |n| <= {GAP_N + 1}, "
        f"radial_equipartition_gap for 2 <= n <= {GAP_N}",
    }
    pins = (
        "closed and recurrence radial snapshots equal at every n",
        "recurrence kernel families equal the closed propagator kernels at every n",
        "every radial E(n) equals total_energy_closed_form of the materialized data",
        f"delta gap: direct = operator = -1/2^(n+5) for 2 <= n <= {GAP_N}",
    )

    def inputs(self, seed, workdir):
        rng = _rng(seed, self.name)
        return {
            "f": _full_radial_profile(self.Q, self.DATA_RADIUS, rng),
            "g": _full_radial_profile(self.Q, self.DATA_RADIUS, rng),
        }

    def run(self, inputs):
        f, g, q, n_max = inputs["f"], inputs["g"], self.Q, self.N
        closed = tw.radial_solve(f, g, n_max, solver="closed")
        leapfrog = tw.radial_solve(f, g, n_max, solver="recurrence")
        family = tw.kernel_family_recurrence(q, n_max, EXACT)
        kernels = {n: tw.propagator_kernels(q, n, EXACT) for n in range(-n_max, n_max + 1)}
        reference, reports = tw.radial_total_energy(leapfrog)
        closed_form = tw.total_energy_closed_form(
            tw.TreeFunction.from_radial(f), tw.TreeFunction.from_radial(g)
        )
        delta = tw.radial_solve(
            tw.RadialProfile.delta(2, EXACT), tw.RadialProfile(2, EXACT), self.GAP_N + 1
        )
        gaps = {n: tw.radial_equipartition_gap(delta, n) for n in range(2, self.GAP_N + 1)}
        return {
            "closed": closed,
            "leapfrog": leapfrog,
            "family": family,
            "kernels": kernels,
            "energy": (reference, reports),
            "closed_form": closed_form,
            "gaps": gaps,
        }

    def expected(self, inputs, result):
        return {
            "snapshots": dict(result["closed"].snapshots),
            "kernels": dict(result["kernels"]),
            "energy": result["closed_form"],
            "gap": {n: _delta_gap(n) for n in range(2, self.GAP_N + 1)},
        }

    def check(self, result, expected):
        failures = []
        leapfrog = result["leapfrog"].snapshots
        if leapfrog.keys() != expected["snapshots"].keys():
            failures.append("radial routes solved different time ranges")
        for n, state in expected["snapshots"].items():
            if leapfrog.get(n) != state:
                failures.append(f"radial snapshots differ at n={n}")
        for n, kernels in expected["kernels"].items():
            if result["family"].get(n) != kernels:
                failures.append(f"kernel families differ at n={n}")
        reference, reports = result["energy"]
        for report in reports:
            if report.total != expected["energy"]:
                failures.append(f"radial E({report.n}) = {report.total}")
        if result["gaps"].keys() != expected["gap"].keys():
            failures.append("gap computed at other times than pinned")
        for n, (direct, operator_route) in result["gaps"].items():
            if not direct == operator_route == expected["gap"].get(n):
                failures.append(f"delta gap at n={n}: {direct} vs {operator_route}")
        return failures

    def operands(self, inputs, result, last_vertex_trajectory):
        # no vertex snapshot exists here: the vertices are those of the
        # materialized initial data, which the closed-form check walks
        state = result["leapfrog"].snapshot(self.N)
        data = tw.TreeFunction.from_radial(inputs["f"])
        return [value for _, value in state.items()], [vertex for vertex, _ in data.items()]


class VerifyStandard(Workload):
    name = "verify_standard"
    why = (
        "the command users run: many small problems, the only workload using transforms, "
        "mean values and sphere walks; per-call overheads show here"
    )
    params = {"call": "run_verification((2, 3), 0, 'standard'), i.e. treewave verify --q 2,3 --seed 0"}
    pins = (
        "every check passes and the report ends 'result: all checks passed'",
        "the report header names q values 2,3, the seed and size standard",
        "the report text is byte-identical across runs with the same seed",
    )

    # The suite draws its own data from its seed, and its work depends on that
    # data (seeds 1 to 5 took 5.6 to 13 s on one machine), so this workload
    # always runs the documented seed 0 and the benchmark seed does not enter.
    SUITE_SEED = 0

    def inputs(self, seed, workdir):
        return {"qs": (2, 3), "seed": self.SUITE_SEED, "size": "standard"}

    def run(self, inputs):
        return tw.run_verification(inputs["qs"], inputs["seed"], inputs["size"])

    def expected(self, inputs, result):
        return {
            "passed": True,
            "header": f"q values: 2,3 | seed: {inputs['seed']} | size: standard",
            "result_line": "result: all checks passed",
        }

    def check(self, result, expected):
        text, passed = result
        lines = text.splitlines()
        failures = []
        if passed is not expected["passed"]:
            failures.append(f"run_verification returned passed={passed}")
        if lines[1:2] != [expected["header"]]:
            failures.append(f"report header {lines[1:2]}")
        if lines[-1:] != [expected["result_line"]]:
            failures.append(f"report result line {lines[-1:]}")
        checks = lines[2:-1]
        if not checks or any(not line.startswith("PASS ") for line in checks):
            failures.append("report has a check that did not pass")
        return failures

    def digest(self, result):
        return _sha256(result[0].encode("utf-8"))


class PropagateCsv(Workload):
    name = "propagate_csv"
    why = (
        "the only workload that writes files and uses the closed vertex route "
        "(m_operator ball walks) and correctly rounded to_float"
    )
    Q, STEPS = 2, 9
    params = {
        "config": f"ExperimentConfig(q={Q}, steps={STEPS}, solver='both', initial=<f and g "
        "random and nonzero on ball 1, serialized inline>, out=<directory removed after hashing>)",
    }
    pins = (
        "manifest closed_recurrence_agreement is 'exact'",
        "every E column of energy.csv equals total_energy_closed_form(f, g)",
        "every file's SHA-256 matches the manifest",
        "output bytes are identical across runs with the same seed "
        "(manifest compared without wall_time_seconds)",
    )

    def inputs(self, seed, workdir):
        rng = _rng(seed, self.name)
        f, g = _full_tree_function(self.Q, rng), _full_tree_function(self.Q, rng)
        # one fixed directory, because the manifest echoes the configured path;
        # runs of one benchmark are sequential and remove it after hashing
        out = workdir / "propagate_csv-output"
        shutil.rmtree(out, ignore_errors=True)
        return {"f": f, "g": g, "initial": {"f": f.to_json(), "g": g.to_json()}, "out": str(out)}

    def run(self, inputs):
        config = tw.ExperimentConfig(
            q=self.Q, steps=self.STEPS, solver="both", initial=inputs["initial"], out=inputs["out"]
        )
        return {
            "dir": tw.run_experiment(config),
            "closed_form": tw.total_energy_closed_form(inputs["f"], inputs["g"]),
        }

    def collect(self, raw):
        out_dir = Path(raw["dir"])
        try:
            files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        finally:
            shutil.rmtree(out_dir)
        manifest = json.loads(files["manifest.json"])
        stable_manifest = dict(manifest)
        stable_manifest.pop("wall_time_seconds", None)
        hashes = {name: _sha256(data) for name, data in files.items()}
        hashes["manifest.json"] = _sha256(json.dumps(stable_manifest, sort_keys=True).encode())
        energy_lines = files["energy.csv"].decode("utf-8").splitlines()
        header = energy_lines[0].split(",")
        energy_rows = [dict(zip(header, line.split(","))) for line in energy_lines[1:]]
        return {
            "manifest": manifest,
            "hashes": hashes,
            "recorded": {name: _sha256(data) for name, data in files.items()},
            "energy_rows": energy_rows,
            "output_bytes": sum(len(data) for data in files.values()),
            "closed_form": raw["closed_form"],
        }

    def expected(self, inputs, result):
        return {"agreement": "exact", "energy": result["closed_form"]}

    def check(self, result, expected):
        failures = []
        manifest = result["manifest"]
        if manifest.get("closed_recurrence_agreement") != expected["agreement"]:
            failures.append(f"solver agreement {manifest.get('closed_recurrence_agreement')!r}")
        for name, digest in manifest.get("files", {}).items():
            if result["recorded"].get(name) != digest:
                failures.append(f"{name} does not match its manifest checksum")
        if not result["energy_rows"]:
            failures.append("energy.csv has no rows")
        energy = expected["energy"]
        for row in result["energy_rows"]:
            if (Fraction(row["E_a"]), Fraction(row["E_b"])) != (energy.a, energy.b):
                failures.append(f"energy.csv E({row['n']}) = {row['E_a']} + {row['E_b']}*sqrt(q)")
        return failures

    def output_bytes(self, result):
        return result["output_bytes"]

    def digest(self, result):
        listing = json.dumps(result["hashes"], sort_keys=True)
        return _sha256(listing.encode("utf-8"))


WORKLOADS = {w.name: w for w in (VertexReach(), RadialLong(), VerifyStandard(), PropagateCsv())}
