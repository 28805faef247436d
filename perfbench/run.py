"""treewave benchmark: one workload, measured in a closed loop of fresh
single-threaded processes, one at a time.

    python3 perfbench/run.py --workload vertex_reach --seed 0 --seconds 25 --trace 0

Each child process sets up (imports ``treewave`` from ``src/`` of this
checkout and generates the workload's inputs from the seed), times the
workload's library calls, then checks the exact results against pinned
values.  A child whose check fails or raises counts as failed.  Children run
until the next one would end after ``--seconds``; a few set-up-only children
run first so that ``setup_s`` is a median of several set-ups.

``--trace 0`` reports the end-to-end metrics of untraced children.
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Every metric
is printed by name with its unit; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full record (samples,
environment) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "out"
SETUP_CHILDREN = 5
# every child must be done by then, well inside the 180 s a run may take
HARD_LIMIT_S = 160.0


def _git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": _git_revision(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def spawn(request: dict, timeout: float) -> tuple[dict, float]:
    """Run one child to completion; returns its record and wall time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("TREEWAVE_OUT", None)
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"mode": request["mode"], "failures": ["timed out"]}, time.perf_counter() - started
    elapsed = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        failure = f"child exited with code {done.returncode}"
        return {"mode": request["mode"], "failures": [failure]}, elapsed
    return json.loads(lines[-1]), elapsed


def summarize(values: list[float]) -> dict:
    ordered = sorted(values)
    quartiles = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {
        "median": statistics.median(ordered),
        "p25": quartiles[0],
        "p75": quartiles[2],
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    deadline = started + seconds
    hard_deadline = started + HARD_LIMIT_S
    WORKDIR.mkdir(exist_ok=True)
    base = {"workload": workload, "seed": seed, "root": str(ROOT), "workdir": str(WORKDIR)}

    setups = []
    for run_id in range(SETUP_CHILDREN):
        record, _ = spawn(dict(base, mode="setup", run_id=run_id), hard_deadline - time.perf_counter())
        if record["failures"]:
            raise SystemExit(f"set-up failed: {record['failures']}")
        setups.append(record)
    definition = {"params": record["params"], "pins": record["pins"]}

    modes = ["run", "trace"] if trace else ["run"]
    longest = {mode: 0.0 for mode in modes}
    children = []
    while True:
        mode = modes[len(children) % len(modes)]
        now = time.perf_counter()
        have_each = all(any(c["mode"] == m for c in children) for m in modes)
        if now + longest[mode] > hard_deadline or (have_each and now + longest[mode] > deadline):
            break
        run_id = SETUP_CHILDREN + len(children)
        record, elapsed = spawn(dict(base, mode=mode, run_id=run_id), hard_deadline - now)
        longest[mode] = max(longest[mode], elapsed)
        children.append(record)

    # byte-stable outputs must be identical in every child of one seed,
    # traced or not
    digests = [c.get("digest") for c in children if not c["failures"] and c.get("digest")]
    for child in children:
        if child.get("digest") and digests and child["digest"] != digests[0]:
            child["failures"].append("outputs differ from the first run of this seed")
    return {
        "definition": definition,
        "setups": setups + [c for c in children if "setup_s" in c],
        "children": children,
        "wall_s": time.perf_counter() - started,
    }


def metrics_of(measured: dict, trace: bool) -> tuple[dict, list[str]]:
    """(metrics for the JSON line, human-readable lines)."""
    good = [c for c in measured["children"] if not c["failures"]]
    plain = [c for c in good if c["mode"] == "run"]
    traced = [c for c in good if c["mode"] == "trace"]
    setups = measured["setups"]
    per_child = {
        "setup_s": [c["setup_loops"] * reference.NOMINAL_LOOP_S for c in setups],
        "setup_wall_s": [c["setup_s"] for c in setups],
        "run_ref": [c["run_s"] / c["reference_s"] for c in plain],
        "values_per_ref": [c["values"] * c["reference_s"] / c["run_s"] for c in plain],
        "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        "run_s": [c["run_s"] for c in plain],
        "values_per_s": [c["values"] / c["run_s"] for c in plain],
    }
    metrics = {}
    lines = []
    for name, unit in spec.END_TO_END + spec.WALL_CLOCK:
        stats = summarize(per_child[name])
        lines.append(
            f"{name} = {stats['median']:.6g} {unit} (median; p25 {stats['p25']:.6g}, "
            f"p75 {stats['p75']:.6g}, min {stats['min']:.6g}, max {stats['max']:.6g}, "
            f"n={stats['n']})"
        )
        if not trace and (name, unit) in spec.END_TO_END:
            metrics[name] = {"value": stats["median"], "unit": unit}
    lines.append(
        f"per run: {plain[0]['values']} stored exact snapshot values; reference loop "
        f"{statistics.median(c['reference_s'] for c in plain) * 1e3:.4g} ms (median)"
    )
    if not trace:
        return metrics, lines

    layer = {
        name: statistics.median(c["layer"][name] for c in traced)
        for name, _ in spec.PER_LAYER
        if name != "trace.overhead_s"
    }
    traced_run = statistics.median(c["run_s"] for c in traced)
    layer["trace.overhead_s"] = traced_run - statistics.median(per_child["run_s"])
    lines.append(
        f"traced run_s = {traced_run:.6g} s (median, n={len(traced)}); "
        f"spans per traced run = {traced[0]['spans']}"
    )
    for name, unit in spec.PER_LAYER:
        lines.append(f"{name} = {layer[name]:.6g} {unit}")
        metrics[name] = {"value": layer[name], "unit": unit}
    shares = sorted(
        ((layer[n + "_s"] / traced_run, n) for n in spec.SPAN_NAMES if not n.startswith("verify.")),
        reverse=True,
    )
    lines.append(
        "self-time shares of traced run_s: "
        + ", ".join(f"{name} {share:.0%}" for share, name in shares[:6])
    )
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "treewave" / "__init__.py").is_file():
        print(f"no treewave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    measured = measure(args.workload, args.seed, args.seconds, trace)
    children = measured["children"]
    failed = [c for c in children if c["failures"]]
    for child in failed:
        print(f"FAILED {child['mode']} run: {'; '.join(child['failures'][:5])}", file=sys.stderr)
    if not any(c["mode"] == "run" and not c["failures"] for c in children) or (
        trace and not any(c["mode"] == "trace" and not c["failures"] for c in children)
    ):
        print("no run passed its checks; nothing to report", file=sys.stderr)
        return 1

    env = environment()
    metrics, lines = metrics_of(measured, trace)
    print(f"treewave benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, text in measured["definition"]["params"].items():
        print(f"parameters {key}: {text}")
    for pin in measured["definition"]["pins"]:
        print(f"pinned check: {pin}")
    print(f"closed loop: 1 caller, {len(children)} runs, one fresh process each, "
          f"{SETUP_CHILDREN} set-up-only processes")
    for line in lines:
        print(line)
    print(f"fail_ratio = {len(failed)}/{len(children)} = {len(failed) / len(children):.6g}")

    outcome = {
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = dict(outcome, environment=env, arguments=vars(args), samples=measured)
    record_path = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
