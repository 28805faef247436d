"""One workload run in a fresh process: set-up, the timed library calls, then
the exact checks.  Prints one JSON object on its last stdout line.

Usage (started by run.py, one process at a time):
    python3 perfbench/child.py '{"workload": ..., "seed": ..., "mode": ...,
                                 "run_id": ..., "root": ..., "workdir": ...}'

mode "setup" stops after set-up; "run" is untraced; "trace" records spans,
then runs the microbenchmarks on the workload's final snapshot.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import micro
import reference
import spec
from tracer import Rebinder, SnapshotCounter, Tracer


def execute(workload, inputs, seed: int, mode: str, run_id: int, workdir: Path) -> dict:
    """Run, check and (mode "trace") trace one workload; returns the record."""
    rebinder = Rebinder()
    counter = SnapshotCounter(keep_last=mode == "trace")
    tracer = Tracer(run_id) if mode == "trace" else None
    record: dict = {"mode": mode, "failures": []}
    try:
        counter.install(rebinder)
        if tracer is not None:
            tracer.install(rebinder, spec.SPANS)
        # the probe would land inside spans, so traced runs go without it
        probe = reference.SpeedProbe() if tracer is None else None
        try:
            with probe or contextlib.nullcontext():
                start = time.perf_counter()
                raw = workload.run(inputs)
                run_s = time.perf_counter() - start - (probe.spent_s if probe else 0.0)
        finally:
            rebinder.restore()
        result = workload.collect(raw)
        record["failures"] = workload.check(result, workload.expected(inputs, result))
    except Exception as exc:  # a run that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        record["failures"] = [f"{type(exc).__name__}: {exc}"]
        return record
    record["run_s"] = run_s
    if probe is not None:
        record["reference_s"] = probe.loop_s()
        record["probes"] = len(probe.samples)
    record["values"] = counter.values
    record["digest"] = workload.digest(result)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        return record

    by_name, top_level_s = tracer.summary()
    layer = {}
    for name in spec.SPAN_NAMES:
        entry = by_name.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        layer[name + "_s"] = entry["total_s"] if name.startswith("verify.") else entry["self_s"]
    layer["wave.adjacency_sum_calls"] = by_name.get("wave.adjacency_sum", {}).get("calls", 0)
    layer["wave.snapshot_values"] = counter.vertex_values
    layer["radial.snapshot_values"] = counter.radial_values
    layer["experiment.output_bytes"] = workload.output_bytes(result)
    layer["trace.uncovered_s"] = run_s - top_level_s
    values, vertices = workload.operands(inputs, result, counter.last_vertex_trajectory)
    layer.update(micro.measure(values, vertices, seed))
    record["layer"] = layer
    record["span_calls"] = {name: entry["calls"] for name, entry in by_name.items()}
    record["spans"] = len(tracer.spans)
    spans_path = workdir / f"spans-{workload.name}-seed{seed}-run{run_id}.json"
    spans_path.write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "run_id"], "spans": tracer.spans}),
        encoding="utf-8",
    )
    return record


def main() -> int:
    request = json.loads(sys.argv[1])
    root = Path(request["root"])
    source = root / "src"
    sys.path.insert(0, str(source))
    workdir = Path(request["workdir"])

    loop_before = reference.loop_s()
    setup_start = time.perf_counter()
    import treewave
    from workloads import WORKLOADS

    if not Path(treewave.__file__).resolve().is_relative_to(source.resolve()):
        print(f"treewave was imported from {treewave.__file__}, not {source}", file=sys.stderr)
        return 2
    workload = WORKLOADS[request["workload"]]
    inputs = workload.inputs(request["seed"], workdir)
    setup_s = time.perf_counter() - setup_start
    setup_loops = setup_s / ((loop_before + reference.loop_s()) / 2)

    if request["mode"] == "setup":
        record = {"mode": "setup", "failures": [], "params": workload.params, "pins": workload.pins}
    else:
        record = execute(
            workload, inputs, request["seed"], request["mode"], request["run_id"], workdir
        )
    record["setup_s"] = setup_s
    record["setup_loops"] = setup_loops
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
