"""Names, units and predictions of the benchmark's metrics.

Standard library only: run.py and the tests read this module
without importing ``treewave``.  ``BENCHMARK.json`` at the repository root
must list exactly the workloads and metrics defined here (a test checks it).
"""

WORKLOADS = ("vertex_reach", "radial_long", "verify_standard", "propagate_csv")

VERTEX = ("vertex_reach", "verify_standard", "propagate_csv")
ALL = WORKLOADS

# (name, unit): what a user of the library sees, measured with tracing off.
# Times are measured in reference loops (see reference.py): wall time divided
# by the time of a fixed loop timed during or around it.  On a shared machine
# wall times alone spread by 15-18% between runs of the same work, these
# ratios by a few percent.  setup_s is converted back to seconds at the
# nominal loop time.
END_TO_END = (
    ("setup_s", "s"),
    ("run_ref", "ref_loops"),
    ("values_per_ref", "1/ref_loop"),
    ("peak_rss_mb", "MB"),
)

# Printed and recorded with the end-to-end metrics, not gated.
WALL_CLOCK = (
    ("setup_wall_s", "s"),
    ("run_s", "s"),
    ("values_per_s", "1/s"),
)

# Traced spans: (span name, module, attribute path in that module).  One span
# name may cover several callables.  Each span is reported as "<name>_s",
# its self time per run; the verify checks report their total time instead,
# children included.
SPANS = (
    ("functions.scale", "treewave.functions", "TreeFunction.scale"),
    ("functions.add", "treewave.functions", "TreeFunction.__add__"),
    ("functions.sub", "treewave.functions", "TreeFunction.__sub__"),
    ("functions.eq", "treewave.functions", "TreeFunction.__eq__"),
    ("topology.sphere", "treewave.topology", "sphere"),
    ("wave.adjacency_sum", "treewave.wave", "adjacency_sum"),
    ("wave.step_recurrence", "treewave.wave", "step_recurrence"),
    ("wave.solve", "treewave.wave", "solve"),
    ("wave.m_operator", "treewave.wave", "m_operator"),
    ("wave.propagators", "treewave.wave", "propagators"),
    ("wave.asgeirsson_verify", "treewave.wave", "asgeirsson_verify"),
    ("radial.convolve", "treewave.radial", "radial_convolve"),
    ("radial.adjacency", "treewave.radial", "radial_adjacency"),
    ("radial.kernels", "treewave.radial", "propagator_kernels"),
    ("radial.kernel_family", "treewave.radial", "kernel_family_recurrence"),
    ("radial.solve", "treewave.radial", "radial_solve"),
    # the pair-sum route only; the 2-step route is laplacians.two_step
    ("energy.potential", "treewave.energy", "_potential_pair"),
    ("energy.kinetic", "treewave.energy", "kinetic_energy"),
    ("energy.energies", "treewave.energy", "energies"),
    ("energy.total", "treewave.energy", "total_energy"),
    ("energy.closed_form", "treewave.energy", "total_energy_closed_form"),
    ("energy.huygens", "treewave.energy", "huygens_report"),
    ("energy.equipartition_gap", "treewave.energy", "equipartition_gap"),
    ("energy.radial_potential", "treewave.energy", "radial_potential_energy"),
    ("energy.radial_kinetic", "treewave.energy", "radial_kinetic_energy"),
    ("energy.radial_total", "treewave.energy", "radial_total_energy"),
    ("energy.radial_gap", "treewave.energy", "radial_equipartition_gap"),
    ("laplacians.two_step", "treewave.laplacians", "two_step_laplacian"),
    ("transforms.abel", "treewave.transforms", "abel"),
    ("transforms.dual_abel", "treewave.transforms", "dual_abel"),
    ("transforms.inverse", "treewave.transforms", "abel_inverse"),
    ("transforms.inverse", "treewave.transforms", "dual_abel_inverse"),
    ("experiment.run_experiment", "treewave.experiment", "run_experiment"),
    ("experiment.snapshot_rows", "treewave.experiment", "_snapshot_rows"),
    ("experiment.energy_table", "treewave.experiment", "write_energy_table"),
    ("experiment.huygens_table", "treewave.experiment", "write_huygens_table"),
    ("experiment.csv_write", "treewave.experiment", "_write_csv"),
) + tuple(
    ("verify." + check, "treewave.verify", "check_" + check)
    for check in (
        "sphere_volumes",
        "metric",
        "transform_closed_forms",
        "transform_inversions",
        "duality_pairing",
        "laplacians",
        "mean_commutation",
        "oracle_equivalence",
        "energy_conservation",
        "equipartition",
        "propagation",
        "asgeirsson",
        "multipliers",
        "huygens",
    )
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))

# The workloads on which each span should have calls, and so the workloads
# whose run_s (and values_per_s) it should move.  A span not listed here is
# reported but carries no prediction.
SPAN_WORKLOADS = {
    "functions.scale": VERTEX,
    "functions.add": VERTEX,
    "functions.sub": VERTEX,
    "functions.eq": VERTEX,
    "topology.sphere": ("verify_standard",),
    "wave.adjacency_sum": ("vertex_reach", "verify_standard"),
    "wave.step_recurrence": ("vertex_reach", "verify_standard"),
    "wave.solve": VERTEX,
    "wave.m_operator": ("propagate_csv",),
    "wave.propagators": ("propagate_csv",),
    "wave.asgeirsson_verify": ("verify_standard",),
    "radial.convolve": ("radial_long",),
    "radial.adjacency": ("radial_long",),
    "radial.kernels": ("radial_long",),
    "radial.kernel_family": ("radial_long",),
    "radial.solve": ("radial_long",),
    "energy.potential": ("vertex_reach",),
    "energy.kinetic": ("vertex_reach",),
    "energy.energies": ("vertex_reach",),
    "energy.closed_form": ("vertex_reach",),
    "energy.huygens": ("propagate_csv",),
    "energy.equipartition_gap": ("verify_standard",),
    "energy.radial_potential": ("radial_long",),
    "energy.radial_kinetic": ("radial_long",),
    "energy.radial_gap": ("radial_long",),
    "laplacians.two_step": ("vertex_reach",),
    "transforms.abel": ("verify_standard",),
    "transforms.dual_abel": ("verify_standard",),
    "transforms.inverse": ("verify_standard",),
    "experiment.snapshot_rows": ("propagate_csv",),
    "experiment.energy_table": ("propagate_csv",),
    "experiment.huygens_table": ("propagate_csv",),
    "experiment.csv_write": ("propagate_csv",),
}
SPAN_WORKLOADS.update(
    {name: ("verify_standard",) for name in SPAN_NAMES if name.startswith("verify.")}
)

# (name, unit, workloads on which it must be nonzero) for the per-layer
# metrics that are not span times: microbenchmarks on the workload's own
# final snapshot ("_us"), deterministic counts, and the tracer's own cost.
OTHER_LAYER_METRICS = (
    ("scalars.mul_us", "us", ALL),
    ("scalars.add_us", "us", ALL),
    ("scalars.to_float_us", "us", ALL),
    ("scalars.max_coeff_bits", "bits", ALL),
    ("topology.neighbors_us", "us", ALL),
    ("wave.adjacency_sum_calls", "count", ("vertex_reach", "verify_standard")),
    ("wave.snapshot_values", "count", VERTEX),
    ("radial.snapshot_values", "count", ("radial_long", "verify_standard")),
    ("experiment.output_bytes", "bytes", ("propagate_csv",)),
    # traced run_s minus untraced run_s (medians); noise can make it negative
    ("trace.overhead_s", "s", ()),
    # traced run_s not covered by any top-level span
    ("trace.uncovered_s", "s", ()),
)

PER_LAYER = tuple((name + "_s", "s") for name in SPAN_NAMES) + tuple(
    (name, unit) for name, unit, _ in OTHER_LAYER_METRICS
)
