"""Per-layer metrics of the traced run and the end-to-end metric each moves.

``workload_s`` is the end-to-end time of one repetition: one ``astar`` run
on ``threshold``, both cold solves on ``groundstate``, the sweep plus the
successful extractions on ``continuation``.
"""

from __future__ import annotations

from tracer import COUNTERS, TARGETS

# span name -> which end-to-end metric it should move, on which workload
MOVES = {
    "grid.inner": "workload_s on threshold (most of the work), groundstate less",
    "grid.integrate": "workload_s on threshold, groundstate less",
    "grid.kinetic_energy": "workload_s on threshold, groundstate less",
    "grid.laplacian_apply": "workload_s on groundstate and threshold",
    "grid.neg_laplacian_core": "workload_s on groundstate and threshold",
    "grid.resample_scaled": "workload_s on threshold (width pins), continuation (extraction)",
    "grid.dilate": "workload_s on threshold (width pins), continuation",
    "grid.write_snapshot": "workload_s on threshold (artifact I/O)",
    "frames.loewdin": "workload_s on threshold and groundstate",
    "frames.retract": "workload_s on threshold and groundstate",
    "frames.project_tangent": "workload_s on threshold and groundstate",
    "model.energy": "workload_s on groundstate and continuation",
    "model.hamiltonian_apply": "workload_s on groundstate and continuation",
    "model.multipliers": "workload_s on groundstate and continuation",
    "solvers.lowest_eigenpairs": "workload_s on groundstate and continuation; zero on threshold",
    "solvers.TensorPreconditioner.build": "workload_s on groundstate, continuation, threshold",
    "solvers.TensorPreconditioner.apply_core": "workload_s on groundstate, continuation, threshold",
    "solvers.scf_refine": "workload_s, converged_frac, residual_max on groundstate",
    "solvers.minimize_quotient_rank2": "workload_s on threshold",
    "solvers.minimize_quotient_rank1": "workload_s on threshold",
    "solvers.separated_pair_upper_bound": "workload_s and peak_rss_mb on threshold only",
    "solvers.minimize_ground_state": "total behind workload_s on groundstate",
    "solvers.continuation_sweep": "total behind workload_s on continuation",
    "radial.shoot_soliton": "workload_s on threshold",
    "radial.gn_constants": "workload_s on threshold",
    "asymptotics.rescale_extract": "workload_s on continuation only",
    "cli.main": "envelope of the self times on threshold",
    "grid.stencil.bytes_computed": "workload_s on groundstate and threshold",
    "solvers.lobpcg_iters": "workload_s on groundstate and continuation; zero on threshold",
    "solvers.scf_outer": "workload_s, converged_frac, residual_max on groundstate",
    "solvers.descent_iters": "workload_s, converged_frac, residual_max on groundstate",
    "solvers.backtracks_per_iter": "workload_s on groundstate",
}

SPANS = tuple(t[2] for t in TARGETS)

# (name, unit) of every per-layer metric a traced run reports
METRICS = (
    tuple((f"{s}.{kind}", unit) for s in SPANS
          for kind, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s")))
    + tuple((c, "bytes" if c.endswith("bytes_computed") else "count") for c in COUNTERS)
    + (("solvers.backtracks_per_iter", "ratio"), ("trace.overhead_est_s", "s"))
)


def layer_values(summary, counts, overhead_est_s):
    """Every per-layer metric value; layers a workload never calls read 0."""
    out = {}
    for span in SPANS:
        row = summary.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for kind in ("calls", "self_s", "total_s"):
            out[f"{span}.{kind}"] = row[kind]
    for c in COUNTERS:
        out[c] = counts.get(c, 0)
    iters = counts.get("solvers.descent_iters", 0)
    retracts = summary.get("frames.retract", {}).get("calls", 0)
    out["solvers.backtracks_per_iter"] = retracts / iters if iters else 0.0
    out["trace.overhead_est_s"] = overhead_est_s
    return out
