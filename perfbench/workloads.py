"""The three fermivar workloads: inputs, timed operations and their checks.

All workloads run at n=32 with solver seed 2024 and the default
``SolverConfig`` unless stated; the shipped n=96 configs are excluded on
purpose (one n=96 solve takes minutes, too long to repeat per check).  The
solver seed is fixed rather than drawn from the benchmark seed: the SCF
path of the cold solves depends on it (one seed in four ran 90 SCF outer
steps instead of 7 and took four times as long), so a drawn seed would turn
a timing into a lottery.  The benchmark seed only permutes the order of the
independent operations inside a repetition.

Each operation is timed alone; checks run after the clock stops and use
this module's own numerics (trapezoid products, the 7-point stencil), so
they hold for any correct program, not only for the current numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import struct
import time

import numpy as np

SOLVER_SEED = 2024
A_HAT = 9.890265186660615  # threshold workload's a2_hat at n=32, seed 2024
GROUND_A = 5.0
SWEEP_A = (5.9, 6.9)

HARMONIC = {
    "grid": {"n": 32, "half_width": 2.2},
    "trap": {"wells": [{"center": [0.0, 0.0, 0.0], "power": 2.0}]},
}
QUARTIC = {
    "grid": {"n": 32, "half_width": 2.5},
    "trap": {"wells": [{"center": [0.0, 0.0, 0.0], "power": 4.0}]},
}
DOUBLEWELL = {
    "grid": {"n": 32, "half_width": 2.5},
    "trap": {"wells": [
        {"center": [-0.8, 0.0, 0.0], "power": 2.0},
        {"center": [0.8, 0.0, 0.0], "power": 4.0},
    ]},
}
CONFIGS = {
    "threshold": (("astar", HARMONIC, {"pin_fraction": 0.4, "max_iters": 250}),),
    "groundstate": (("harmonic", HARMONIC, {}), ("quartic", QUARTIC, {})),
    "continuation": (("doublewell", DOUBLEWELL, {}),),
}

# Correctness bands.  The lattice thresholds at n=32 sit 0.6% (rank 1) and
# 3.3% (rank 2) above the shooting oracle; the bands leave room for any
# correct discretisation at this n while catching a wrong one.
A1_BAND = 0.02
A2_BAND = 0.05
# The separated-pair bound lies below the rank-1 constant by ~3e-5 relative.
CONTINUUM_GAP_MAX = 1e-3
# A solve that reports convergence must have a small Euler-Lagrange residual.
CONVERGED_RESIDUAL_MAX = 1e-4
# Profile extraction preserves the source pair's mass inside the physical
# window up to interpolation error; the benchmark's own estimate of that mass
# (midpoint rule with clipped boundary cells) sets the reference.  With the
# extraction's AttributeError repaired, the three extractions of this
# workload hold 1.93-1.96 and differ from the estimate by at most 0.003.
EXTRACT_MASS_TOL = 0.02


# ---------------------------------------------------------------------------
# set-up: import, config, grid, trap, potential field
# ---------------------------------------------------------------------------


def setup(workload, workdir):
    """Load each config of ``workload`` the way the CLI does."""
    from fermivar import cli
    from fermivar.model import potential_field

    items = []
    for label, base, solver in CONFIGS[workload]:
        outdir = os.path.join(workdir, label)
        raw = {"format_version": 1, **base,
               "solver": {"seed": SOLVER_SEED, **solver}, "output_dir": outdir}
        path = os.path.join(workdir, f"{label}.json")
        with open(path, "w") as fh:
            json.dump(raw, fh, indent=2)
        raw = cli.load_config(path)
        grid = cli.build_grid(raw)
        trap = cli.build_trap(raw)
        items.append({
            "label": label, "path": path, "outdir": outdir, "grid": grid,
            "trap": trap, "cfg": cli.build_solver(raw, None),
            "V": potential_field(trap, grid),
        })
    return items


# ---------------------------------------------------------------------------
# timed operations
# ---------------------------------------------------------------------------


def _timed(name, fn):
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        out, error = fn(), None
    except Exception as exc:  # the program's failure is a failed operation
        out, error = None, f"{type(exc).__name__}: {exc}"
    return {"name": name, "seconds": time.perf_counter() - t0,
            "cpu_seconds": time.process_time() - c0,
            "output": out, "error": error}


def execute(workload, items, order):
    """Run one repetition; returns the operations with their outputs."""
    if workload == "threshold":
        return [_astar(items[0])]
    if workload == "groundstate":
        from fermivar.solvers import minimize_ground_state

        seq = items if order % 2 == 0 else items[::-1]
        return [
            _timed(f"solve:{it['label']}", lambda it=it: minimize_ground_state(
                GROUND_A, it["trap"], it["grid"], it["cfg"]))
            for it in seq
        ]
    if workload == "continuation":
        return _continuation(items[0], order)
    raise ValueError(f"unknown workload {workload!r}")


def _astar(it):
    from fermivar import cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["astar", "--config", it["path"]])
        return rc, buf.getvalue()

    return _timed("astar", run)


def _continuation(it, order):
    # the extraction grids and windows are those of `fermivar sweep`
    from fermivar import asymptotics, cli
    from fermivar.grid import BoxGrid
    from fermivar.solvers import continuation_sweep

    grid, trap = it["grid"], it["trap"]
    sweep = _timed("sweep", lambda: continuation_sweep(
        trap, grid, list(SWEEP_A), it["cfg"], A_HAT))
    ops = [sweep]
    out = sweep["output"]
    if out is None or not out.records:
        return ops
    jobs = []
    eps_max = max(rec.eps for rec in out.records)
    hw = cli._profile_window(grid, trap, eps_max, cli.PROFILE_REF_HALF_WIDTH)
    if hw >= 0.5:
        for i, (rec, pair) in enumerate(zip(out.records, out.pairs)):
            jobs.append((f"extract:{i}", rec, pair, BoxGrid(cli.PROFILE_REF_N, hw)))
    rec, pair = out.records[-1], out.pairs[-1]
    hw = cli._profile_window(grid, trap, rec.eps, cli.DECAY_REF_HALF_WIDTH)
    if hw >= 1.0:
        jobs.append(("extract:decay", rec, pair, BoxGrid(cli.DECAY_REF_N, hw)))
    if order % 2:
        jobs.reverse()
    for name, rec, pair, ref in jobs:
        ops.append(_timed(name, lambda rec=rec, pair=pair, ref=ref:
                          asymptotics.rescale_extract(
                              pair, rec.eps, np.asarray(rec.peak), ref,
                              mu1=rec.mu1, mu2=rec.mu2)))
    return ops


# ---------------------------------------------------------------------------
# independent numerics for the checks
# ---------------------------------------------------------------------------


def _weights(n, h):
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _inner(f, g, h):
    w = _weights(f.shape[0], h)
    return float(np.einsum("ijk,i,j,k->", f * g, w, w, w))


def _masked(v):
    m = v.copy()
    m[0], m[-1] = 0.0, 0.0
    m[:, 0], m[:, -1] = 0.0, 0.0
    m[:, :, 0], m[:, :, -1] = 0.0, 0.0
    return m


def _neg_laplacian(m, h):
    out = np.zeros_like(m)
    c = (slice(1, -1),) * 3
    acc = 6.0 * m[c]
    for ax in range(3):
        for s in (slice(None, -2), slice(2, None)):
            idx = list(c)
            idx[ax] = s
            acc -= m[tuple(idx)]
    out[c] = acc / (h * h)
    return out


def pair_defect(u1, u2, h):
    G = np.array([[_inner(u1, u1, h), _inner(u1, u2, h)],
                  [_inner(u1, u2, h), _inner(u2, u2, h)]])
    return float(np.abs(G - np.eye(2)).max())


def el_residual(u1, u2, V, a, h):
    """Largest ||H u_i - sum_j M_ji u_j|| with M_ij = <u_i, H u_j>.

    H = -lap_h + V - (5a/3) rho^{2/3} under Dirichlet zero; the form is
    invariant under rotations of the pair, so any orthonormal basis of the
    occupied space gives the same value.
    """
    us = (_masked(u1), _masked(u2))
    rho = us[0] ** 2 + us[1] ** 2
    w = V - (5.0 / 3.0) * a * np.cbrt(rho) ** 2
    hus = [_neg_laplacian(u, h) + w * u for u in us]
    M = np.array([[_inner(us[i], hus[j], h) for j in range(2)] for i in range(2)])
    M = 0.5 * (M + M.T)
    res = [hus[i] - M[0, i] * us[0] - M[1, i] * us[1] for i in range(2)]
    return max(math.sqrt(max(_inner(r, r, h), 0.0)) for r in res)


def window_mass(u1, u2, L, center, reach):
    """Mass of u1^2 + u2^2 inside the cube ``center +- reach``.

    Each source node carries the part of its cell ``[x - h/2, x + h/2]``
    (clipped to the box ``[-L, L]``) that lies inside the window.
    """
    n = u1.shape[0]
    h = 2.0 * L / (n - 1)
    x = np.linspace(-L, L, n)
    lo, hi = np.maximum(x - h / 2, -L), np.minimum(x + h / 2, L)
    w = [np.clip(np.minimum(hi, c + reach) - np.maximum(lo, c - reach), 0.0, None)
         for c in center]
    return float(np.einsum("ijk,i,j,k->", u1 * u1 + u2 * u2, *w))


def read_snapshot_values(path):
    """Field values of a snapshot (magic, uint32 n, float64 L, n^3 float64)."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"FVF1":
            raise ValueError(f"bad snapshot magic in {path}")
        (n,) = struct.unpack("<I", fh.read(4))
        (L,) = struct.unpack("<d", fh.read(8))
        vals = np.frombuffer(fh.read(), dtype="<f8")
    if vals.size != n ** 3:
        raise ValueError(f"truncated snapshot {path}")
    return vals.reshape(n, n, n), 2.0 * L / (n - 1)


def _finite(*xs):
    return all(math.isfinite(float(x)) for x in xs)


# ---------------------------------------------------------------------------
# checks (after the clock)
# ---------------------------------------------------------------------------


def check(workload, items, ops):
    """Fill each operation's ``failures`` and return the summary values."""
    from fermivar.frames import PAIR_DEFECT_TOL

    summary = {"residual_max": None, "converged": 0, "solves": 0}
    by_label = {it["label"]: it for it in items}
    for op in ops:
        op["failures"] = [] if op["error"] is None else [op["error"]]
    try:
        if workload == "threshold":
            _check_astar(ops[0], items[0], PAIR_DEFECT_TOL, summary)
        elif workload == "groundstate":
            for op in ops:
                if op["error"] is None:
                    it = by_label[op["name"].split(":", 1)[1]]
                    _check_solve(op, op["output"], it, GROUND_A, PAIR_DEFECT_TOL,
                                 summary)
        else:
            _check_continuation(ops, items[0], PAIR_DEFECT_TOL, summary)
    except (KeyError, TypeError, ValueError, AttributeError, OSError) as exc:
        # an output without a documented field or file fails its check
        why = f"output unreadable: {type(exc).__name__}: {exc}"
        for op in ops:
            for target in (op, *op.get("points", ())):
                target["failures"].append(why)
    for op in ops:
        op.pop("output", None)
    return summary


def _check_astar(op, it, tol, summary):
    fail = op["failures"]
    if op["error"] is not None:
        return
    rc, printed = op["output"]
    if rc != 0:
        fail.append(f"astar exit code {rc}")
        return
    outdir = it["outdir"]
    with open(os.path.join(outdir, "astar.json")) as fh:
        doc = json.load(fh)
    if json.loads(printed) != doc:
        fail.append("printed JSON differs from astar.json")
    keys = ("a2_hat", "a1_hat", "oracle_a1", "rank2_continuum_upper")
    if not _finite(*(doc[k] for k in keys), *doc["el_residuals"]["rank2"],
                   doc["el_residuals"]["rank1"], *doc["multipliers_rank2"]):
        fail.append("non-finite astar output")
        return
    oracle = doc["oracle_a1"]
    dev1 = abs(doc["a1_hat"] - oracle) / oracle
    dev2 = abs(doc["a2_hat"] - oracle) / oracle
    summary.update(a1_hat=doc["a1_hat"], a2_hat=doc["a2_hat"],
                   a1_oracle_rel_dev=dev1, a2_oracle_rel_dev=dev2)
    if dev1 > A1_BAND:
        fail.append(f"a1_hat off the oracle by {dev1:.3g} > {A1_BAND}")
    if dev2 > A2_BAND:
        fail.append(f"a2_hat off the oracle by {dev2:.3g} > {A2_BAND}")
    gap = (oracle - doc["rank2_continuum_upper"]) / oracle
    if not 0.0 < gap < CONTINUUM_GAP_MAX:
        fail.append(f"continuum rank-2 bound gap {gap:.3g} outside (0, {CONTINUUM_GAP_MAX})")
    (u1, h), (u2, _) = (read_snapshot_values(os.path.join(outdir, f))
                        for f in ("astar_u1.snap", "astar_u2.snap"))
    u, _ = read_snapshot_values(os.path.join(outdir, "astar_rank1.snap"))
    defect = pair_defect(u1, u2, h)
    if not defect <= tol:
        fail.append(f"rank-2 pair defect {defect:.3g} > {tol}")
    if not abs(_inner(u, u, h) - 1.0) <= tol:
        fail.append("rank-1 orbital is not unit norm")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        digest.update(name.encode())
        with open(os.path.join(outdir, name), "rb") as fh:
            digest.update(fh.read())
    summary["artifact_digest"] = digest.hexdigest()


def _check_solve(op, res, it, a, tol, summary):
    fail = op["failures"]
    summary["solves"] += 1
    d = res.diag
    if res.threshold_breach:
        fail.append(f"threshold breach at a={a}")
        return
    if not _finite(d.energy, d.kinetic, d.potential, d.p_norm, d.mu1, d.mu2,
                   *res.residuals):
        fail.append("non-finite solve output")
        return
    if d.energy < 0.0:
        fail.append(f"subcritical energy {d.energy} < 0")
    u1, u2 = res.pair.u1.values, res.pair.u2.values
    h = it["grid"].spacing
    defect = pair_defect(u1, u2, h)
    if not defect <= tol:
        fail.append(f"pair defect {defect:.3g} > {tol}")
    r = el_residual(u1, u2, it["V"].values, a, h)
    if not math.isfinite(r):
        fail.append("non-finite residual")
        return
    if res.converged and r > CONVERGED_RESIDUAL_MAX:
        fail.append(f"reported converged with residual {r:.3g}")
    summary["converged"] += bool(res.converged)
    prev = summary["residual_max"]
    summary["residual_max"] = r if prev is None else max(prev, r)


def _check_continuation(ops, it, tol, summary):
    # each sweep point is one operation of its own; the sweep's time counts
    # whenever the sweep call itself returned
    sweep = ops[0]
    points = [{"name": f"point:{i}", "failures": list(sweep["failures"])}
              for i in range(len(SWEEP_A))]
    sweep["points"] = points
    if sweep["error"] is not None:
        return
    out = sweep["output"]
    records = out.records
    for point in points[len(records):]:
        point["failures"].append(f"no record (aborted_at={out.aborted_at})")
    h = it["grid"].spacing
    for point, rec, pair in zip(points, records, out.pairs):
        if not _finite(rec.E, rec.T, rec.W, rec.P, rec.mu1, rec.mu2, rec.eps):
            point["failures"].append("non-finite sweep record")
            continue
        if rec.E < 0.0:
            point["failures"].append(f"subcritical energy {rec.E} < 0")
        u1, u2 = pair.u1.values, pair.u2.values
        if not pair_defect(u1, u2, h) <= tol:
            point["failures"].append("pair defect above tolerance")
        r = el_residual(u1, u2, it["V"].values, rec.a, h)
        if not math.isfinite(r):
            point["failures"].append("non-finite residual")
            continue
        if rec.converged and r > CONVERGED_RESIDUAL_MAX:
            point["failures"].append(f"reported converged with residual {r:.3g}")
        summary["solves"] += 1
        summary["converged"] += bool(rec.converged)
        prev = summary["residual_max"]
        summary["residual_max"] = r if prev is None else max(prev, r)
    if len(records) == 2 and not records[1].E < records[0].E:
        points[1]["failures"].append("energy did not decrease as a grew")
    for op in ops[1:]:
        if op["error"] is not None:
            continue
        ex = op["output"]
        kind = op["name"].split(":", 1)[1]
        src = out.pairs[-1 if kind == "decay" else int(kind)]
        u1, u2 = ex.rescaled_pair.u1.values, ex.rescaled_pair.u2.values
        h = ex.rescaled_pair.u1.grid.spacing
        if not (np.isfinite(u1).all() and np.isfinite(u2).all()
                and _finite(ex.raw_mass, ex.lambda1, ex.lambda2)):
            op["failures"].append("non-finite extraction")
            continue
        ref = window_mass(src.u1.values, src.u2.values, src.grid.half_width,
                          ex.center, ex.eps * ex.rescaled_pair.u1.grid.half_width)
        if not abs(ex.raw_mass - ref) <= EXTRACT_MASS_TOL:
            op["failures"].append(f"extracted mass {ex.raw_mass:.5g}, window holds "
                                  f"{ref:.5g} (tolerance {EXTRACT_MASS_TOL})")
        if not pair_defect(u1, u2, h) <= tol:
            op["failures"].append("extracted pair defect above tolerance")


def tally(ops):
    """(name, passed, raised) for every counted operation, and the wall and
    CPU seconds of the successful ones."""
    counted, wall, cpu = [], 0.0, 0.0
    for op in ops:
        raised = op["error"] is not None
        if "points" in op:
            counted += [(p["name"], not p["failures"], raised) for p in op["points"]]
            ok = not raised
        else:
            ok = not op["failures"]
            counted.append((op["name"], ok, raised))
        if ok:
            wall += op["seconds"]
            cpu += op["cpu_seconds"]
    return counted, wall, cpu
