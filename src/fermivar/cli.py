"""Command-line entry point: threshold estimation, single solves, and sweeps.

Three subcommands share one JSON run configuration::

    fermivar astar --config run.json [--seed N]
    fermivar solve --config run.json --a 8.5 [--allow-supercritical] [--seed N]
    fermivar sweep --config run.json [--refit-only] [--seed N]

``astar`` estimates both concentration thresholds on the configured grid,
writes ``astar.json`` plus field snapshots, and prints the JSON.  ``solve``
minimizes the trapped energy at one coupling.  ``sweep`` drives the
continuation toward the stored threshold and emits the records CSV, a
verdict report, and plot-ready tables.  Every command is deterministic
given (config, seed): rerunning writes byte-identical artifacts.

Exit codes: 0 success, 1 configuration error, 2 solver failure,
3 threshold breach, 4 partial sweep.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

try:
    import jsonschema
except ImportError as _exc:  # pragma: no cover - hard dependency
    raise ImportError("the command-line interface requires jsonschema") from _exc

from .grid import BoxGrid, ScalarField, atomic_open, norm, read_snapshot, write_snapshot
from .model import (
    TrapPotential,
    TrapError,
    Well,
    density,
    multipliers,
)
from .frames import OrbitalPair, make_trial_pair
from .solvers import (
    SolverConfig,
    SolverError,
    continuation_sweep,
    minimize_ground_state,
    minimize_quotient_rank1,
    minimize_quotient_rank2,
    quotient_multiplier_residuals,
    separated_pair_upper_bound,
)
from .radial import shoot_soliton, gn_constants
from . import asymptotics as asy

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_BREACH = 3
EXIT_PARTIAL = 4

FORMAT_VERSION = 1

# reference grids for blow-up profile extraction (y-coordinates)
PROFILE_REF_N = 48
PROFILE_REF_HALF_WIDTH = 2.0
DECAY_REF_N = 96
DECAY_REF_HALF_WIDTH = 4.5


class ConfigError(ValueError):
    """Run configuration failed validation; details carries the pointer."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


def _solver_schema() -> dict:
    """Schema for the solver section, generated from the config dataclass."""
    type_map = {int: "integer", float: "number", bool: "boolean", str: "string"}
    props = {}
    for f in dataclasses.fields(SolverConfig):
        js = type_map[type(f.default)]
        # accept whole numbers for float knobs
        props[f.name] = {"type": ["number", "integer"] if js == "number" else js}
    return {"type": "object", "properties": props, "additionalProperties": False}


RUN_CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["format_version", "grid", "trap", "output_dir"],
    "additionalProperties": False,
    "properties": {
        "format_version": {"const": FORMAT_VERSION},
        "grid": {
            "type": "object",
            "required": ["n", "half_width"],
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 8},
                "half_width": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "trap": {
            "type": "object",
            "required": ["wells"],
            "additionalProperties": False,
            "properties": {
                "wells": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["center", "power"],
                        "additionalProperties": False,
                        "properties": {
                            "center": {
                                "type": "array",
                                "minItems": 3,
                                "maxItems": 3,
                                "items": {"type": "number"},
                            },
                            "power": {"type": "number", "exclusiveMinimum": 0},
                        },
                    },
                },
                "prefactor": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "solver": _solver_schema(),
        "sweep": {
            "type": "object",
            "required": ["a_fractions"],
            "additionalProperties": False,
            "properties": {
                "a_fractions": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "number",
                        "exclusiveMinimum": 0,
                        "exclusiveMaximum": 1,
                    },
                },
            },
        },
        "output_dir": {"type": "string", "minLength": 1},
    },
}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(raw, RUN_CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        pointer = "/" + "/".join(str(p) for p in exc.absolute_path)
        raise ConfigError(
            f"config {path} invalid at {pointer or '/'}: {exc.message}",
            details={"schema_pointer": pointer, "validator": exc.validator},
        ) from exc
    fr = raw.get("sweep", {}).get("a_fractions", [])
    if any(b <= a for a, b in zip(fr, fr[1:])):
        raise ConfigError(
            f"config {path} invalid at /sweep/a_fractions: "
            "fractions must be strictly increasing",
            details={"schema_pointer": "/sweep/a_fractions"},
        )
    L = raw["grid"]["half_width"]
    for i, w in enumerate(raw["trap"]["wells"]):
        if max(abs(c) for c in w["center"]) > L:
            raise ConfigError(
                f"config {path} invalid at /trap/wells/{i}/center: "
                f"well center {w['center']} outside the box [-{L}, {L}]^3",
                details={"schema_pointer": f"/trap/wells/{i}/center"},
            )
    return raw


def config_digest(raw: dict) -> str:
    # The artifact location is not part of the run's identity: the same
    # physics configuration written to two directories must digest equally.
    blob = json.dumps({k: v for k, v in raw.items() if k != "output_dir"},
                      sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def build_grid(raw: dict) -> BoxGrid:
    g = raw["grid"]
    return BoxGrid(n_per_axis=int(g["n"]), half_width=float(g["half_width"]))


def build_trap(raw: dict) -> TrapPotential:
    t = raw["trap"]
    wells = tuple(
        Well(center=tuple(float(c) for c in w["center"]), power=float(w["power"]))
        for w in t["wells"]
    )
    try:
        return TrapPotential(wells=wells, prefactor=float(t.get("prefactor", 1.0)))
    except TrapError as exc:
        raise ConfigError(f"invalid trap: {exc}") from exc


def build_solver(raw: dict, seed_override: int | None) -> SolverConfig:
    kwargs = dict(raw.get("solver", {}))
    # The schema admits any number for a float knob and whole-number floats
    # such as 5.0 for an integer one; hand both over as their field's type.
    # type() keeps bool fields (true/false only) apart from int.
    for f in dataclasses.fields(SolverConfig):
        value = kwargs.get(f.name)
        if type(f.default) is float and value is not None:
            kwargs[f.name] = float(value)
        elif type(f.default) is int and isinstance(value, float) and value.is_integer():
            kwargs[f.name] = int(value)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return SolverConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solver section: {exc}") from exc


def _dump_json(obj: dict, path: str) -> None:
    with atomic_open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _emit_error(code: int, kind: str, message: str, **extra) -> int:
    payload = {"error": {"exit_code": code, "kind": kind, "message": message}}
    payload["error"].update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# astar
# ---------------------------------------------------------------------------


def cmd_astar(raw: dict, args) -> int:
    grid = build_grid(raw)
    cfg = build_solver(raw, args.seed)
    outdir = raw["output_dir"]
    os.makedirs(outdir, exist_ok=True)
    digest = config_digest(raw)

    try:
        a2_hat, pair, scan, polish = minimize_quotient_rank2(grid, cfg)
        a1_hat, orb1, stop1, iters1 = minimize_quotient_rank1(grid, cfg)
    except SolverError as exc:
        return _emit_error(EXIT_SOLVER, "solver", f"threshold estimation failed: {exc}")

    _, _, (m1, m2), (r1, r2) = quotient_multiplier_residuals(pair)
    # single-orbital stationarity: multiplier and eigenresidual at a1_hat
    (mu_1,), _, (hu,) = multipliers((orb1,), grid.zeros(), a1_hat)
    res_1 = norm(ScalarField(grid, hu.values - mu_1 * orb1.values))
    profile = shoot_soliton()
    oracle = gn_constants(profile)
    bound = separated_pair_upper_bound(profile=profile)

    doc = {
        "format_version": FORMAT_VERSION,
        "a2_hat": float(a2_hat),
        "a1_hat": float(a1_hat),
        "oracle_a1": float(oracle.a1_star),
        "oracle_rel_dev_a1": float(abs(a1_hat - oracle.a1_star) / oracle.a1_star),
        "el_residuals": {"rank2": [float(r1), float(r2)], "rank1": res_1},
        "multipliers_rank2": [float(m1), float(m2)],
        "multiplier_rank1": mu_1,
        "ordering_ok": bool(a2_hat < a1_hat),
        "separation_rel": float((a1_hat - a2_hat) / a1_hat),
        "rank2_continuum_upper": float(bound["value"]),
        "rank2_continuum_separation": float(bound["separation"]),
        "rank2_continuum_table": bound["table"],
        "rank2_continuum_quad_error": float(bound["quad_error"]),
        "ordering_continuum": bool(bound["value"] < oracle.a1_star),
        "separation_rel_continuum": float(bound["rel_below_rank1"]),
        "stop_reasons": {"rank2": polish[-1]["stop"], "rank1": stop1},
        "iterations": {"rank2": polish[-1]["iterations"], "rank1": iters1},
        "rank2_scan": scan,
        "rank2_polish": polish,
        "grid": {"n": grid.n_per_axis, "half_width": grid.half_width},
        "seed": cfg.seed,
        "config_digest": digest,
    }
    _dump_json(doc, os.path.join(outdir, "astar.json"))
    write_snapshot(pair.u1, os.path.join(outdir, "astar_u1.snap"))
    write_snapshot(pair.u2, os.path.join(outdir, "astar_u2.snap"))
    write_snapshot(orb1, os.path.join(outdir, "astar_rank1.snap"))
    _dump_json(
        {
            "format_version": FORMAT_VERSION,
            "a": float(a2_hat),
            "config_digest": digest,
            "fields": ["astar_u1.snap", "astar_u2.snap"],
        },
        os.path.join(outdir, "astar_state.json"),
    )
    with open(os.path.join(outdir, "astar.json")) as fh:
        sys.stdout.write(fh.read())
    return EXIT_OK


def _load_astar(outdir: str) -> dict:
    path = os.path.join(outdir, "astar.json")
    if not os.path.exists(path):
        raise ConfigError(
            f"{path} not found: run `fermivar astar` first to store the threshold"
        )
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(raw: dict, args) -> int:
    if args.a is None:
        raise ConfigError("solve requires --a <coupling>")
    if not args.a >= 0.0:
        raise ConfigError(f"--a must be a nonnegative coupling, got {args.a}")
    grid = build_grid(raw)
    trap = build_trap(raw)
    cfg = build_solver(raw, args.seed)
    outdir = raw["output_dir"]
    os.makedirs(outdir, exist_ok=True)
    digest = config_digest(raw)

    stored = _load_astar(outdir)
    a2_hat = float(stored["a2_hat"])
    a = float(args.a)
    if a >= a2_hat and not args.allow_supercritical:
        raise ConfigError(
            f"a = {a} is not below the stored threshold {a2_hat}; "
            "pass --allow-supercritical to probe divergence"
        )

    try:
        res = minimize_ground_state(a, trap, grid, cfg)
    except SolverError as exc:
        return _emit_error(EXIT_SOLVER, "solver", f"solve failed: {exc}")

    doc = {
        "format_version": FORMAT_VERSION,
        "a": a,
        "a2_hat": a2_hat,
        "converged": bool(res.converged),
        "threshold_breach": bool(res.threshold_breach),
        "energy": res.diag.energy,
        "kinetic": res.diag.kinetic,
        "potential": res.diag.potential,
        "p_norm": res.diag.p_norm,
        "mu1": res.diag.mu1,
        "mu2": res.diag.mu2,
        "residuals": [float(r) for r in res.residuals],
        "defect": res.pair.defect(),
        "max_pair_defect": res.max_pair_defect,
        "iters": res.iters,
        "stop_reason": res.stop_reason,
        "scf_outer": res.scf_outer,
        "scf_defect": res.scf_defect,
        "degeneracy_gap": res.degeneracy_gap,
        "width": res.width,
        "eig_values": [float(v) for v in res.eig_values],
        "history": [[int(i), float(e), float(g)] for i, e, g in res.history],
        "seed": cfg.seed,
        "config_digest": digest,
    }
    _dump_json(doc, os.path.join(outdir, "solve.json"))

    if res.threshold_breach:
        # divergence trace retained in solve.json history
        print(
            f"threshold breach at a={a}: energy history fell through the floor",
            flush=True,
        )
        return EXIT_BREACH

    write_snapshot(res.pair.u1, os.path.join(outdir, "solve_u1.snap"))
    write_snapshot(res.pair.u2, os.path.join(outdir, "solve_u2.snap"))
    _dump_json(
        {
            "format_version": FORMAT_VERSION,
            "a": a,
            "iteration": res.iters,
            "config_digest": digest,
            "fields": ["solve_u1.snap", "solve_u2.snap"],
        },
        os.path.join(outdir, "solve_state.json"),
    )
    print(
        f"solved a={a}: E={res.diag.energy:.6f} converged={res.converged} "
        f"iters={res.iters}",
        flush=True,
    )
    return EXIT_OK if res.converged else EXIT_SOLVER


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _profile_window(grid: BoxGrid, trap: TrapPotential, eps_max: float,
                    default_hw: float) -> float:
    """Largest rescaled half-width whose physical window stays in the box."""
    reach = max(abs(c) for ctr in trap.metadata().flattest for c in ctr)
    room = 0.98 * (grid.half_width - reach)
    return min(default_hw, room / eps_max)


def _extract_meta(ex: asy.ProfileExtract, paths: tuple[str, str]) -> dict:
    return {
        "eps": ex.eps,
        "center": list(ex.center),
        "lambda1": ex.lambda1,
        "lambda2": ex.lambda2,
        "raw_mass": ex.raw_mass,
        "u1": paths[0],
        "u2": paths[1],
    }


def _extract_from_meta(meta: dict, outdir: str) -> asy.ProfileExtract:
    u1 = read_snapshot(os.path.join(outdir, meta["u1"]))
    u2 = read_snapshot(os.path.join(outdir, meta["u2"]))
    pair = OrbitalPair(u1, u2)
    return asy.ProfileExtract(
        rescaled_pair=pair,
        rescaled_density=density(pair),
        lambda1=meta["lambda1"],
        lambda2=meta["lambda2"],
        eps=float(meta["eps"]),
        center=tuple(meta["center"]),
        raw_mass=float(meta["raw_mass"]),
    )


def _write_sweep_reports(records, trap, a_hat, extracts, decay_extract,
                         outdir, run_meta) -> None:
    report = asy.build_report(
        records, trap, a_hat, extracts,
        decay_extract=decay_extract, metadata=run_meta,
    )
    asy.write_report(report, os.path.join(outdir, "report.json"))
    asy.write_plot_tables(records, a_hat, outdir, decay_extract=decay_extract)


def cmd_sweep(raw: dict, args) -> int:
    if "sweep" not in raw:
        raise ConfigError("sweep requires the config's sweep section")
    grid = build_grid(raw)
    trap = build_trap(raw)
    cfg = build_solver(raw, args.seed)
    outdir = raw["output_dir"]
    os.makedirs(outdir, exist_ok=True)
    digest = config_digest(raw)

    if args.refit_only:
        meta_path = os.path.join(outdir, "meta.json")
        if not os.path.exists(meta_path):
            raise ConfigError(f"--refit-only needs {meta_path} from a prior sweep")
        with open(meta_path) as fh:
            meta = json.load(fh)
        records = asy.read_sweep_csv(
            os.path.join(outdir, "records.csv"),
            under_resolved=meta["under_resolved"],
        )
        extracts = [_extract_from_meta(m, outdir) for m in meta["extracts"]]
        decay_extract = (
            _extract_from_meta(meta["decay"], outdir) if meta["decay"] else None
        )
        _write_sweep_reports(
            records, trap, float(meta["a_hat"]), extracts, decay_extract,
            outdir, meta["run"],
        )
        print("refit complete: report.json rebuilt from stored artifacts",
              flush=True)
        return EXIT_OK

    stored = _load_astar(outdir)
    a_hat = float(stored["a2_hat"])
    run_meta = {"config_digest": digest, "seed": cfg.seed}
    fractions = raw["sweep"]["a_fractions"]
    a_list = [f * a_hat for f in fractions]

    warm = None
    u1p = os.path.join(outdir, "astar_u1.snap")
    u2p = os.path.join(outdir, "astar_u2.snap")
    if os.path.exists(u1p) and os.path.exists(u2p):
        u1, u2 = read_snapshot(u1p), read_snapshot(u2p)
        if u1.grid == grid:
            x0 = np.asarray(trap.metadata().flattest[0])
            warm, _ = make_trial_pair(
                OrbitalPair(u1, u2), 1.0, x0, target_grid=grid
            )

    try:
        outcome = continuation_sweep(
            trap, grid, a_list, cfg, a_hat, warm_start=warm
        )
    except SolverError as exc:
        return _emit_error(EXIT_SOLVER, "solver", f"sweep failed: {exc}")

    records = outcome.records
    for rec in records:
        print(
            f"a={rec.a:.6f} eps={rec.eps:.4f} E={rec.E:.6f} "
            f"converged={rec.converged} under_resolved={rec.under_resolved} "
            f"stop={rec.stop_reason}",
            flush=True,
        )
    if not records:
        return _emit_error(
            EXIT_PARTIAL, "partial", "sweep produced no records "
            f"(aborted at index {outcome.aborted_at})",
        )

    asy.write_sweep_csv(records, os.path.join(outdir, "records.csv"))

    # blow-up profile extraction on shared reference grids
    usable = [
        (rec, pair)
        for rec, pair in zip(records, outcome.pairs)
        if rec.usable
    ]
    extracts = []
    extract_meta = []
    eps_max = max((rec.eps for rec, _ in usable), default=0.0)
    if usable and eps_max > 0:
        hw = _profile_window(grid, trap, eps_max, PROFILE_REF_HALF_WIDTH)
        if hw >= 0.5:
            ref = BoxGrid(PROFILE_REF_N, hw)
            for i, (rec, pair) in enumerate(usable):
                center = np.asarray(rec.peak)
                ex = asy.rescale_extract(
                    pair, rec.eps, center, ref, mu1=rec.mu1, mu2=rec.mu2
                )
                p1 = f"extract_{i:02d}_u1.snap"
                p2 = f"extract_{i:02d}_u2.snap"
                write_snapshot(ex.rescaled_pair.u1, os.path.join(outdir, p1))
                write_snapshot(ex.rescaled_pair.u2, os.path.join(outdir, p2))
                extracts.append(ex)
                extract_meta.append(_extract_meta(ex, (p1, p2)))

    decay_extract = None
    decay_meta = None
    if usable:
        rec, pair = usable[-1]
        hw = _profile_window(grid, trap, rec.eps, DECAY_REF_HALF_WIDTH)
        if hw >= 1.0:
            ref = BoxGrid(DECAY_REF_N, hw)
            center = np.asarray(rec.peak)
            decay_extract = asy.rescale_extract(
                pair, rec.eps, center, ref, mu1=rec.mu1, mu2=rec.mu2
            )
            p1, p2 = "decay_u1.snap", "decay_u2.snap"
            write_snapshot(decay_extract.rescaled_pair.u1, os.path.join(outdir, p1))
            write_snapshot(decay_extract.rescaled_pair.u2, os.path.join(outdir, p2))
            decay_meta = _extract_meta(decay_extract, (p1, p2))

    meta = {
        "format_version": FORMAT_VERSION,
        "a_hat": a_hat,
        "a_list": [float(a) for a in a_list],
        "under_resolved": [bool(r.under_resolved) for r in records],
        "stop_reasons": [r.stop_reason for r in records],
        "widths": [float(w) for w in outcome.widths],
        "aborted_at": outcome.aborted_at,
        "extracts": extract_meta,
        "decay": decay_meta,
        "run": run_meta,
    }
    _dump_json(meta, os.path.join(outdir, "meta.json"))

    _write_sweep_reports(
        records, trap, a_hat, extracts, decay_extract, outdir, run_meta
    )

    partial = outcome.aborted_at is not None or any(
        not r.converged for r in records
    )
    if partial:
        return _emit_error(
            EXIT_PARTIAL, "partial",
            f"sweep incomplete (aborted_at={outcome.aborted_at}); "
            "partial artifacts retained",
        )
    print(f"sweep complete: {len(records)} records -> report.json", flush=True)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fermivar",
        description="Two-orbital concentration thresholds, trapped solves, "
                    "and continuation sweeps on a box grid.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("astar", cmd_astar), ("solve", cmd_solve), ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured solver seed")
        p.set_defaults(func=fn)
        if name == "solve":
            p.add_argument("--a", type=float, default=None,
                           help="coupling strength for the solve")
            p.add_argument("--allow-supercritical", action="store_true",
                           help="permit a above the stored threshold")
        if name == "sweep":
            p.add_argument("--refit-only", action="store_true",
                           help="rebuild the report from stored artifacts "
                                "without re-solving")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        return args.func(raw, args)
    except ConfigError as exc:
        return _emit_error(EXIT_CONFIG, "config", str(exc), **exc.details)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
