"""Command-line entry point: threshold estimation, single solves, and sweeps.

Three subcommands share one JSON run configuration::

    fermivar astar --config run.json
    fermivar solve --config run.json --a 8.5 [--allow-supercritical]
    fermivar sweep --config run.json [--refit-only]

``astar`` estimates both concentration thresholds on the configured grid,
writes ``astar.json`` plus field snapshots, and prints the JSON.  ``solve``
minimizes the trapped energy at one coupling.  ``sweep`` drives the
continuation toward the stored threshold and emits the records CSV, a
verdict report, and plot-ready tables.  No command draws random numbers:
the same config writes byte-identical artifacts.  Before any work, every
command checks the config against ``RUN_CONFIG_SCHEMA``, read by a short
reader in this module, and builds its grid and trap.

Exit codes: 0 success, 1 configuration error, 2 solver failure,
3 threshold breach, 4 partial sweep.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import operator
import os
import sys

import numpy as np

from .grid import BoxGrid, GridError, read_snapshot, write_snapshot
from .model import TrapPotential, TrapError, Well
from .frames import OrbitalPair
from .solvers import (
    SolverConfig,
    SolverError,
    continuation_sweep,
    minimize_ground_state,
    minimize_quotient_rank1,
    minimize_quotient_rank2,
    separated_pair_upper_bound,
)
from . import asymptotics as asy

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_BREACH = 3
EXIT_PARTIAL = 4

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
    # former solver seed, accepted and ignored (see build_solver)
    props["seed"] = {"type": "integer"}
    return {"type": "object", "properties": props, "additionalProperties": False}


RUN_CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["format_version", "grid", "trap", "output_dir"],
    "additionalProperties": False,
    "properties": {
        "format_version": {"const": asy.FORMAT_VERSION},
        "grid": {
            "type": "object",
            "required": ["n", "half_width"],
            "additionalProperties": False,
            "properties": {
                # one 512^3 field is 1 GiB and a solve holds tens of fields
                "n": {"type": "integer", "minimum": 8, "maximum": 512},
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


# The config check reads RUN_CONFIG_SCHEMA itself, with only the keywords the
# schema uses and with jsonschema's meaning of each: a bool is not a number,
# an integral float is an integer, and a keyword that constrains one JSON type
# passes every value of another type.
_PY_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}


def _is_type(value, name: str) -> bool:
    if name in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return name == "number" or isinstance(value, int) or value.is_integer()
    return isinstance(value, _PY_TYPES[name])


def _type(value, rule, schema, path):
    names = [rule] if isinstance(rule, str) else rule
    if not any(_is_type(value, name) for name in names):
        yield path, "type", f"{value!r} is not of type {', '.join(map(repr, names))}"


def _const(value, rule, schema, path):
    if isinstance(value, bool) != isinstance(rule, bool) or value != rule:
        yield path, "const", f"{rule!r} was expected"


def _bound(key: str, kind: str, holds, symbol: str):
    # Each test is written so that NaN fails it.
    def check(value, rule, schema, path):
        if _is_type(value, kind):
            size = value if kind == "number" else len(value)
            if not holds(size, rule):
                what = repr(value) if kind == "number" else f"the length of {value!r}"
                yield path, key, f"{what} is not {symbol} {rule!r}"
    return check


def _items(value, rule, schema, path):
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _violations(item, rule, (*path, i))


def _required(value, rule, schema, path):
    if isinstance(value, dict):
        for name in rule:
            if name not in value:
                yield path, "required", f"{name!r} is a required property"


def _properties(value, rule, schema, path):
    if isinstance(value, dict):
        for name, sub in rule.items():
            if name in value:
                yield from _violations(value[name], sub, (*path, name))


def _no_additional(value, rule, schema, path):
    if rule is not False:
        raise ValueError("only 'additionalProperties: false' is read")
    if isinstance(value, dict):
        extra = [k for k in value if k not in schema.get("properties", {})]
        if extra:
            yield path, "additionalProperties", f"unexpected properties {extra}"


_KEYWORDS = {
    "$schema": lambda value, rule, schema, path: (),  # an annotation
    "type": _type,
    "const": _const,
    "minimum": _bound("minimum", "number", operator.ge, ">="),
    "maximum": _bound("maximum", "number", operator.le, "<="),
    "exclusiveMinimum": _bound("exclusiveMinimum", "number", operator.gt, ">"),
    "exclusiveMaximum": _bound("exclusiveMaximum", "number", operator.lt, "<"),
    "minLength": _bound("minLength", "string", operator.ge, ">="),
    "minItems": _bound("minItems", "array", operator.ge, ">="),
    "maxItems": _bound("maxItems", "array", operator.le, "<="),
    "items": _items,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _no_additional,
}


def _violations(value, schema: dict, path: tuple = ()):
    """Each (path, keyword, message) at which ``value`` breaks ``schema``,
    in the schema's key order, depth first."""
    for key, rule in schema.items():
        yield from _KEYWORDS[key](value, rule, schema, path)


def load_config(path: str) -> dict:
    """The run config at ``path``, checked against ``RUN_CONFIG_SCHEMA`` and
    built into a grid and a trap, so that every command refuses the same bad
    config.  The first schema violation is a ConfigError whose details name
    its ``schema_pointer`` and its ``validator`` keyword."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    found = next(_violations(raw, RUN_CONFIG_SCHEMA), None)
    if found:
        where, keyword, message = found
        pointer = "/" + "/".join(str(p) for p in where)
        raise ConfigError(
            f"config {path} invalid at {pointer}: {message}",
            details={"schema_pointer": pointer, "validator": keyword},
        )
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
    build_grid(raw)
    build_trap(raw)
    return raw


def config_digest(raw: dict) -> str:
    # The artifact location is not part of the run's identity: the same
    # physics configuration written to two directories must digest equally.
    # Neither is the ignored solver seed; a solver section it leaves empty is
    # dropped with it.
    rest = {k: v for k, v in raw.items() if k not in ("output_dir", "solver")}
    solver = {k: v for k, v in raw.get("solver", {}).items() if k != "seed"}
    if solver:
        rest["solver"] = solver
    blob = json.dumps(rest, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def build_grid(raw: dict) -> BoxGrid:
    g = raw["grid"]
    try:
        return BoxGrid(n_per_axis=int(g["n"]), half_width=float(g["half_width"]))
    except GridError as exc:
        raise ConfigError(f"invalid grid: {exc}",
                          details={"schema_pointer": "/grid"}) from exc


def build_trap(raw: dict) -> TrapPotential:
    t = raw["trap"]
    try:
        wells = tuple(
            Well(center=tuple(float(c) for c in w["center"]), power=float(w["power"]))
            for w in t["wells"]
        )
        return TrapPotential(wells=wells, prefactor=float(t.get("prefactor", 1.0)))
    except TrapError as exc:
        raise ConfigError(f"invalid trap: {exc}") from exc


def build_solver(raw: dict, _unused=None) -> SolverConfig:
    # A ``seed`` key and the second argument are leftovers of the former
    # random eigensolver start, ignored so that callers and configs written
    # for it still work.
    kwargs = {k: v for k, v in raw.get("solver", {}).items() if k != "seed"}
    # The schema admits any number for a float knob and whole-number floats
    # such as 5.0 for an integer one; hand both over as their field's type.
    # type() keeps bool fields (true/false only) apart from int.
    for f in dataclasses.fields(SolverConfig):
        value = kwargs.get(f.name)
        if type(f.default) is float and value is not None:
            kwargs[f.name] = float(value)
        elif type(f.default) is int and isinstance(value, float) and value.is_integer():
            kwargs[f.name] = int(value)
    try:
        return SolverConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solver section: {exc}") from exc


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
    cfg = build_solver(raw)
    outdir = raw["output_dir"]
    os.makedirs(outdir, exist_ok=True)
    digest = config_digest(raw)

    try:
        a2_hat, pair, mus2, res2, scan, polish = minimize_quotient_rank2(grid, cfg)
        a1_hat, orb1, mu1, res1, stop1, iters1 = minimize_quotient_rank1(grid, cfg)
    except SolverError as exc:
        return _emit_error(EXIT_SOLVER, "solver", f"threshold estimation failed: {exc}")
    bound = separated_pair_upper_bound()
    oracle_a1 = bound["rank1"]

    doc = {
        "format_version": asy.FORMAT_VERSION,
        "a2_hat": float(a2_hat),
        "a1_hat": float(a1_hat),
        "oracle_a1": oracle_a1,
        "oracle_rel_dev_a1": float(abs(a1_hat - oracle_a1) / oracle_a1),
        "el_residuals": {"rank2": [float(r) for r in res2], "rank1": res1},
        "multipliers_rank2": [float(m) for m in mus2],
        "multiplier_rank1": mu1,
        "ordering_ok": bool(a2_hat < a1_hat),
        "separation_rel": float((a1_hat - a2_hat) / a1_hat),
        "rank2_continuum_upper": float(bound["value"]),
        "rank2_continuum_separation": float(bound["separation"]),
        "rank2_continuum_table": bound["table"],
        "rank2_continuum_quad_error": float(bound["quad_error"]),
        "ordering_continuum": bool(bound["value"] < oracle_a1),
        "separation_rel_continuum": float(bound["rel_below_rank1"]),
        "oracle": bound["oracle"],
        "stop_reasons": {"rank2": polish[-1]["stop"], "rank1": stop1},
        "iterations": {"rank2": polish[-1]["iterations"], "rank1": iters1},
        "rank2_scan": scan,
        "rank2_polish": polish,
        "grid": {"n": grid.n_per_axis, "half_width": grid.half_width},
        "config_digest": digest,
    }
    asy.write_json(doc, os.path.join(outdir, "astar.json"))
    write_snapshot(pair.u1, os.path.join(outdir, "astar_u1.snap"))
    write_snapshot(pair.u2, os.path.join(outdir, "astar_u2.snap"))
    write_snapshot(orb1, os.path.join(outdir, "astar_rank1.snap"))
    with open(os.path.join(outdir, "astar.json")) as fh:
        sys.stdout.write(fh.read())
    return EXIT_OK


@contextlib.contextmanager
def _stored(label: str, what: str, remedy: str):
    """Read artifacts an earlier command stored (``label`` names them).

    A missing file, or one that does not parse or lacks what the block
    takes from it, is a ConfigError that says ``remedy``.
    """
    try:
        yield
    except FileNotFoundError as exc:
        raise ConfigError(f"{exc.filename} not found: {remedy}") from exc
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{label} holds no {what} ({exc!r}): {remedy}") from exc


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_astar(outdir: str, grid: BoxGrid) -> float:
    """The stored threshold a2_hat; it must have been computed on ``grid``."""
    path = os.path.join(outdir, "astar.json")
    with _stored(path, "stored threshold",
                 "run `fermivar astar` first to store the threshold"):
        stored = _read_json(path)
        a2_hat, stored_grid = float(stored["a2_hat"]), stored["grid"]
    configured = {"n": grid.n_per_axis, "half_width": grid.half_width}
    if stored_grid != configured:
        raise ConfigError(
            f"{path} holds the threshold of grid {stored_grid}, not of the "
            f"configured grid {configured}: run `fermivar astar` again",
            details={"schema_pointer": "/grid"},
        )
    return a2_hat


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(raw: dict, args) -> int:
    if args.a is None:
        raise ConfigError("solve requires --a <coupling>")
    if not (math.isfinite(args.a) and args.a >= 0.0):
        raise ConfigError(f"--a must be a finite nonnegative coupling, got {args.a}")
    grid = build_grid(raw)
    trap = build_trap(raw)
    cfg = build_solver(raw)
    outdir = raw["output_dir"]
    os.makedirs(outdir, exist_ok=True)
    digest = config_digest(raw)

    a2_hat = _load_astar(outdir, grid)
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
        "format_version": asy.FORMAT_VERSION,
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
        "sum_rule_residual": res.diag.sum_rule_residual,
        "virial_residual": res.diag.virial_residual,
        # null: a breach stops before the residuals are computed
        "residuals": [float(r) if math.isfinite(r) else None for r in res.residuals],
        "defect": res.pair.defect(),
        "max_pair_defect": res.max_pair_defect,
        "iters": res.iters,
        "stop_reason": res.stop_reason,
        "scf_outer": res.scf_outer,
        "scf_defect": res.scf_defect,
        "degeneracy_gap": res.degeneracy_gap,
        "width": res.width,
        "eig_values": [float(v) for v in res.eig_values],
        "level_eig_iters": res.level_eig_iters,
        "history": [[int(i), float(e), float(g)] for i, e, g in res.history],
        "config_digest": digest,
    }
    asy.write_json(doc, os.path.join(outdir, "solve.json"))

    if res.threshold_breach:
        # divergence trace retained in solve.json history
        print(
            f"threshold breach at a={a}: energy history fell through the floor",
            flush=True,
        )
        return EXIT_BREACH

    write_snapshot(res.pair.u1, os.path.join(outdir, "solve_u1.snap"))
    write_snapshot(res.pair.u2, os.path.join(outdir, "solve_u2.snap"))
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


def _extract(pair, rec, ref: BoxGrid, paths: tuple[str, str], outdir: str) -> dict:
    """Profile extraction of one sweep record, stored: its meta.json entry.

    The rescaled pair goes to the two snapshots ``paths``.  A rescale
    window that leaves the source box skips the extraction; the entry then
    records the message under ``skipped``.
    """
    try:
        ex = asy.rescale_extract(
            pair, rec.eps, np.asarray(rec.peak), ref, mu1=rec.mu1, mu2=rec.mu2
        )
    except asy.WindowError as exc:
        return {"eps": rec.eps, "center": list(rec.peak), "skipped": str(exc)}
    for u, path in zip(ex.rescaled_pair, paths):
        write_snapshot(u, os.path.join(outdir, path))
    return {"eps": ex.eps, "center": list(ex.center), "lambda1": ex.lambda1,
            "lambda2": ex.lambda2, "raw_mass": ex.raw_mass,
            "u1": paths[0], "u2": paths[1]}


def _stored_extract(entry: dict, outdir: str) -> asy.ProfileExtract:
    """The profile extract a ``meta.json`` entry and its snapshots hold."""
    pair = OrbitalPair(*(read_snapshot(os.path.join(outdir, entry[k]))
                         for k in ("u1", "u2")))
    return asy.ProfileExtract(
        rescaled_pair=pair,
        lambda1=float(entry["lambda1"]),
        lambda2=float(entry["lambda2"]),
        eps=float(entry["eps"]),
        center=tuple(float(c) for c in entry["center"]),
        raw_mass=float(entry["raw_mass"]),
    )


def _report_from_artifacts(outdir: str, trap: TrapPotential, digest: str) -> list[str]:
    """report.json and the plot tables, built from the stored sweep alone.

    Reads ``meta.json``, ``records.csv`` and the extract snapshots that
    ``meta.json`` names.  A missing or malformed artifact, or a
    ``meta.json`` written under another config digest, is a ConfigError.
    Returns the problems the stored sweep shows, in order: an incomplete
    sweep (a stored ``aborted_at`` or an unconverged record), the skipped
    steps, and the reason no report was built.  The live run and
    ``--refit-only`` report the same list.
    """
    remedy = "--refit-only needs the artifacts of a prior `fermivar sweep`"
    meta_path = os.path.join(outdir, "meta.json")
    with _stored(meta_path, "sweep metadata", remedy):
        meta = _read_json(meta_path)
        stored_digest = meta["run"]["config_digest"]
    if stored_digest != digest:
        raise ConfigError(
            f"{meta_path} holds a sweep of config digest {stored_digest}, not "
            f"one of the current config ({digest}): run `fermivar sweep` again"
        )
    with _stored(outdir, "complete stored sweep", remedy):
        a_hat, decay = float(meta["a_hat"]), meta["decay"]
        records = asy.read_sweep_csv(os.path.join(outdir, "records.csv"))
        aborted_at = meta["aborted_at"]
        problems = []
        if aborted_at is not None or any(not r.converged for r in records):
            problems.append(f"sweep incomplete (aborted_at={aborted_at})")
        problems += [f"profile extraction skipped: {e['skipped']}"
                     for e in [*meta["extracts"], decay] if e and "skipped" in e]
        profiles = [_stored_extract(e, outdir) for e in meta["extracts"]
                    if "skipped" not in e]
        decay_extract = (_stored_extract(decay, outdir)
                         if decay and "skipped" not in decay else None)
    try:
        report = asy.build_report(records, trap, a_hat, profiles,
                                  decay_extract=decay_extract,
                                  metadata=meta["run"])
    except ValueError as exc:  # too few usable records
        return problems + [f"report not built: {exc}"]
    if "skipped" in report.get("decay", {}):
        problems.append(f"decay fit skipped: {report['decay']['skipped']}")
    asy.write_json(report, os.path.join(outdir, "report.json"))
    asy.write_plot_tables(records, a_hat, outdir, decay_extract=decay_extract)
    return problems


def _sweep_exit(problems: list[str], done: str) -> int:
    """Exit 4 with the problems of a stored sweep, else print ``done``."""
    if problems:
        return _emit_error(
            EXIT_PARTIAL, "partial",
            "; ".join(problems) + "; partial artifacts retained",
        )
    print(done, flush=True)
    return EXIT_OK


def cmd_sweep(raw: dict, args) -> int:
    """Continuation over ``sweep.a_fractions`` of the stored a2_hat.

    The first point starts cold and oriented, as ``solve`` does; each
    later point starts from the previous record.  The records, profile
    extracts and ``meta.json`` are stored first; ``report.json`` is then
    built from those artifacts alone, by the same loader that
    ``--refit-only`` runs without solving.
    """
    if "sweep" not in raw:
        raise ConfigError("sweep requires the config's sweep section")
    grid = build_grid(raw)
    trap = build_trap(raw)
    cfg = build_solver(raw)
    outdir = raw["output_dir"]
    os.makedirs(outdir, exist_ok=True)
    digest = config_digest(raw)

    if args.refit_only:
        return _sweep_exit(_report_from_artifacts(outdir, trap, digest),
                           "refit complete: report.json rebuilt from stored artifacts")

    a_hat = _load_astar(outdir, grid)
    fractions = raw["sweep"]["a_fractions"]
    a_list = [f * a_hat for f in fractions]

    try:
        outcome = continuation_sweep(trap, grid, a_list, cfg, a_hat)
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
    usable = [(rec, pair) for rec, pair in zip(records, outcome.pairs) if rec.usable]
    extract_meta = []
    eps_max = max((rec.eps for rec, _ in usable), default=0.0)
    if usable and eps_max > 0:
        hw = _profile_window(grid, trap, eps_max, PROFILE_REF_HALF_WIDTH)
        if hw >= 0.5:
            ref = BoxGrid(PROFILE_REF_N, hw)
            extract_meta = [
                _extract(pair, rec, ref, (f"extract_{i:02d}_u1.snap",
                                          f"extract_{i:02d}_u2.snap"), outdir)
                for i, (rec, pair) in enumerate(usable)
            ]

    decay_meta = None
    if usable:
        rec, pair = usable[-1]
        hw = _profile_window(grid, trap, rec.eps, DECAY_REF_HALF_WIDTH)
        if hw >= 1.0:
            decay_meta = _extract(
                pair, rec, BoxGrid(DECAY_REF_N, hw),
                ("decay_u1.snap", "decay_u2.snap"), outdir,
            )

    meta = {
        "format_version": asy.FORMAT_VERSION,
        "a_hat": a_hat,
        "a_list": [float(a) for a in a_list],
        "widths": [float(w) for w in outcome.widths],
        "aborted_at": outcome.aborted_at,
        "extracts": extract_meta,
        "decay": decay_meta,
        "run": {"config_digest": digest},
    }
    asy.write_json(meta, os.path.join(outdir, "meta.json"))

    return _sweep_exit(_report_from_artifacts(outdir, trap, digest),
                       f"sweep complete: {len(records)} records -> report.json")


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
