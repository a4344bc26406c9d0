"""Command line interface: config validation, error paths, artifacts."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import fermivar
import fermivar.cli as fcli
from fermivar.asymptotics import PeakTieWarning

from conftest import REPO_ROOT, SMALL_ASTAR_CONFIG, load_json


BASE_CONFIG = {
    "format_version": 1,
    "grid": {"n": 16, "half_width": 2.0},
    "trap": {"wells": [{"center": [0.0, 0.0, 0.0], "power": 2.0}]},
    "output_dir": "out",
}


def patched_config(patch=None, drop=None):
    """BASE_CONFIG with dotted keys set from ``patch`` and removed by ``drop``."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (patch or {}).items():
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    for key in drop or ():
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node[p]
        del node[parts[-1]]
    return cfg


def write_config(tmp_path, patch=None, drop=None):
    cfg = patched_config(patch, drop)
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(argv, capsys):
    rc = fcli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def stderr_error(err):
    payload = json.loads(err.strip().splitlines()[-1])
    return payload["error"]


def test_python_dash_m_runs_the_cli(tmp_path):
    # `python -m fermivar` is the console script: same JSON diagnostic, same code
    src = str(Path(fermivar.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "fermivar", "astar", "--config",
         str(tmp_path / "nope.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == fcli.EXIT_CONFIG
    assert stderr_error(run.stderr)["kind"] == "config"


# ---------------------------------------------------------------------------
# config loading and validation
# ---------------------------------------------------------------------------


def test_missing_config_file(tmp_path, capsys):
    rc, _, err = run(["astar", "--config", str(tmp_path / "nope.json")], capsys)
    assert rc == fcli.EXIT_CONFIG
    e = stderr_error(err)
    assert e["exit_code"] == 1 and e["kind"] == "config"
    assert "cannot read config" in e["message"]


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, _, err = run(["astar", "--config", str(path)], capsys)
    assert rc == fcli.EXIT_CONFIG
    assert "not valid JSON" in stderr_error(err)["message"]


SCHEMA_REJECTIONS = [
    (None, ["grid"], ""),
    ({"grid.n": 4}, None, "/grid/n"),
    ({"grid.half_width": -1.0}, None, "/grid/half_width"),
    ({"trap.wells": []}, None, "/trap/wells"),
    ({"trap.prefactor": 0.0}, None, "/trap/prefactor"),
    ({"sweep": {"a_fractions": [0.5, 1.5]}}, None, "/sweep/a_fractions/1"),
    ({"solver": {"bogus_knob": 1}}, None, "/solver"),
    ({"format_version": 2}, None, "/format_version"),
    ({"trap.wells": [{"center": [3.0, 0.0, 0.0], "power": 2.0}]}, None,
     "/trap/wells/0/center"),
    ({"solver": {"multistart": 3}}, None, "/solver"),  # a removed knob
    ({"solver": {"scf_mixing": 0.5}}, None, "/solver"),  # now a constant
    ({"grid.n": 513}, None, "/grid/n"),
    ({"grid.n": 1e20}, None, "/grid/n"),  # an integer to the schema
]


@pytest.mark.parametrize("patch,drop,pointer", SCHEMA_REJECTIONS)
def test_schema_rejections(tmp_path, capsys, patch, drop, pointer):
    cp = write_config(tmp_path, patch=patch, drop=drop)
    rc, _, err = run(["astar", "--config", cp], capsys)
    assert rc == fcli.EXIT_CONFIG
    e = stderr_error(err)
    assert e["kind"] == "config"
    assert e["schema_pointer"].startswith(pointer)


def test_fractions_must_increase(tmp_path, capsys):
    cp = write_config(tmp_path, patch={"sweep": {"a_fractions": [0.9, 0.9]}})
    rc, _, err = run(["sweep", "--config", cp], capsys)
    assert rc == fcli.EXIT_CONFIG
    e = stderr_error(err)
    assert e["schema_pointer"] == "/sweep/a_fractions"
    assert "strictly increasing" in e["message"]


def _well(center=(0.0, 0.0, 0.0), power=2.0):
    return {"trap.wells": [{"center": list(center), "power": power}]}


# Every finite config that the schema reader is held to jsonschema on: the
# rejection cases above, the shipped configs, a benchmark-style config with
# the ignored solver seed, and values at each keyword's edge.
READER_CORPUS = [
    *((f"rejection{i}", patched_config(patch, drop))
      for i, (patch, drop, _) in enumerate(SCHEMA_REJECTIONS)),
    *((p.name, load_json(p)) for p in sorted((REPO_ROOT / "configs").glob("*.json"))),
    ("benchmark_style", patched_config({
        "grid": {"n": 32, "half_width": 2.2},
        "solver": {"seed": 20240607, "pin_fraction": 0.4, "max_iters": 250}})),
    ("n_true", patched_config({"grid.n": True})),
    ("n_32.0", patched_config({"grid.n": 32.0})),
    ("n_32.5", patched_config({"grid.n": 32.5})),
    ("n_512", patched_config({"grid.n": 512})),
    ("half_width_0", patched_config({"grid.half_width": 0})),
    ("half_width_string", patched_config({"grid.half_width": "2"})),
    ("center_2_items", patched_config(_well(center=(0.0, 0.0)))),
    ("center_4_items", patched_config(_well(center=(0.0, 0.0, 0.0, 0.0)))),
    ("center_string", patched_config(_well(center=(0.0, "0", 0.0)))),
    ("power_0", patched_config(_well(power=0))),
    ("prefactor_null", patched_config({"trap.prefactor": None})),
    ("output_dir_empty", patched_config({"output_dir": ""})),
    ("fractions_empty", patched_config({"sweep.a_fractions": []})),
    ("fractions_0", patched_config({"sweep.a_fractions": [0.0]})),
    ("fractions_1", patched_config({"sweep.a_fractions": [1.0]})),
    ("format_version_1.0", patched_config({"format_version": 1.0})),
    ("format_version_true", patched_config({"format_version": True})),
    ("unknown_key", patched_config({"extra": 1})),
    ("unknown_key_and_no_grid", patched_config({"extra": 1}, ["grid"])),
    ("solver_list", patched_config({"solver": []})),
    ("top_level_list", []),
    ("top_level_null", None),
    ("top_level_string", "x"),
]


@pytest.mark.parametrize("cfg", [c for _, c in READER_CORPUS],
                         ids=[name for name, _ in READER_CORPUS])
def test_schema_reader_agrees_with_jsonschema(tmp_path, cfg):
    # jsonschema is reference code here; the package does not import it.
    # Both walk the schema depth first in its key order, so they list the
    # same violations in the same order, and the reader reports the first
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(fcli.RUN_CONFIG_SCHEMA)
    reference = [(list(e.absolute_path), e.validator) for e in validator.iter_errors(cfg)]
    found = [(list(where), keyword) for where, keyword, _ in
             fcli._violations(cfg, fcli.RUN_CONFIG_SCHEMA)]
    assert found == reference
    if len(reference) == 1:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(fcli.ConfigError) as info:
            fcli.load_config(str(path))
        (where, keyword), = reference
        assert info.value.details == {
            "schema_pointer": "/" + "/".join(map(str, where)), "validator": keyword}


def _unread_keywords(schema: dict) -> list[str]:
    """Keywords of ``schema`` and its subschemas that the reader would not
    apply as jsonschema does."""
    found = []
    for key, rule in schema.items():
        if key not in fcli._KEYWORDS or (key == "additionalProperties" and rule is not False):
            found.append(key)
        if key == "properties":
            for sub in rule.values():
                found += _unread_keywords(sub)
        elif key == "items":
            found += _unread_keywords(rule)
    return found


def test_schema_reader_reads_every_keyword_of_the_schema():
    assert _unread_keywords(fcli.RUN_CONFIG_SCHEMA) == []


def test_unread_keywords_are_found():
    schema = {"type": "object", "additionalProperties": True, "properties": {
        "name": {"type": "string", "pattern": "^a"},
        "tags": {"type": "array", "items": {"enum": ["x"]}}}}
    assert _unread_keywords(schema) == ["additionalProperties", "pattern", "enum"]


@pytest.mark.parametrize("path", sorted((REPO_ROOT / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_configs_load(path):
    # the configs/ files must follow the schema and build a grid, a trap, a
    # solver config and the trap field; no solve runs
    raw = fcli.load_config(str(path))
    grid = fcli.build_grid(raw)
    fcli.build_solver(raw, None)
    V = fermivar.potential_field(fcli.build_trap(raw), grid)
    assert V.grid == grid and np.isfinite(V.values).all()


def test_config_digest_ignores_output_dir_and_key_order():
    raw1 = dict(BASE_CONFIG, output_dir="/a")
    raw2 = dict(BASE_CONFIG, output_dir="/b")
    assert fcli.config_digest(raw1) == fcli.config_digest(raw2)
    reordered = dict(reversed(list(raw1.items())))
    assert fcli.config_digest(reordered) == fcli.config_digest(raw1)
    changed = json.loads(json.dumps(raw1))
    changed["grid"]["n"] = 17
    assert fcli.config_digest(changed) != fcli.config_digest(raw1)


def test_json_artifact_write_is_atomic(tmp_path):
    # astar.json, solve.json, meta.json and report.json share this writer
    from fermivar.asymptotics import write_json
    path = tmp_path / "artifact.json"
    write_json({"a": 1.0}, str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):  # fails after part of the JSON is written
        write_json({"a": 2.0, "b": object()}, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_report_write_is_atomic(tmp_path):
    # report.json is written by the same writer as the other artifacts
    from fermivar.asymptotics import write_json
    path = tmp_path / "report.json"
    write_json({"verdict": "pass"}, str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):  # fails after part of the JSON is written
        write_json({"a": 2.0, "b": object()}, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_solver_numbers_take_their_field_types(tmp_path):
    # the schema admits 5.0 as an integer; range() does not.  A former
    # seed is accepted as a whole number and dropped
    cp = write_config(tmp_path, patch={"solver": {
        "max_iters": 5.0, "seed": 3.0, "grad_tol": 1, "pin_fraction": 0.25}})
    cfg = fcli.build_solver(fcli.load_config(cp), None)
    assert type(cfg.max_iters) is int and cfg.max_iters == 5
    assert not hasattr(cfg, "seed")
    assert type(cfg.grad_tol) is float and cfg.grad_tol == 1.0
    assert type(cfg.pin_fraction) is float and cfg.pin_fraction == 0.25


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    import fermivar
    from conftest import REPO_ROOT
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert fermivar.__version__ == meta["project"]["version"]


def test_solver_schema_covers_all_config_fields():
    import dataclasses
    from fermivar.solvers import SolverConfig
    props = fcli._solver_schema()["properties"]
    # plus the former seed, which build_solver ignores
    assert set(props) == {f.name for f in dataclasses.fields(SolverConfig)} | {"seed"}


_COMMAND_ARGS = {"astar": [], "solve": ["--a", "5.0"], "sweep": []}


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
@pytest.mark.parametrize("wells", [
    [{"center": [0.0, 0.0, 0.0], "power": 2.0}, {"center": [0.0, 0.0, 0.0], "power": 4.0}],
    [{"center": [0.0, 0.0, 0.0], "power": float("inf")}],
], ids=["shared_center", "infinite_power"])
def test_invalid_trap_is_a_config_error(tmp_path, capsys, command, wells):
    # the schema passes both traps; the trap itself refuses them before any
    # command starts, astar included, which never builds the trap
    cp = write_config(tmp_path, patch={"trap.wells": wells, "sweep.a_fractions": [0.5]})
    rc, _, err = run([command, "--config", cp, *_COMMAND_ARGS[command]], capsys)
    assert rc == fcli.EXIT_CONFIG
    assert stderr_error(err)["message"].startswith("invalid trap: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
def test_invalid_solver_section_is_a_config_error(tmp_path, capsys, command):
    cp = write_config(tmp_path, patch={"solver.grad_tol": 0, "sweep.a_fractions": [0.5]})
    rc, _, err = run([command, "--config", cp, *_COMMAND_ARGS[command]], capsys)
    assert rc == fcli.EXIT_CONFIG
    assert stderr_error(err)["message"].startswith("invalid solver section: ")


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
@pytest.mark.parametrize("width", [float("nan"), float("inf"), -float("inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
def test_nonfinite_grid_width_is_a_config_error(tmp_path, capsys, command, width):
    # json reads the tokens NaN and Infinity; the schema reader turns NaN
    # away and the grid refuses an infinite width, before any command starts
    cp = write_config(tmp_path, patch={"grid.half_width": width, "sweep.a_fractions": [0.5]})
    assert json.dumps(width) in Path(cp).read_text()  # NaN, Infinity, -Infinity
    rc, _, err = run([command, "--config", cp, *_COMMAND_ARGS[command]], capsys)
    assert rc == fcli.EXIT_CONFIG
    e = stderr_error(err)
    assert e["kind"] == "config" and e["schema_pointer"].startswith("/grid")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# solve / sweep preconditions
# ---------------------------------------------------------------------------


def test_solve_requires_coupling(tmp_path, capsys):
    cp = write_config(tmp_path)
    rc, _, err = run(["solve", "--config", cp], capsys)
    assert rc == fcli.EXIT_CONFIG
    assert "requires --a" in stderr_error(err)["message"]


def test_solve_rejects_negative_coupling(tmp_path, capsys):
    # a coupling that is not a finite number is refused before any work; an
    # infinite one with --allow-supercritical used to reach the solver and
    # end in a traceback
    cp = write_config(tmp_path)
    for extra in (["-1.0"], ["inf", "--allow-supercritical"], ["nan"]):
        rc, _, err = run(["solve", "--config", cp, "--a", *extra], capsys)
        assert rc == fcli.EXIT_CONFIG
        e = stderr_error(err)
        assert e["kind"] == "config"
        assert "nonnegative coupling" in e["message"]


def test_solve_requires_stored_threshold(tmp_path, capsys):
    cp = write_config(tmp_path)
    rc, _, err = run(["solve", "--config", cp, "--a", "5.0"], capsys)
    assert rc == fcli.EXIT_CONFIG
    assert "run `fermivar astar` first" in stderr_error(err)["message"]


def test_solve_reports_its_eigensolve_iterations(tmp_path, capsys):
    # solve.json says what the closing level check cost, the only
    # eigensolve of a cold solve; it certifies within the guard minimum
    cp = write_config(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "astar.json").write_text(
        json.dumps({"a2_hat": 9.5, "grid": BASE_CONFIG["grid"]}))
    rc, _, _ = run(["solve", "--config", cp, "--a", "5.0"], capsys)
    assert rc == fcli.EXIT_OK
    doc = load_json(tmp_path / "out" / "solve.json")
    assert isinstance(doc["level_eig_iters"], int) and 1 <= doc["level_eig_iters"] <= 16
    # the sum-rule and virial residuals README promises: the sum rule holds
    # at a converged solve; the virial identity of the one-well trap does
    # not hold in a box this small, whose walls squeeze the pair (0.23 here)
    assert 0.0 <= doc["sum_rule_residual"] < 1e-6
    assert 0.0 < doc["virial_residual"] < 1.0


def test_solve_json_carries_every_solve_result_field(tmp_path, capsys):
    # the pair rides along as snapshots and the diagnostics are expanded;
    # every other field of the result is a key of its own
    cp = write_config(tmp_path)
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "astar.json").write_text(
        json.dumps({"a2_hat": 9.5, "grid": BASE_CONFIG["grid"]}))
    rc, _, _ = run(["solve", "--config", cp, "--a", "5.0"], capsys)
    assert rc == fcli.EXIT_OK
    doc = load_json(outdir / "solve.json")
    result = {f.name for f in fields(fermivar.SolveResult)} - {"pair", "diag"}
    assert result | {f.name for f in fields(fermivar.Diagnostics)} <= set(doc)
    assert (outdir / "solve_u1.snap").is_file() and (outdir / "solve_u2.snap").is_file()


def test_solve_starts_cold_on_a_two_fold_p_shell(tmp_path, capsys):
    # a planar four-well trap, whose p shell is (p_x, p_y): the cold start
    # skips the z axis, normal to that shell, and the solve converges
    grid = {"n": 16, "half_width": 2.5}
    wells = [{"center": c, "power": 2.0} for c in
             ([0.3, 0.0, 0.0], [-0.3, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, -0.3, 0.0])]
    cp = write_config(tmp_path, patch={"grid": grid, "trap.wells": wells})
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "astar.json").write_text(json.dumps({"a2_hat": 9.5, "grid": grid}))
    rc, _, _ = run(["solve", "--config", cp, "--a", "3.0"], capsys)
    assert rc == fcli.EXIT_OK
    doc = load_json(outdir / "solve.json")
    assert doc["converged"] is True and doc["stop_reason"] == "tolerance"


def _breach_config(tmp_path, **patch):
    # a stored a2_hat of 20 admits a = 14, far past the n = 16 lattice's
    # threshold: the energy dives through zero
    cp = write_config(tmp_path, patch=patch)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "astar.json").write_text(
        json.dumps({"a2_hat": 20.0, "grid": BASE_CONFIG["grid"]}))
    return cp, tmp_path / "out"


def test_solve_exits_on_a_threshold_breach(tmp_path, capsys):
    cp, outdir = _breach_config(tmp_path)
    rc, out, _ = run(["solve", "--config", cp, "--a", "14"], capsys)
    assert rc == fcli.EXIT_BREACH
    assert "threshold breach at a=14.0" in out
    doc = load_json(outdir / "solve.json")
    assert doc["threshold_breach"] is True and doc["converged"] is False
    assert doc["stop_reason"] == "breach"
    assert doc["residuals"] == [None, None]
    assert doc["eig_values"] == [] and doc["degeneracy_gap"] is None
    assert sorted(p.name for p in outdir.iterdir()) == ["astar.json", "solve.json"]


def test_sweep_aborted_at_its_first_point_is_partial(tmp_path, capsys):
    cp, outdir = _breach_config(tmp_path, **{"sweep.a_fractions": [0.7]})
    rc, _, err = run(["sweep", "--config", cp], capsys)
    assert rc == fcli.EXIT_PARTIAL
    e = stderr_error(err)
    assert e["kind"] == "partial"
    assert e["message"] == "sweep produced no records (aborted at index 0)"
    assert sorted(p.name for p in outdir.iterdir()) == ["astar.json"]


def test_sweep_requires_sweep_section(tmp_path, capsys):
    cp = write_config(tmp_path)
    rc, _, err = run(["sweep", "--config", cp], capsys)
    assert rc == fcli.EXIT_CONFIG
    assert "sweep section" in stderr_error(err)["message"]


def test_refit_only_requires_prior_sweep(tmp_path, capsys):
    cp = write_config(
        tmp_path, patch={"sweep": {"a_fractions": [0.5, 0.6]}})
    rc, _, err = run(["sweep", "--config", cp, "--refit-only"], capsys)
    assert rc == fcli.EXIT_CONFIG
    assert "--refit-only needs" in stderr_error(err)["message"]


def _sweep_with_stored_threshold(tmp_path, fractions):
    # n=28 harmonic under a stored a2_hat of 9.5: resolved, converged records
    # whose s+p density peaks on the p lobe, off the well centre, so every
    # rescale window about that peak reaches past the box
    grid = {"n": 28, "half_width": 2.2}
    cp = write_config(tmp_path, patch={"grid": grid, "sweep.a_fractions": fractions})
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "astar.json").write_text(json.dumps({"a2_hat": 9.5, "grid": grid}))
    return cp, outdir


def test_sweep_skips_an_extraction_outside_the_box(tmp_path, capsys):
    cp, outdir = _sweep_with_stored_threshold(tmp_path, [0.5, 0.55, 0.6, 0.65])
    with pytest.warns(PeakTieWarning):  # inversion-symmetric harmonic densities
        rc, _, err = run(["sweep", "--config", cp], capsys)
    assert rc == fcli.EXIT_PARTIAL
    e = stderr_error(err)
    assert e["kind"] == "partial"
    assert e["message"].count("profile extraction skipped: rescale window") == 5
    meta = load_json(outdir / "meta.json")
    assert len(meta["extracts"]) == 4
    for entry in meta["extracts"] + [meta["decay"]]:
        assert "source box ends at 2.2" in entry["skipped"]
    report = load_json(outdir / "report.json")
    assert report["n_usable"] == 4
    assert "profile" not in report and "decay" not in report
    rc, _, refit_err = run(["sweep", "--config", cp, "--refit-only"], capsys)
    assert rc == fcli.EXIT_PARTIAL
    assert stderr_error(refit_err) == e
    assert load_json(outdir / "report.json") == report


def test_sweep_without_a_report_is_partial(tmp_path, capsys):
    # two usable records are too few to fit: no report.json, no traceback
    cp, outdir = _sweep_with_stored_threshold(tmp_path, [0.5, 0.6])
    with pytest.warns(PeakTieWarning):  # inversion-symmetric harmonic densities
        rc, _, err = run(["sweep", "--config", cp], capsys)
    assert rc == fcli.EXIT_PARTIAL
    assert "report not built: need >= 4 usable records, got 2" in stderr_error(err)["message"]
    assert (outdir / "meta.json").exists() and not (outdir / "report.json").exists()
    rc, _, err = run(["sweep", "--config", cp, "--refit-only"], capsys)
    assert rc == fcli.EXIT_PARTIAL
    assert "report not built" in stderr_error(err)["message"]


def test_sweep_starts_cold_whatever_snapshots_are_stored(tmp_path, capsys):
    # stored astar_u*.snap do not seed the sweep: its first point starts
    # cold like `solve`, the next from the previous record; an x-axis s+p
    # pair stored there left the first record on the orientational saddle,
    # 3.3e-3 above the cold solve
    grid = {"n": 24, "half_width": 2.2}
    cp = write_config(tmp_path, patch={"grid": grid, "sweep.a_fractions": [0.5, 0.55]})
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "astar.json").write_text(json.dumps({"a2_hat": 9.5, "grid": grid}))
    g = fermivar.BoxGrid(24, 2.2)
    stored = fermivar.solvers.gaussian_pair(g, 0.35)
    fermivar.write_snapshot(stored.u1, str(outdir / "astar_u1.snap"))
    fermivar.write_snapshot(stored.u2, str(outdir / "astar_u2.snap"))
    with pytest.warns(PeakTieWarning):  # inversion-symmetric harmonic densities
        rc, _, _ = run(["sweep", "--config", cp], capsys)
    assert rc == fcli.EXIT_PARTIAL  # two records are too few for a report
    records = fermivar.read_sweep_csv(str(outdir / "records.csv"))
    trap = fcli.build_trap(load_json(Path(cp)))
    assert [r.a for r in records] == [0.5 * 9.5, 0.55 * 9.5]
    assert [r.stop_reason for r in records] == ["tolerance"] * 2
    for rec in records:
        assert rec.converged
        cold = fermivar.minimize_ground_state(rec.a, trap, g, fermivar.SolverConfig())
        assert rec.E == pytest.approx(cold.diag.energy, rel=1e-10)


# ---------------------------------------------------------------------------
# refit from stored artifacts (n=32 double well under a stored a2_hat)
# ---------------------------------------------------------------------------


DOUBLE_WELL_CONFIG = {
    **BASE_CONFIG,
    "grid": {"n": 32, "half_width": 2.5},
    "trap": {"wells": [{"center": [-0.8, 0.0, 0.0], "power": 2.0},
                       {"center": [0.8, 0.0, 0.0], "power": 4.0}]},
    "sweep": {"a_fractions": [0.3, 0.35, 0.4, 0.45]},
}


def _double_well_config(outdir, **patch):
    cfg = json.loads(json.dumps(DOUBLE_WELL_CONFIG))
    cfg.update(patch, output_dir=str(outdir))
    path = outdir.parent / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def double_well_sweep(tmp_path_factory):
    """One live sweep: four converged, resolved records far from a2_hat,
    four profile extracts and the decay extract; (rc, stderr, outdir)."""
    outdir = tmp_path_factory.mktemp("double_well") / "out"
    outdir.mkdir()
    (outdir / "astar.json").write_text(
        json.dumps({"a2_hat": 9.5, "grid": DOUBLE_WELL_CONFIG["grid"]}))
    cp = _double_well_config(outdir)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = fcli.main(["sweep", "--config", cp])
    return rc, err.getvalue(), outdir


def _copy_sweep(double_well_sweep, tmp_path):
    outdir = tmp_path / "out"
    shutil.copytree(double_well_sweep[2], outdir)
    return outdir


def test_sweep_records_a_skipped_decay_fit(double_well_sweep):
    # far from a2_hat the scaled multipliers are positive: the decay fit is
    # skipped, and the report carries every other verdict
    rc, err, outdir = double_well_sweep
    assert rc == fcli.EXIT_PARTIAL
    e = stderr_error(err)
    assert e["message"] == ("decay fit skipped: scaled multipliers must be "
                            "negative for decay fits; partial artifacts retained")
    report = load_json(outdir / "report.json")
    assert report["decay"] == {
        "skipped": "scaled multipliers must be negative for decay fits"}
    assert report["n_usable"] == 4 and len(report["profile"]["raw_masses"]) == 4
    # the window clips these profiles' tails: masses 1.87-1.89, not 2 +- 1e-4
    assert report["profile"]["mass_ok"] is False
    records = fermivar.read_sweep_csv(str(outdir / "records.csv"))
    assert [r.stop_reason for r in records] == ["tolerance"] * 4
    meta = load_json(outdir / "meta.json")
    assert set(meta) == {"format_version", "a_hat", "a_list", "widths",
                         "aborted_at", "extracts", "decay", "run"}
    assert all("skipped" not in m for m in meta["extracts"] + [meta["decay"]])


def test_refit_rebuilds_the_live_report_byte_for_byte(double_well_sweep,
                                                      tmp_path, capsys):
    outdir = _copy_sweep(double_well_sweep, tmp_path)
    live = {p.name: p.read_bytes() for p in outdir.iterdir()}
    (outdir / "report.json").unlink()
    rc, _, err = run(["sweep", "--config", _double_well_config(outdir),
                      "--refit-only"], capsys)
    # the refit exits as the live run did, with the same diagnostic
    assert rc == double_well_sweep[0] == fcli.EXIT_PARTIAL
    assert stderr_error(err) == stderr_error(double_well_sweep[1])
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == live


def test_refit_reports_an_incomplete_stored_sweep(double_well_sweep, tmp_path,
                                                  capsys):
    # the refit reads "sweep incomplete" from the stored aborted_at and
    # converged column, as the live run reports it from the sweep outcome
    outdir = _copy_sweep(double_well_sweep, tmp_path)
    cp = _double_well_config(outdir)
    meta = load_json(outdir / "meta.json")
    (outdir / "meta.json").write_text(json.dumps({**meta, "aborted_at": 4}))
    rc, _, err = run(["sweep", "--config", cp, "--refit-only"], capsys)
    assert rc == fcli.EXIT_PARTIAL
    assert stderr_error(err)["message"] == (
        "sweep incomplete (aborted_at=4); decay fit skipped: scaled multipliers "
        "must be negative for decay fits; partial artifacts retained")
    (outdir / "meta.json").write_text(json.dumps(meta))
    records = fermivar.read_sweep_csv(str(outdir / "records.csv"))
    fermivar.write_sweep_csv([replace(records[0], converged=False), *records[1:]],
                             str(outdir / "records.csv"))
    rc, _, err = run(["sweep", "--config", cp, "--refit-only"], capsys)
    assert rc == fcli.EXIT_PARTIAL
    assert stderr_error(err)["message"] == (
        "sweep incomplete (aborted_at=None); report not built: need >= 4 usable "
        "records, got 3; partial artifacts retained")


def _drop_extracts(outdir):
    meta = load_json(outdir / "meta.json")
    del meta["extracts"]
    (outdir / "meta.json").write_text(json.dumps(meta))


def _truncate(path, size):
    path.write_bytes(path.read_bytes()[:size])


@pytest.mark.parametrize("damage", [
    lambda d: (d / "records.csv").unlink(),
    lambda d: (d / "meta.json").write_text("{not json"),
    _drop_extracts,
    lambda d: (d / "extract_01_u2.snap").unlink(),
    lambda d: _truncate(d / "decay_u1.snap", 4096),
    lambda d: _truncate(d / "extract_03_u1.snap", 10),  # inside the header
    None,  # the config's trap changes instead
], ids=["records_missing", "meta_not_json", "meta_without_extracts",
        "snapshot_deleted", "snapshot_truncated", "snapshot_header_cut",
        "trap_changed"])
def test_refit_refuses_bad_artifacts(double_well_sweep, tmp_path, capsys, damage):
    outdir = _copy_sweep(double_well_sweep, tmp_path)
    report = (outdir / "report.json").read_bytes()
    patch = {}
    if damage is None:
        patch["trap"] = {"wells": [{"center": [-0.8, 0.0, 0.0], "power": 2.0},
                                   {"center": [0.8, 0.0, 0.0], "power": 3.0}]}
    else:
        damage(outdir)
    cp = _double_well_config(outdir, **patch)
    rc, _, err = run(["sweep", "--config", cp, "--refit-only"], capsys)
    assert rc == fcli.EXIT_CONFIG
    assert len(err.strip().splitlines()) == 1
    assert stderr_error(err)["kind"] == "config"
    assert (outdir / "report.json").read_bytes() == report


# ---------------------------------------------------------------------------
# solve guarded by a real stored threshold (cached small astar run)
# ---------------------------------------------------------------------------


def _clone_astar_dir(small_astar_run, tmp_path, **patch):
    outdir = tmp_path / "out"
    outdir.mkdir()
    for name in ("astar.json", "astar_u1.snap", "astar_u2.snap", "astar_rank1.snap"):
        shutil.copy(small_astar_run / name, outdir / name)
    cfg = json.loads(json.dumps(SMALL_ASTAR_CONFIG))
    cfg.update(patch, output_dir=str(outdir))
    cp = tmp_path / "config.json"
    cp.write_text(json.dumps(cfg))
    return str(cp), outdir


def test_solve_rejects_supercritical_without_flag(
        small_astar_run, tmp_path, capsys):
    cp, outdir = _clone_astar_dir(small_astar_run, tmp_path)
    a_hat = load_json(outdir / "astar.json")["a2_hat"]
    rc, _, err = run(
        ["solve", "--config", cp, "--a", repr(1.05 * a_hat)], capsys)
    assert rc == fcli.EXIT_CONFIG
    assert "--allow-supercritical" in stderr_error(err)["message"]


@pytest.mark.parametrize("argv", [["solve", "--a", "5.0"], ["sweep"]])
def test_threshold_of_another_grid_is_refused(small_astar_run, tmp_path, capsys, argv):
    # astar.json holds the n=48 threshold; an n=40 config must not use it
    cp, _ = _clone_astar_dir(small_astar_run, tmp_path,
                             grid={"n": 40, "half_width": 2.2},
                             sweep={"a_fractions": [0.5, 0.6]})
    rc, _, err = run([argv[0], "--config", cp, *argv[1:]], capsys)
    assert rc == fcli.EXIT_CONFIG
    e = stderr_error(err)
    assert e["kind"] == "config" and e["schema_pointer"] == "/grid"
    assert "'n': 48" in e["message"] and "'n': 40" in e["message"]


@pytest.mark.parametrize("stored", ["{not json", '{"a2_hat": 9.5}',
                                    '{"grid": {"n": 16, "half_width": 2.0}}'])
def test_malformed_stored_threshold_is_a_config_error(tmp_path, capsys, stored):
    cp = write_config(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "astar.json").write_text(stored)
    rc, _, err = run(["solve", "--config", cp, "--a", "5.0"], capsys)
    assert rc == fcli.EXIT_CONFIG
    assert "no stored threshold" in stderr_error(err)["message"]


def test_astar_artifacts_are_complete(small_astar_run):
    art = load_json(small_astar_run / "astar.json")
    for key in ("a2_hat", "a1_hat", "oracle_a1", "oracle_rel_dev_a1",
                "el_residuals", "multipliers_rank2", "multiplier_rank1",
                "ordering_ok", "separation_rel", "rank2_continuum_upper",
                "separation_rel_continuum", "grid", "config_digest"):
        assert key in art, key
    assert "seed" not in art  # astar draws no random numbers
    assert art["grid"] == {"n": 48, "half_width": 2.2}
    assert art["format_version"] == 1
    # the stored estimates live below the continuum thresholds
    assert 9.0 < art["a2_hat"] < art["oracle_a1"]
    assert 9.0 < art["a1_hat"] < art["oracle_a1"]
    assert art["oracle_a1"] == pytest.approx(9.578297, rel=1e-5)
    # the shooting behind the continuum numbers, and its virial residuals
    oracle = art["oracle"]
    assert oracle["w0"] == 4.1917233351192351
    assert oracle["a1_star"] == art["oracle_a1"]
    assert 4.0 <= oracle["match_radius"] < 25.0
    bis = oracle["bisections"]
    assert set(bis) == {"coarse", "secant", "checks", "fine", "coarse_bracket"}
    assert bis["coarse_bracket"] == "accepted"
    # the secant's bracket verified at once: no fine bisection step
    assert bis["coarse"] > 0 and bis["secant"] > 0
    assert bis["checks"] == 2 and bis["fine"] == 0
    assert set(oracle["residuals"]) == {"sum_identity", "kinetic_fraction",
                                        "mass_fraction"}
    assert all(0.0 <= v < 1e-10 for v in oracle["residuals"].values())


def test_astar_reports_stop_reasons_and_scan(small_astar_run):
    art = load_json(small_astar_run / "astar.json")
    reasons = {"tolerance", "stall", "line_search", "max_iters"}
    assert set(art["stop_reasons"]) == {"rank1", "rank2"}
    assert set(art["stop_reasons"].values()) <= reasons
    assert set(art["iterations"]) == {"rank1", "rank2"}
    assert all(1 <= i <= 250 for i in art["iterations"].values())
    scan, polish = art["rank2_scan"], art["rank2_polish"]
    assert scan, "the rank-2 scan logged no slice"
    for entry in scan + polish:
        assert set(entry) in ({"ratio", "q", "stop", "iterations"},
                              {"ratio", "rejected"}), entry
        assert entry["ratio"] > 0
        if "stop" in entry:
            assert entry["stop"] in reasons
            assert 1 <= entry["iterations"] <= 250
    # each ratio is scanned once, and some slice survived to be polished
    ratios = [e["ratio"] for e in scan]
    assert len(set(ratios)) == len(ratios)
    assert any("q" in e for e in scan)
    # the polish tries surviving slices until one passes; the last produced
    # the reported pair and its counts
    assert all("rejected" in e for e in polish[:-1])
    last = polish[-1]
    assert {e["ratio"] for e in polish} <= {e["ratio"] for e in scan if "q" in e}
    assert art["stop_reasons"]["rank2"] == last["stop"]
    assert art["iterations"]["rank2"] == last["iterations"]
    assert last["q"] == pytest.approx(art["a2_hat"], rel=1e-10)


def test_astar_reports_continuum_bound_quality(small_astar_run):
    art = load_json(small_astar_run / "astar.json")
    table = art["rank2_continuum_table"]
    assert [row["separation"] for row in table] == [2.0, 2.5, 3.0]
    best = min(table, key=lambda row: row["value"])
    assert best["value"] == art["rank2_continuum_upper"]
    assert best["separation"] == art["rank2_continuum_separation"]
    # quadrature error far below the gap the continuum ordering rests on
    err = art["rank2_continuum_quad_error"]
    assert 0.0 <= err < 1e-3 * art["separation_rel_continuum"] * art["oracle_a1"]
    assert art["ordering_continuum"] is True


def test_a_solver_seed_changes_no_artifact(tmp_path, capsys):
    # nothing draws random numbers: a solver.seed key, still accepted in a
    # config, changes no byte of the astar and solve artifacts, their config
    # digests included, and no subcommand takes --seed
    outputs = []
    for tag, solver in (("default", {}), ("seed7", {"seed": 7})):
        cfg = {**BASE_CONFIG, "grid": {"n": 32, "half_width": 2.2},
               "solver": {"pin_fraction": 0.4, "max_iters": 250, **solver},
               "output_dir": str(tmp_path / tag)}
        cp = tmp_path / f"{tag}.json"
        cp.write_text(json.dumps(cfg))
        rc, _, _ = run(["astar", "--config", str(cp)], capsys)
        assert rc == fcli.EXIT_OK
        rc, _, _ = run(["solve", "--config", str(cp), "--a", "5.0"], capsys)
        assert rc == fcli.EXIT_OK
        outdir = tmp_path / tag
        outputs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    assert set(outputs[0]) == {"astar.json", "astar_u1.snap", "astar_u2.snap",
                               "astar_rank1.snap", "solve.json", "solve_u1.snap",
                               "solve_u2.snap"}
    assert outputs[0] == outputs[1]
    assert b"seed" not in outputs[0]["solve.json"]
    for command in ("astar", "solve", "sweep"):
        with pytest.raises(SystemExit):
            fcli.main([command, "--config", str(cp), "--seed", "7"])
    capsys.readouterr()
