"""Command line interface: config validation, error paths, artifacts."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fermivar
import fermivar.cli as fcli

from conftest import SMALL_ASTAR_CONFIG, load_json


BASE_CONFIG = {
    "format_version": 1,
    "grid": {"n": 16, "half_width": 2.0},
    "trap": {"wells": [{"center": [0.0, 0.0, 0.0], "power": 2.0}]},
    "output_dir": "out",
}


def write_config(tmp_path, patch=None, drop=None):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["output_dir"] = str(tmp_path / "out")
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


@pytest.mark.parametrize("patch,drop,pointer", [
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
])
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
    path = tmp_path / "artifact.json"
    fcli._dump_json({"a": 1.0}, str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):  # fails after part of the JSON is written
        fcli._dump_json({"a": 2.0, "b": object()}, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_report_write_is_atomic(tmp_path):
    from fermivar.asymptotics import write_report
    path = tmp_path / "report.json"
    write_report({"verdict": "pass"}, str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):  # fails after part of the JSON is written
        write_report({"a": 2.0, "b": object()}, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_solver_numbers_take_their_field_types(tmp_path):
    # the schema admits 5.0 as an integer; range() and SeedSequence do not
    cp = write_config(tmp_path, patch={"solver": {
        "max_iters": 5.0, "seed": 3.0, "scf_max_outer": 7, "grad_tol": 1,
        "scf_toggle": False}})
    cfg = fcli.build_solver(fcli.load_config(cp), None)
    assert type(cfg.max_iters) is int and cfg.max_iters == 5
    assert type(cfg.seed) is int and cfg.seed == 3
    assert type(cfg.scf_max_outer) is int
    assert type(cfg.grad_tol) is float and cfg.grad_tol == 1.0
    assert cfg.scf_toggle is False


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
    assert set(props) == {f.name for f in dataclasses.fields(SolverConfig)}


# ---------------------------------------------------------------------------
# solve / sweep preconditions
# ---------------------------------------------------------------------------


def test_solve_requires_coupling(tmp_path, capsys):
    cp = write_config(tmp_path)
    rc, _, err = run(["solve", "--config", cp], capsys)
    assert rc == fcli.EXIT_CONFIG
    assert "requires --a" in stderr_error(err)["message"]


def test_solve_rejects_negative_coupling(tmp_path, capsys):
    cp = write_config(tmp_path)
    rc, _, err = run(["solve", "--config", cp, "--a", "-1.0"], capsys)
    assert rc == fcli.EXIT_CONFIG
    e = stderr_error(err)
    assert e["kind"] == "config"
    assert "nonnegative coupling" in e["message"]


def test_solve_requires_stored_threshold(tmp_path, capsys):
    cp = write_config(tmp_path)
    rc, _, err = run(["solve", "--config", cp, "--a", "5.0"], capsys)
    assert rc == fcli.EXIT_CONFIG
    assert "run `fermivar astar` first" in stderr_error(err)["message"]


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


# ---------------------------------------------------------------------------
# solve guarded by a real stored threshold (cached small astar run)
# ---------------------------------------------------------------------------


def _clone_astar_dir(small_astar_run, tmp_path):
    outdir = tmp_path / "out"
    outdir.mkdir()
    for name in ("astar.json", "astar_state.json", "astar_u1.snap",
                 "astar_u2.snap", "astar_rank1.snap"):
        shutil.copy(small_astar_run / name, outdir / name)
    cfg = json.loads(json.dumps(SMALL_ASTAR_CONFIG))
    cfg["output_dir"] = str(outdir)
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


def test_astar_artifacts_are_complete(small_astar_run):
    art = load_json(small_astar_run / "astar.json")
    for key in ("a2_hat", "a1_hat", "oracle_a1", "oracle_rel_dev_a1",
                "el_residuals", "multipliers_rank2", "multiplier_rank1",
                "ordering_ok", "separation_rel", "rank2_continuum_upper",
                "separation_rel_continuum", "grid", "seed", "config_digest"):
        assert key in art, key
    assert art["grid"] == {"n": 48, "half_width": 2.2}
    assert art["format_version"] == 1
    # the stored estimates live below the continuum thresholds
    assert 9.0 < art["a2_hat"] < art["oracle_a1"]
    assert 9.0 < art["a1_hat"] < art["oracle_a1"]
    assert art["oracle_a1"] == pytest.approx(9.578297, rel=1e-5)
    state = load_json(small_astar_run / "astar_state.json")
    assert state["config_digest"] == art["config_digest"]


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
