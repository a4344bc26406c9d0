"""Self-test of the benchmark harness; runs in a few seconds.

    python3 perfbench/selftest.py

Checks that the tracer wraps every binding of every target and restores
each one, that self time and the metric summary come out right on a canned
span and sample set, that the checks' own numerics agree with the
program's, and that ``BENCHMARK.json`` names exactly the metrics the
harness reports.  Exits 0 when every check holds.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import worker  # sets one BLAS thread before numpy loads

import numpy as np

HERE = Path(__file__).resolve().parent
FAILURES = []


def expect(cond, what):
    if not cond:
        FAILURES.append(what)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _bindings(tracer_mod):
    """Every (module, name) binding each target's original has right now."""
    import importlib

    mods = [m for k, m in sys.modules.items()
            if m is not None and (k == "fermivar" or k.startswith("fermivar."))]
    out = {}
    for mod_name, path, span, _ in tracer_mod.TARGETS:
        owner = importlib.import_module(f"fermivar.{mod_name}")
        *prefix, attr = path.split(".")
        for part in prefix:
            owner = getattr(owner, part)
        if prefix:
            out[span] = [(owner, attr, owner.__dict__[attr])]
            continue
        original = getattr(owner, attr)
        out[span] = [(m, k, v) for m in mods for k, v in vars(m).items()
                     if v is original]
    return out


def test_tracer_wraps_and_restores():
    import tracer as tr
    import fermivar.cli  # noqa: F401  (loads every module)
    from fermivar import frames, grid, solvers

    before = _bindings(tr)
    for span, binds in before.items():
        expect(binds, f"{span}: no binding found")
        for owner, attr, value in binds:
            expect(not hasattr(value, "__wrapped_by_tracer__"),
                   f"{span}: wrapped before any tracer was installed")
    # names imported into other modules are separate bindings of one object
    inner_owners = {getattr(o, "__name__", "") for o, _, _ in before["grid.inner"]}
    for mod in ("fermivar", "fermivar.grid", "fermivar.frames", "fermivar.solvers"):
        expect(mod in inner_owners, f"grid.inner not bound in {mod}")

    t = tr.Tracer()
    with t:
        for span, binds in before.items():
            for owner, attr, value in binds:
                now = getattr(owner, attr) if not isinstance(owner, type) \
                    else owner.__dict__[attr]
                expect(getattr(now, "__wrapped_by_tracer__", None) is value,
                       f"{span}: {getattr(owner, '__name__', owner)}.{attr} not wrapped")
        expect(len(t.bindings) == sum(len(b) for b in before.values()),
               "binding count differs from the bindings found")
        g = grid.BoxGrid(8, 1.0)
        f = grid.sample(g, lambda x, y, z: np.exp(-(x * x + y * y + z * z)),
                        clamp_boundary=True)
        frames.gram(f, f)  # three inner() calls through the frames namespace
        solvers.inner(f, f)
        solvers.lowest_eigenpairs(g.zeros(), g.zeros(), 0.0, 1, 1e-3)
    names = [s[1] for s in t.spans]
    expect(names.count("grid.inner") >= 4, "calls through other namespaces missed")
    expect(t.counts.get("solvers.lobpcg_iters", 0) > 0, "lobpcg counter not fed")
    lobpcg = [s for s in t.spans if s[1] == "solvers.lowest_eigenpairs"][0]
    children = [s for s in t.spans if s[4] == lobpcg[0]]
    expect(children and all(s[1].startswith("solvers.TensorPreconditioner")
                            or s[1] == "grid.neg_laplacian_core" for s in children),
           "child spans of lowest_eigenpairs not linked to it")
    after = _bindings(tr)
    for span, binds in before.items():
        now = {(id(o), a): v for o, a, v in after[span]}
        for owner, attr, value in binds:
            expect(now.get((id(owner), attr)) is value,
                   f"{span}: {attr} not restored")
    expect(not t.bindings, "tracer still holds bindings after exit")


def test_summary_on_canned_spans():
    from tracer import summarize

    spans = [  # (id, name, start, end, parent), in completion order
        (2, "leaf", 2.0, 3.0, 1),
        (1, "mid", 1.0, 5.0, 0),
        (3, "leaf", 6.0, 8.0, 0),
        (4, "outer", 8.5, 9.5, 0),  # recursive call inside outer
        (0, "outer", 0.0, 10.0, -1),
    ]
    s = summarize(spans)
    expect(s["outer"]["calls"] == 2, "outer calls")
    expect(close(s["outer"]["self_s"], (10 - 4 - 2 - 1) + 1), "outer self time")
    expect(close(s["outer"]["total_s"], 10.0), "recursive total counted twice")
    expect(close(s["mid"]["self_s"], 3.0) and close(s["mid"]["total_s"], 4.0), "mid")
    expect(s["leaf"]["calls"] == 2 and close(s["leaf"]["self_s"], 3.0), "leaf")

    import layers

    vals = layers.layer_values(
        {"frames.retract": {"calls": 30, "self_s": 1.0, "total_s": 2.0}},
        {"solvers.descent_iters": 20}, 0.5)
    expect(set(vals) == {n for n, _ in layers.METRICS}, "layer metric names")
    expect(close(vals["solvers.backtracks_per_iter"], 1.5), "backtracks ratio")
    expect(vals["grid.inner.calls"] == 0 and vals["solvers.lobpcg_iters"] == 0,
           "uncalled layers must read 0")


def test_metric_summary_on_canned_samples():
    import run

    def proc(seconds, ok, raised=False, rss=100.0):
        return {
            "workload_s": seconds, "workload_cpu_s": 0.9 * seconds,
            "peak_rss_mb": rss, "env": env,
            "ops": [{"name": "solve:a", "ok": ok, "raised": raised},
                    {"name": "solve:b", "ok": True, "raised": False}],
            "failures": {} if ok else {"solve:a": ["boom"]},
            "summary": {"solves": 2, "converged": 1, "residual_max": 1e-3},
            "layers": None,
        }

    env = {"python": "x", "numpy": "x", "scipy": "x", "blas": "x", "nproc": 1,
           "cpus_usable": 1, "threads": {}}
    procs = [proc(3.0, True), proc(1.0, False, raised=True, rss=120.0), proc(5.0, True)]
    with contextlib.redirect_stdout(io.StringIO()):
        res, workload_s = run.evaluate("groundstate", 7, 0, [0.9, 0.7, 0.8], procs, 3)
    m = res["metrics"]
    expect(res["attempted"] == 6 and res["failed"] == 1, "attempted/failed")
    expect(res["correct"], "a raised operation is a failure, not a wrong output")
    expect(close(m["setup_s"]["value"], 0.8), "setup median")
    expect(close(m["workload_s"]["value"], 3.0) and workload_s == 3.0,
           "workload median over processes with a successful operation")
    expect(close(m["peak_rss_mb"]["value"], 120.0), "peak rss is the maximum")
    expect(set(m) == set(run.E2E_UNITS), "end-to-end metric names")
    procs[2]["ops"][1]["ok"] = False  # a wrong output, not a crash
    with contextlib.redirect_stdout(io.StringIO()):
        res, _ = run.evaluate("groundstate", 7, 0, [0.9, 0.7, 0.8], procs, 3)
    expect(not res["correct"] and res["failed"] == 2, "failed check must clear correct")
    q1, med, q3 = run.quartiles([1.0, 2.0, 3.0, 4.0])
    expect((q1, med, q3) == (1.25, 2.5, 3.75), "quartiles")


def test_check_numerics_match_program():
    import workloads
    from fermivar.frames import loewdin
    from fermivar.grid import BoxGrid, integrate, norm, sample, ScalarField
    from fermivar.model import TrapPotential, Well, multipliers, potential_field

    g = BoxGrid(12, 2.0)
    f1 = sample(g, lambda x, y, z: np.exp(-(x * x + y * y + z * z)), clamp_boundary=True)
    f2 = sample(g, lambda x, y, z: (x + 0.3 * y) * np.exp(-(x * x + y * y + z * z)),
                clamp_boundary=True)
    pair = loewdin(f1, f2)
    V = potential_field(TrapPotential(wells=(Well((0.0, 0.0, 0.0), 2.0),)), g)
    a = 3.0
    (mu1, mu2), R, (hu1, hu2) = multipliers(pair, V, a)
    # residuals in the multiplier eigenbasis through the program's operators
    res = []
    for i, mu in enumerate((mu1, mu2)):
        hu = hu1.values * R[0, i] + hu2.values * R[1, i]
        u = pair.u1.values * R[0, i] + pair.u2.values * R[1, i]
        res.append(norm(ScalarField(g, hu - mu * u)))
    mine = workloads.el_residual(pair.u1.values, pair.u2.values, V.values, a, g.spacing)
    expect(close(mine, max(res), 1e-9), f"residual {mine} vs program {max(res)}")
    expect(workloads.pair_defect(pair.u1.values, pair.u2.values, g.spacing) < 1e-12,
           "defect of a Loewdin pair")
    # a window covering the whole box reduces to the trapezoid rule
    rho = pair.u1.values ** 2 + pair.u2.values ** 2
    whole = workloads.window_mass(pair.u1.values, pair.u2.values, g.half_width,
                                  (0.0, 0.0, 0.0), g.half_width)
    expect(close(whole, integrate(ScalarField(g, rho)), 1e-12), "whole-box window mass")


def test_benchmark_json_matches_harness():
    import layers
    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect([w["name"] for w in doc["workloads"]] == list(run.WORKLOADS), "workloads")
    expect({m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS,
           "end_to_end metrics")
    expect([(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.METRICS),
           "per_layer metrics")
    expect(all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25
               for m in doc["end_to_end"]), "bounds")


def main():
    worker.import_program()
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
    for what in FAILURES:
        print(f"FAIL {what}")
    print(f"selftest: {len(tests)} tests, {len(FAILURES)} failed checks")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
