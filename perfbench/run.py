"""fermivar benchmark: end-to-end and per-layer numbers of three workloads.

    python3 perfbench/run.py --workload {threshold,groundstate,continuation,all}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``fermivar`` from ``src/``.
A run takes ``SETUP_PROBES`` set-up probes, then repeats the workload until
another repetition would end past ``--seconds`` (at least one always runs).
A repetition is two copies of the workload side by side, one per core, each
a fresh process with one BLAS/OpenMP thread; timings are medians over the
copies, so a run yields two samples at no extra wall time.  On
``threshold`` the two same-seed ``astar`` copies must also write
byte-identical artifacts.  The host this was tuned on (a 2-core VM) drifts
in CPU speed by 15-30% over minutes, which sets the bounds.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
program's public functions are wrapped from outside (see ``tracer.py``) and
it reports the per-layer metrics of ``layers.py`` instead, plus the tracing
overhead against the last untraced run of the same workload and seed.
Human-readable tables come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--workload
all`` runs every workload (untraced and traced when ``--trace 1``).

``correct`` is false when any output the program returned failed a check;
``failed`` counts operations that raised or failed a check.  Timings count
successful operations only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("threshold", "groundstate", "continuation")
SETUP_PROBES = 3
COPIES = 2
RUN_LIMIT_S = 170.0  # a run must be over within 180 s
E2E_UNITS = {"setup_s": "s", "workload_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _worker(mode, workload, workdir, *extra):
    return [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
            "--workdir", str(workdir), *extra]


def _tail(path):
    try:
        return "".join(Path(path).read_text().splitlines(True)[-15:])
    except OSError:
        return ""


def probe_setup(workload, workdir):
    """Seconds from process start to ready, for one fresh process."""
    workdir.mkdir(parents=True, exist_ok=True)
    err_path = workdir / "setup.err"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(_worker("setup", workload, workdir),
                                stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up of {workload} failed:\n{_tail(err_path)}")
    return seconds


def repetition(workload, workdir, order, trace, deadline):
    """One repetition in fresh worker processes; returns their results."""
    procs = []
    try:
        for k in range(COPIES):
            d = workdir / f"proc{k}"
            d.mkdir(parents=True)
            err = open(d / "stderr.txt", "w")
            cmd = _worker("op", workload, d, "--out", str(d / "result.json"),
                          "--order", str(order), "--trace", str(trace))
            procs.append((subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                           stderr=err), d, err))
        for proc, _, _ in procs:
            try:
                proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{workload} repetition ran past the run limit") from None
    finally:
        for proc, _, err in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            err.close()
    results = []
    for proc, d, _ in procs:
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                             f"{_tail(d / 'stderr.txt')}")
        results.append(json.loads((d / "result.json").read_text()))
    if workload == "threshold":
        digests = [r["summary"].get("artifact_digest") for r in results]
        if None not in digests and digests[0] != digests[1]:
            for op in results[1]["ops"]:
                op["ok"], op["raised"] = False, False
            results[1]["failures"]["astar"] = ["artifacts differ between same-seed runs"]
    return results


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def run_workload(workload, seed, seconds, trace):
    workdir = OUT / f"{workload}-trace{trace}"  # the latest run of each kind
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup = [probe_setup(workload, workdir / f"setup{i}")
             for i in range(SETUP_PROBES)]
    procs = []
    t_start = time.perf_counter()
    rep = 0
    while True:
        t0 = time.perf_counter()
        procs += repetition(workload, workdir / f"rep{rep}", seed + rep, trace, deadline)
        rep += 1
        now, took = time.perf_counter(), time.perf_counter() - t0
        if now + took > min(t_start + seconds, deadline):
            break
    result, workload_s = evaluate(workload, seed, trace, setup, procs, rep)
    est = result["metrics"].get("trace.overhead_est_s", {}).get("value")
    report_overhead(workload, seed, trace, workload_s, est)
    return result


def evaluate(workload, seed, trace, setup, procs, reps):
    ops = [op for r in procs for op in r["ops"]]
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    correct = not any(not op["ok"] and not op["raised"] for op in ops)
    good = [r for r in procs if any(op["ok"] for op in r["ops"])]
    timed = [r["workload_s"] for r in good]
    if not timed:
        raise BenchError(f"every {workload} operation failed: "
                         + json.dumps([r["failures"] for r in procs]))
    samples = {
        "setup_s": setup,
        "workload_s": timed,
        "peak_rss_mb": [max(r["peak_rss_mb"] for r in procs)],
    }
    solves = sum(r["summary"]["solves"] for r in procs)
    residuals = [r["summary"]["residual_max"] for r in procs
                 if r["summary"]["residual_max"] is not None]

    print(f"== {workload}  seed={seed}  trace={trace}  repetitions={reps}  "
          f"processes={len(procs)}")
    env = procs[0]["env"]
    print("environment: python {python}, numpy {numpy}, scipy {scipy}, BLAS {blas}, "
          "nproc {nproc} (usable {cpus_usable}), threads {threads}".format(**env))
    rows = [
        ("setup_s", "s", setup),
        (f"{workload}_s", "s", timed),
        # wall minus CPU time: time off the CPU (I/O waits, time stolen by
        # the host), which this program should spend almost none of
        (f"{workload}_cpu_s", "s", [r["workload_cpu_s"] for r in good]),
        ("peak_rss_mb", "MB", samples["peak_rss_mb"]),
        ("failed_frac", "ratio", [failed / attempted]),
    ]
    if solves:
        rows += [("converged_frac", "ratio",
                  [sum(r["summary"]["converged"] for r in procs) / solves]),
                 ("residual_max", "L2", [max(residuals)] if residuals else [])]
    if workload == "threshold":
        devs = [r["summary"]["a1_oracle_rel_dev"] for r in procs
                if "a1_oracle_rel_dev" in r["summary"]]
        rows.append(("a1_oracle_rel_dev", "ratio", devs[:1]))
    print(f"{'metric':<22}{'median':>14}{'p25':>14}{'p75':>14}  {'unit':<6}{'n':>3}")
    for name, unit, xs in rows:
        if xs:
            q1, med, q3 = quartiles(xs)
            print(f"{name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}  {unit:<6}{len(xs):>3}")
    print(f"operations: {attempted} attempted, {failed} failed, correct={correct}")
    for r in procs:
        for name, why in sorted(r["failures"].items()):
            print(f"  failed {name}: {'; '.join(why)}")

    if trace:
        metrics = traced_metrics(procs)
    else:
        metrics = {k: {"value": statistics.median(v), "unit": E2E_UNITS[k]}
                   for k, v in samples.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, statistics.median(timed)


def traced_metrics(procs):
    """Per-layer metrics over the worker processes, and their table."""
    import layers

    # counts are identical across copies; times take the median
    values = {name: (statistics.median_low if unit in ("count", "bytes")
                     else statistics.median)([r["layers"][name] for r in procs])
              for name, unit in layers.METRICS}
    print(f"{'span':<42}{'calls':>9}{'self_s':>11}{'total_s':>11}  moves")
    for span in layers.SPANS:
        calls = values[f"{span}.calls"]
        if calls:
            print(f"{span:<42}{calls:>9}{values[span + '.self_s']:>11.4f}"
                  f"{values[span + '.total_s']:>11.4f}  {layers.MOVES[span]}")
    for name, unit in layers.METRICS[3 * len(layers.SPANS):]:
        print(f"{name:<42}{values[name]:>14.6g} {unit:<6} {layers.MOVES.get(name, '')}")
    return {name: {"value": values[name], "unit": unit} for name, unit in layers.METRICS}


def report_overhead(workload, seed, trace, workload_s, overhead_est):
    """Keep the untraced time; print traced minus untraced for a traced run."""
    last = OUT / f"last-{workload}-seed{seed}.json"
    if not trace:
        last.write_text(json.dumps({"workload_s": workload_s}))
    elif last.exists():
        untraced = json.loads(last.read_text())["workload_s"]
        print(f"tracing overhead: traced {workload_s:.4f} s - untraced {untraced:.4f} s"
              f" = {workload_s - untraced:+.4f} s (wrapper cost estimate "
              f"{overhead_est:.4f} s)")
    else:
        print(f"tracing overhead: wrapper cost estimate {overhead_est:.4f} s "
              "(no untraced run of this workload and seed to subtract)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fermivar" / "__init__.py").is_file():
        print(f"error: no fermivar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        else:
            parts = {}
            for w in WORKLOADS:
                for t in sorted({0, args.trace}):
                    key = f"{w}.traced" if t else w
                    parts[key] = run_workload(w, args.seed, args.seconds, t)
            result = {
                "correct": all(p["correct"] for p in parts.values()),
                "attempted": sum(p["attempted"] for p in parts.values()),
                "failed": sum(p["failed"] for p in parts.values()),
                "metrics": {f"{w}.{k}": v for w, p in parts.items()
                            for k, v in p["metrics"].items()},
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
