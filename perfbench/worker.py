"""One benchmark child process: a set-up probe or one workload repetition.

    python3 perfbench/worker.py setup --workload W --workdir DIR
    python3 perfbench/worker.py op --workload W --workdir DIR --out FILE
                                   [--order K] [--trace 0|1]

``setup`` imports the package from the checkout's ``src/``, loads the
workload's configs and potentials, prints ``ready`` and exits.  ``op`` does
the same set-up, runs one repetition (traced if asked), checks the outputs
after the clock and writes a JSON result to FILE.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS/OpenMP thread, set before numpy loads: the thread count changes
# the SCF path of the solves, not only their speed
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def import_program():
    """Import fermivar from this checkout's sources and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fermivar

    found = Path(fermivar.__file__).resolve().parent
    if found != src / "fermivar":
        raise SystemExit(f"fermivar imported from {found}, expected {src / 'fermivar'}")


def environment():
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "op"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out")
    ap.add_argument("--order", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.mode == "op" and not args.out:
        ap.error("op needs --out")

    import_program()
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    items = workloads.setup(args.workload, args.workdir)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0

    layer_values = None
    if args.trace:
        import layers
        from tracer import Tracer, summarize, wrapper_cost

        tracer = Tracer()
        with tracer:
            ops = workloads.execute(args.workload, items, args.order)
        tracer.write_spans(os.path.join(args.workdir, "spans.csv"))
        layer_values = layers.layer_values(
            summarize(tracer.spans), tracer.counts,
            wrapper_cost() * len(tracer.spans),
        )
    else:
        ops = workloads.execute(args.workload, items, args.order)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = workloads.check(args.workload, items, ops)
    counted, seconds, cpu_seconds = workloads.tally(ops)
    result = {
        "workload": args.workload,
        "workload_s": seconds,
        "workload_cpu_s": cpu_seconds,
        "peak_rss_mb": peak_rss_mb,
        "ops": [{"name": n, "ok": ok, "raised": raised}
                for n, ok, raised in counted],
        "failures": {op["name"]: op["failures"] for op in ops if op["failures"]}
        | {p["name"]: p["failures"] for op in ops for p in op.get("points", ())
           if p["failures"]},
        "op_seconds": {op["name"]: op["seconds"] for op in ops},
        "summary": summary,
        "env": environment(),
        "layers": layer_values,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
