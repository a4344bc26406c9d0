"""Outside-in span tracer for the fermivar package.

The tracer wraps named public functions and methods of ``fermivar.*``
modules without touching program code.  A function imported by name into
another module (``from .grid import inner``) is a second binding of the same
object, so every binding found in any loaded ``fermivar`` module namespace
is replaced; methods are replaced once on their class.  ``uninstall``
restores every original binding.

Each call records a span ``(id, name, start, end, parent id)`` in memory;
work counters derived from arguments or return values are accumulated at
the same boundary.  Nothing is installed unless a tracer is entered, so an
untraced run executes the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time


def _stencil_bytes(args, kwargs, result):
    # nominal traffic of one 7-point sweep: the field read once, the result
    # written once, 8 bytes per node (computed from the shape, not measured)
    a = args[0]
    size = getattr(a, "values", a).size
    return 16 * size


def _lobpcg_iters(args, kwargs, result):
    return result.iterations


def _scf_outer(args, kwargs, result):
    return result[1]


def _descent_iters(args, kwargs, result):
    # history holds one entry per descent iteration and one per SCF step
    return result.iters - result.scf_outer


# (module, attribute path, span name, optional (counter name, amount fn))
TARGETS = (
    ("grid", "inner", "grid.inner", None),
    ("grid", "integrate", "grid.integrate", None),
    ("grid", "kinetic_energy", "grid.kinetic_energy", None),
    ("grid", "laplacian_apply", "grid.laplacian_apply",
     ("grid.stencil.bytes_computed", _stencil_bytes)),
    ("grid", "neg_laplacian_core", "grid.neg_laplacian_core",
     ("grid.stencil.bytes_computed", _stencil_bytes)),
    ("grid", "resample_scaled", "grid.resample_scaled", None),
    ("grid", "dilate", "grid.dilate", None),
    ("grid", "write_snapshot", "grid.write_snapshot", None),
    ("frames", "loewdin", "frames.loewdin", None),
    ("frames", "retract", "frames.retract", None),
    ("frames", "project_tangent", "frames.project_tangent", None),
    ("model", "energy", "model.energy", None),
    ("model", "hamiltonian_apply", "model.hamiltonian_apply", None),
    ("model", "multipliers", "model.multipliers", None),
    ("solvers", "lowest_eigenpairs", "solvers.lowest_eigenpairs",
     ("solvers.lobpcg_iters", _lobpcg_iters)),
    ("solvers", "TensorPreconditioner.__init__",
     "solvers.TensorPreconditioner.build", None),
    ("solvers", "TensorPreconditioner.apply_core",
     "solvers.TensorPreconditioner.apply_core", None),
    ("solvers", "scf_refine", "solvers.scf_refine",
     ("solvers.scf_outer", _scf_outer)),
    ("solvers", "minimize_quotient_rank2", "solvers.minimize_quotient_rank2", None),
    ("solvers", "minimize_quotient_rank1", "solvers.minimize_quotient_rank1", None),
    ("solvers", "separated_pair_upper_bound",
     "solvers.separated_pair_upper_bound", None),
    ("solvers", "minimize_ground_state", "solvers.minimize_ground_state",
     ("solvers.descent_iters", _descent_iters)),
    ("solvers", "continuation_sweep", "solvers.continuation_sweep", None),
    ("radial", "shoot_soliton", "radial.shoot_soliton", None),
    ("radial", "gn_constants", "radial.gn_constants", None),
    ("asymptotics", "rescale_extract", "asymptotics.rescale_extract", None),
    ("cli", "main", "cli.main", None),
)

COUNTERS = tuple(sorted({t[3][0] for t in TARGETS if t[3] is not None}))


class Tracer:
    """Context manager that wraps ``targets`` for the duration of a block."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    # ----- wrapping --------------------------------------------------------

    def wrap(self, name, fn, counter=None):
        spans, stack, counts, ids = self.spans, self._stack, self.counts, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if counter is not None:
                key, amount = counter
                counts[key] = counts.get(key, 0) + amount(args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = fn
        return traced

    @staticmethod
    def _modules():
        return [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "fermivar" or k.startswith("fermivar."))
        ]

    def _bind(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for mod_name, path, span, counter in self.targets:
            owner = importlib.import_module(f"fermivar.{mod_name}")
            *prefix, attr = path.split(".")
            for part in prefix:
                owner = getattr(owner, part)
            if prefix:
                # a method: the class object is shared by every importer
                original = owner.__dict__[attr]
                self._bind(owner, attr, original, self.wrap(span, original, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span, original, counter)
            for mod in self._modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, name, original, wrapper)
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @property
    def bindings(self):
        """(owner, attribute) pairs currently replaced by a wrapper."""
        return [(owner, attr) for owner, attr, _ in self._patched]

    # ----- output ----------------------------------------------------------

    def write_spans(self, path):
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(f"{sid},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def summarize(spans):
    """Per-name calls, self time and total time from a span list.

    Self time is a span's duration minus the durations of its direct child
    spans (children of one call never overlap in this single-threaded
    program).  Total time sums only the outermost span of each name along an
    ancestor chain, so a recursive call is not counted twice.
    """
    name_of, parent_of, child_time = {}, {}, {}
    for sid, name, start, end, parent in spans:
        name_of[sid] = name
        parent_of[sid] = parent
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for sid, name, start, end, parent in spans:
        dur = end - start
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += dur - child_time.get(sid, 0.0)
        p = parent
        while p >= 0 and name_of.get(p) != name:
            p = parent_of.get(p, -1)
        if p < 0:
            row["total_s"] += dur
    return out


def wrapper_cost():
    """Seconds a wrapper adds to one call, measured on a trivial function."""
    calls = 20000

    def bare(x):
        return x

    wrapped = Tracer(targets=()).wrap("calibration", bare)
    best = []
    for fn in (bare, wrapped):
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for i in range(calls):
                fn(i)
            runs.append(time.perf_counter() - t0)
        best.append(min(runs))
    return max(best[1] - best[0], 0.0) / calls
