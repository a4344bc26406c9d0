"""Session fixtures: CLI runs are cached on disk and reused across sessions.

The coarse threshold run behind the CLI round-trip tests is cached.  Each
run is keyed by a digest of the package sources plus the exact run
configuration, so a cache entry can never serve stale results: editing any
source file or config invalidates the key.  Set FERMIVAR_TEST_CACHE to move
the cache root (default /tmp/fermivar_test_cache).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fermivar
from fermivar import cli as fcli

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = Path(fermivar.__file__).parent
CACHE_ROOT = Path(os.environ.get("FERMIVAR_TEST_CACHE", "/tmp/fermivar_test_cache"))


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC_DIR.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


SOURCE_DIGEST = _source_digest()


def _run_key(config: dict, steps_sig: str) -> str:
    blob = json.dumps(
        {"config": config, "steps": steps_sig, "sources": SOURCE_DIGEST},
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_cli_cached(config: dict, steps, tag: str) -> Path:
    """Run a sequence of CLI steps against one output dir, cached on disk.

    ``steps`` is a list of (name, argv_fn, expected_rc) where argv_fn maps
    (config_path, outdir) -> argv list.  Wall times per step land in
    timings.json.  Returns the output directory.
    """
    key = _run_key(config, ",".join(s[0] for s in steps))
    outdir = CACHE_ROOT / f"{tag}-{key}"
    marker = outdir / "DONE"
    if marker.exists():
        return outdir
    outdir.mkdir(parents=True, exist_ok=True)
    config = dict(config)
    config["output_dir"] = str(outdir)
    config_path = outdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    timings = {}
    for name, argv_fn, expected_rc in steps:
        argv = argv_fn(str(config_path), outdir)
        t0 = time.time()
        rc = fcli.main(argv)
        timings[name] = time.time() - t0
        if rc != expected_rc:
            raise RuntimeError(
                f"cached step {tag}/{name} exited {rc}, expected {expected_rc} "
                f"(argv={argv})"
            )
    (outdir / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    marker.write_text("ok\n")
    return outdir


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _astar_step():
    return ("astar", lambda cp, od: ["astar", "--config", cp], 0)


SMALL_ASTAR_CONFIG = {
    "format_version": 1,
    "grid": {"n": 48, "half_width": 2.2},
    "trap": {"wells": [{"center": [0.0, 0.0, 0.0], "power": 2.0}]},
    "solver": {"pin_fraction": 0.3, "max_iters": 250},
    "output_dir": "unused",
}


@pytest.fixture(scope="session")
def small_astar_run() -> Path:
    """Coarse-grid threshold run used by CLI round-trip and determinism tests."""
    return run_cli_cached(SMALL_ASTAR_CONFIG, [_astar_step()], "astar48")
