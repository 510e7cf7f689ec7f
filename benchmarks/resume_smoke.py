"""Sweep interrupt/resume smoke: byte-identity of resumed experiments.

The experiment store's core promise is that a sweep interrupted at any
point and resumed later produces outcomes byte-identical to an
uninterrupted run, without re-running completed cases.  This script checks
that promise end to end on two tiny grids, one per kind of sweep:

* a figure-6-style co-run grid, resumed in-process:

  1. run the grid clean (fresh store, no case cache) and serialise every
     record to canonical JSON;
  2. run the same grid in a fresh store with a fault injected at ~50% of
     the cases (:attr:`CaseRunner.fault_after` — the crash seam the tests
     use), leaving the experiment half done;
  3. resume it with a brand-new runner against the same store, then
     byte-compare the full record set against step 1;

* a serving load grid, interrupted the same way and resumed through the
  command line (``python -m repro exp resume <id>``), which rebuilds the
  :class:`ServeRunner` from the stored grid; the resumed outcomes are read
  back from the case cache (a miss fails the check) and byte-compared
  against a clean sweep.

Exit status is 0 only if every resumed set matches its clean bytes exactly
and each resume left its experiment ``done``.  CI runs this as the
sweep-resume smoke step::

    PYTHONPATH=src python benchmarks/resume_smoke.py
    PYTHONPATH=src python benchmarks/resume_smoke.py --workers 2
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.config import FAST_GPU
from repro.harness.cache import CaseCache, record_to_dict
from repro.harness.expdb import DONE, ExperimentDB
from repro.harness.runner import (CaseRunner, CaseSpec, ParallelCaseRunner,
                                  SweepInterrupted)
from repro.serve.runner import ServeRunner, ServeSpec

CYCLES = 4_000

SPECS = [
    CaseSpec.pair("sgemm", "lbm", 0.5, "rollover"),
    CaseSpec.pair("mri-q", "spmv", 0.65, "rollover"),
    CaseSpec.pair("sgemm", "lbm", 0.8, "spart"),
    CaseSpec.pair("stencil", "histo", 0.5, "rollover"),
]

#: Three Poisson load points of a latency class and a background class.
SERVE_SPECS = [
    ServeSpec(process="poisson",
              params=(("mean_interarrival_cycles", load),),
              classes=(("rt", "mri-q", 8000, 1, 1.0),
                       ("bg", "sad", 16000, 1, 1.0)),
              seed=0, horizon_cycles=10_000)
    for load in (2500.0, 1500.0, 1000.0)
]


def dump(records) -> str:
    """Canonical bytes of a record list (sorted-keys JSON)."""
    return json.dumps([record_to_dict(record) for record in records],
                      sort_keys=True)


def dump_served(outcomes) -> str:
    """Canonical bytes of a serving-outcome list (sorted-keys JSON)."""
    return json.dumps([outcome.to_value() for outcome in outcomes],
                      sort_keys=True)


def fail(message: str) -> bool:
    print(f"FAIL: {message}", file=sys.stderr)
    return False


def interrupt(runner, specs) -> str:
    """Sweep ``specs`` with a fault at ~50%; return the experiment id (or
    an empty string when the fault did not fire)."""
    runner.fault_after = len(specs) // 2
    try:
        runner.sweep(specs)
    except SweepInterrupted:
        pass
    else:
        return ""
    experiment_id = runner.experiment_log[0][0]
    counts = runner.expdb.case_counts(experiment_id)
    print(f"[interrupted] {experiment_id}: "
          f"{counts.get(DONE, 0)}/{len(specs)} cases done at fault")
    return experiment_id


def corun_smoke(workers: int, tmp: Path) -> bool:
    clean_db = ExperimentDB(tmp / "clean.sqlite")
    clean = dump(CaseRunner(FAST_GPU, CYCLES, expdb=clean_db).sweep(SPECS))
    clean_db.close()
    print(f"[clean] {len(SPECS)} co-run cases swept")

    db = ExperimentDB(tmp / "resumable.sqlite")
    experiment_id = interrupt(
        ParallelCaseRunner(FAST_GPU, CYCLES, workers=workers, expdb=db),
        SPECS)
    if not experiment_id:
        return fail("fault injection did not interrupt the co-run sweep")
    resumed = dump(ParallelCaseRunner(FAST_GPU, CYCLES, workers=workers,
                                      expdb=db).sweep(SPECS))
    status = db.experiment(experiment_id)["status"]
    db.close()
    print(f"[resumed] experiment status: {status}")
    if status != DONE:
        return fail("resumed co-run experiment is not marked done")
    if resumed != clean:
        return fail("resumed records differ from the clean sweep")
    print(f"OK: co-run interrupt at {len(SPECS) // 2}/{len(SPECS)} + resume "
          "is byte-identical to the clean sweep")
    return True


def serve_smoke(workers: int, tmp: Path) -> bool:
    clean = dump_served(ServeRunner(FAST_GPU, workers=1).sweep(SERVE_SPECS))
    print(f"[clean] {len(SERVE_SPECS)} serving cases swept")

    db_path, cache_dir = tmp / "serve.sqlite", tmp / "serve-cache"
    db = ExperimentDB(db_path)
    experiment_id = interrupt(
        ServeRunner(FAST_GPU, cache=CaseCache(cache_dir), expdb=db,
                    workers=workers), SERVE_SPECS)
    if not experiment_id:
        return fail("fault injection did not interrupt the serving sweep")
    env = dict(os.environ, REPRO_EXPDB=str(db_path),
               REPRO_CACHE=str(cache_dir))
    command = [sys.executable, "-m", "repro", "exp", "resume", experiment_id,
               "--workers", str(workers)]
    if subprocess.run(command, env=env).returncode != 0:
        return fail(f"{' '.join(command[1:])} exited non-zero")
    status = db.experiment(experiment_id)["status"]
    db.close()
    print(f"[resumed] experiment status: {status}")
    if status != DONE:
        return fail("resumed serving experiment is not marked done")
    cache = CaseCache(cache_dir)
    reader = ServeRunner(FAST_GPU, cache=cache, workers=1)
    resumed = dump_served([reader.run_spec(spec) for spec in SERVE_SPECS])
    if cache.misses:
        return fail(f"{cache.misses} resumed serving case(s) missing from "
                    "the case cache")
    if resumed != clean:
        return fail("resumed serving outcomes differ from the clean sweep")
    print(f"OK: serving interrupt at {len(SERVE_SPECS) // 2}/"
          f"{len(SERVE_SPECS)} + 'exp resume' is byte-identical to the "
          "clean sweep")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1,
                        help="pool width for the interrupted/resumed runs "
                             "(1 = serial claim loop; default: 1)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        corun_ok = corun_smoke(args.workers, Path(tmp))
        serve_ok = serve_smoke(args.workers, Path(tmp))
    return 0 if corun_ok and serve_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
