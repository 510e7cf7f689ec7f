"""Regenerate ``perfbench/expected.json``: output digests and reference costs.

Run from the root of a checkout, on an otherwise idle host::

    python3 perfbench/regen_expected.py

Co-run workloads draw every seed's cases from a finite set, so all of them
are simulated here and each op's record digest is stored; the seed-0
digest of each workload is derived from those.  Serving streams are pinned
at seed 0 only.

Each op's reference cost is its host time in host units (see
:func:`perfbench.workloads.calibrate`), the mean of ``REPEATS`` sweeps;
serving costs are stored per generated request.  The benchmark reports host
time as a ratio to these costs, so a seed that picks heavier cases does not
read as slower.  Regenerate digests only for a change meant to alter
simulated results (and say so in CHANGES.md); regenerate costs only in a
change to the benchmark, never in one that claims a speed-up.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
REPEATS = 2
SERVE_SEEDS = (0, 1, 2)


def corun_sweep(runner, specs) -> dict:
    """op id -> (digest, host units) for one sampled sweep."""
    from perfbench.tracer import Patches
    from perfbench.workloads import (CALIBRATION_INTERVAL_S, OpLog, digest,
                                     now, op_host_units)

    log = OpLog(now, CALIBRATION_INTERVAL_S)
    patches = Patches()
    log.install(patches)
    try:
        runner.sweep(specs)
    finally:
        patches.restore()
    return {op.op_id: (digest(op.value()), op_host_units(op, log.samples))
            for op in log.ops}


def corun_table(workload: str, make_runner, specs) -> dict:
    from perfbench.workloads import PINNED_SEED, digest, planned_ops

    sweeps = [corun_sweep(make_runner(), specs) for _ in range(REPEATS)]
    ops = {}
    for op_id in sorted(sweeps[0]):
        digests = {sweep[op_id][0] for sweep in sweeps}
        if len(digests) != 1:
            raise SystemExit(f"{workload}: {op_id} is not deterministic")
        ops[op_id] = {"digest": digests.pop(),
                      "ref_hu": statistics.mean(sweep[op_id][1]
                                                for sweep in sweeps)}
    seed0 = digest([[op_id, ops[op_id]["digest"]]
                    for op_id in sorted(planned_ops(workload, PINNED_SEED))])
    return {"seed0": seed0, "ops": ops}


def serve_table() -> dict:
    from perfbench.tracer import Patches
    from perfbench.workloads import (CALIBRATION_INTERVAL_S, PINNED_SEED,
                                     now, op_host_units, records_digest,
                                     run_pass)

    units = requests = 0.0
    seed0 = None
    for seed in SERVE_SEEDS:
        for _ in range(REPEATS):
            outcome = run_pass("serve-poisson", seed, now, Patches(),
                               CALIBRATION_INTERVAL_S)
            if outcome.error or outcome.problems:
                raise SystemExit(f"serve-poisson seed {seed}: "
                                 f"{outcome.error or outcome.problems}")
            units += op_host_units(outcome.ops[0], outcome.samples)
            requests += outcome.ops[0].result.generated
            if seed == PINNED_SEED:
                seed0 = records_digest(outcome.ops)
    return {"seed0": seed0, "ref_hu_per_request": units / requests}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from repro.config import PAPER_GPU
    from repro.harness.experiments import ExperimentSuite
    from repro.harness.presets import FAST_PRESET
    from repro.harness.runner import CaseRunner
    from perfbench.workloads import (PAPER_MEM_CYCLES, PAPER_MEM_PAIRS,
                                     fig6_specs, paper_mem_specs)

    expected = {
        "fig6-fast": corun_table(
            "fig6-fast",
            lambda: ExperimentSuite(FAST_PRESET, workers=1, cache=None,
                                    expdb=None).runner(),
            fig6_specs(FAST_PRESET.pairs)),
        "paper-mem": corun_table(
            "paper-mem",
            lambda: CaseRunner(PAPER_GPU, PAPER_MEM_CYCLES, cache=None,
                               expdb=None),
            paper_mem_specs(PAPER_MEM_PAIRS)),
        "serve-poisson": serve_table(),
    }
    path = ROOT / "perfbench" / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
