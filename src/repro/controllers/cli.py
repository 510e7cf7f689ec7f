"""``repro controllers bench|compare`` — the controller evaluation harness.

``compare`` sweeps every quota controller (the four paper schemes plus PID
and MPC) over the named co-run workloads
(:data:`repro.harness.presets.CONTROLLER_WORKLOADS`), scores each
telemetry stream (:mod:`repro.controllers.evaluate`) and prints — or
writes, with ``-o`` — the comparison table committed under
``benchmarks/results/controllers_compare.txt``.

``bench`` is the focused form: one controller (default ``pid``) against
the Rollover reference, with ``--quick`` shrinking scale for CI smoke.

Both ride the existing harness: cases fan out over
:class:`~repro.harness.runner.ParallelCaseRunner` and land in the
persistent case cache, so re-scoring after a table-format change
re-simulates nothing.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.controllers.evaluate import CaseScore, format_comparison, score_case
from repro.harness.presets import CONTROLLER_WORKLOADS, experiment_preset
from repro.harness.runner import CaseSpec

#: Grid order of the full comparison: paper schemes first, then the
#: ROADMAP controllers.
COMPARE_POLICIES = ("naive", "history", "elastic", "rollover", "pid", "mpc")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gpu-qos controllers",
        description="Evaluate SLO quota controllers (paper schemes, PID, "
                    "MPC) on shared workloads and score their telemetry")
    parser.add_argument("action", choices=("bench", "compare"),
                        help="'compare' sweeps every controller; 'bench' "
                             "scores one against the Rollover reference")
    parser.add_argument("--controller", default="pid",
                        choices=("pid", "mpc"),
                        help="controller under test for 'bench' "
                             "(default: pid)")
    parser.add_argument("--preset", default="fast",
                        choices=("fast", "paper", "smoke"),
                        help="experiment scale (default: fast)")
    parser.add_argument("--goal", type=float, default=0.6, metavar="FRAC",
                        help="QoS goal as a fraction of isolated IPC "
                             "(default: 0.6)")
    parser.add_argument("--workloads", type=int, default=None, metavar="N",
                        help="use only the first N named workloads")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width (default: REPRO_WORKERS "
                             "or cpu_count-1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the persistent case cache")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smoke preset, two workloads")
    parser.add_argument("-o", "--output", default=None,
                        help="also write the table to this file")
    return parser


def run_grid(policies: Sequence[str],
             workloads: Sequence[Tuple[str, Tuple[str, ...], int]],
             preset_name: str, goal: float,
             workers: Optional[int],
             use_cache: bool) -> Dict[str, List[CaseScore]]:
    """Sweep ``policies`` x ``workloads`` with telemetry on and score each
    case.  One flat sweep feeds the parallel runner, so independent cases
    fan out together; results come back in input order."""
    from repro.harness.cache import open_default_cache
    from repro.harness.runner import ParallelCaseRunner

    preset = experiment_preset(preset_name)
    cache = open_default_cache() if use_cache else None
    runner = ParallelCaseRunner(preset.gpu, preset.cycles, cache=cache,
                                workers=workers, telemetry=True)
    specs: List[Tuple[str, str, CaseSpec]] = []
    for policy in policies:
        for name, kernels, qos_count in workloads:
            spec = CaseSpec.trio(kernels, qos_count, goal, policy) \
                if len(kernels) > 2 else CaseSpec.pair(
                    kernels[0], kernels[1], goal, policy)
            specs.append((policy, name, spec))
    records = runner.sweep([spec for _policy, _name, spec in specs])
    scores: Dict[str, List[CaseScore]] = {policy: [] for policy in policies}
    for (policy, name, _spec), record in zip(specs, records):
        scores[policy].append(score_case(record, name))
    return scores


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    preset_name = args.preset
    workload_count = args.workloads
    if args.quick:
        preset_name = "smoke"
        workload_count = min(workload_count or 2, 2)
    workloads = CONTROLLER_WORKLOADS[:workload_count] \
        if workload_count else CONTROLLER_WORKLOADS
    if args.action == "compare":
        policies: Tuple[str, ...] = COMPARE_POLICIES
        title = (f"Controller comparison (preset {preset_name}, "
                 f"goal {args.goal:.2f} of isolated IPC, "
                 f"{len(workloads)} workloads)")
    else:
        policies = ("rollover", args.controller)
        title = (f"Controller bench: {args.controller} vs rollover "
                 f"(preset {preset_name}, goal {args.goal:.2f}, "
                 f"{len(workloads)} workloads)")
    scores = run_grid(policies, workloads, preset_name, args.goal,
                      args.workers, use_cache=not args.no_cache)
    table = format_comparison(scores, title)
    print(table)
    if args.output:
        with open(args.output, "w") as stream:
            stream.write(table + "\n")
        print(f"[wrote {args.output}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
