"""End-to-end and per-layer benchmark of the simulator and its harnesses.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig6-fast --seed 0 --trace 0

``--trace 0`` measures cold passes of the workload, each in a fresh
interpreter, untraced, and prints the end-to-end metrics.  ``--trace 1``
runs one untraced reference pass in a fresh interpreter and one traced
pass in this process, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit, the engine core that ran, the
modelled outputs and the records digest.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXPECTED_PATH = ROOT / "perfbench" / "expected.json"
SPANS_DIR = ROOT / "perfbench" / "out"

WORKLOADS = ("fig6-fast", "paper-mem", "serve-poisson")

#: End-to-end metrics, all host-side and lower-is-better: name -> unit.
#: The ratios are host time in host units over the committed reference
#: cost of the same work (README.md, "Host time").
END_TO_END = {"setup_s": "s", "wall_ratio": "ratio", "case_ratio.p50": "ratio",
              "peak_rss_mb": "MB"}

#: Set-up is measured in this many fresh interpreters per run (median).
SETUP_PROBES = 5
#: Median :func:`perfbench.workloads.calibrate` time on the host that took
#: ``expected.json``'s reference costs (a shared 2-CPU cloud VM).  Set-up
#: time is reported in seconds at that host speed: raw set-up medians moved
#: by up to 26 % between batches of runs half an hour apart there, with the
#: host unit, while set-up over host unit moved by under 10 %.
REFERENCE_HOST_UNIT_S = 0.012
CHILD_TIMEOUT_S = 170


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measurement budget: cold passes are repeated "
                             "while the next one fits (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Child roles, started by this program itself.
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-pass", choices=("sampled", "plain"),
                        default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and refuse any other
    copy of the program."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import repro
    location = pathlib.Path(repro.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise ImportError(f"repro imported from {location}, not from this "
                          f"checkout's src/")


def median(values: List[float]) -> float:
    return statistics.median(values)


def system_clock() -> float:
    """A clock every process on the host shares (CLOCK_MONOTONIC)."""
    return time.monotonic()  # repro: noqa=DET001 -- benchmark set-up time


def start_child(args: argparse.Namespace, *role: str) -> subprocess.Popen:
    """Start this program in a fresh interpreter in a child ``role``."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed), *role]
    return subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def child_result(child: subprocess.Popen) -> dict:
    """Wait for ``child`` (killing it after the timeout) and return the
    JSON object it printed last."""
    with child:
        try:
            out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            child.kill()
            child.communicate()
            raise
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"child {' '.join(child.args[6:])} failed with "
                           f"exit {child.returncode}: {err[-2000:]}")
    return json.loads(lines[-1])


def run_child(args: argparse.Namespace, *role: str) -> dict:
    return child_result(start_child(args, *role))


# ------------------------------------------------------------------- set-up

def setup_probe(args: argparse.Namespace) -> int:
    """Child: build the workload and stop at its first simulated cycle;
    print the seconds since the parent started this interpreter, then this
    interpreter's host unit (see :func:`perfbench.workloads.calibrate`)."""
    from repro.sim import engine
    from perfbench.tracer import Patches
    from perfbench.workloads import (CALIBRATION_BYTES, calibrate, now,
                                     run_pass)

    class FirstCycle(Exception):
        pass

    seen = []

    def announce(fn):
        def run(sim, num_cycles):
            seen.append(system_clock() - args.setup_probe)
            raise FirstCycle()
        return run

    patches = Patches()
    patches.wrap(engine.GPUSimulator, "run", announce)
    run_pass(args.workload, args.seed, now, patches)
    if not seen:
        return 1
    buffer = bytearray(b"\x01") * CALIBRATION_BYTES
    units = []
    for _ in range(3):
        start = now()
        calibrate(buffer)
        units.append(now() - start)
    print(json.dumps({"setup_s": seen[0], "host_unit_s": median(units)}))
    return 0


def measure_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh interpreter on this workload to its
    first simulated cycle, scaled to the reference host's speed (the
    interpreter's own host unit against :data:`REFERENCE_HOST_UNIT_S`)."""
    probe = run_child(args, "--setup-probe", repr(system_clock()))
    return probe["setup_s"] / probe["host_unit_s"] * REFERENCE_HOST_UNIT_S


# ------------------------------------------------------------------ passes

def child_pass(args: argparse.Namespace, expected: dict) -> int:
    """Child: one cold, checked pass; prints its summary as JSON."""
    from perfbench.tracer import Patches
    from perfbench.workloads import (CALIBRATION_BYTES, CALIBRATION_INTERVAL_S,
                                     check_pass, host_units, now,
                                     op_host_units, records_digest,
                                     reference_hu, run_pass)

    sampled = args.child_pass == "sampled"
    outcome = run_pass(args.workload, args.seed, now, Patches(),
                       CALIBRATION_INTERVAL_S if sampled else None)
    failed = check_pass(args.workload, args.seed, outcome, expected)
    op_kind = "serve" if args.workload == "serve-poisson" else "case"
    summary = {
        "attempted": len(outcome.planned), "failed": failed,
        "problems": outcome.problems + ([outcome.error] if outcome.error
                                        else []),
        "wall_s": outcome.wall_s,
        "op_seconds": [op.seconds for op in outcome.ops
                       if op.kind == op_kind],
        "digest": records_digest(outcome.ops),
        "modelled": outcome.modelled,
        # ru_maxrss is in KiB on Linux; the calibration buffer is not the
        # program's memory.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        - (CALIBRATION_BYTES / 1024.0 if sampled else 0.0))
        / 1024.0,
    }
    if sampled and not failed:
        summary["host_unit_s"] = outcome.host_unit_s
        summary["wall_ratio"] = (
            host_units(outcome.span, outcome.samples)
            / sum(reference_hu(args.workload, op, expected)
                  for op in outcome.ops))
        summary["op_ratios"] = [
            op_host_units(op, outcome.samples)
            / reference_hu(args.workload, op, expected)
            for op in outcome.ops if op.kind == op_kind]
    print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------- reporting

def report(lines: Dict[str, object]) -> None:
    for key, value in lines.items():
        print(f"{key}: {value}")


def finish(attempted: int, failed: int, metrics: Dict[str, float],
           units: Dict[str, str], problems: List[str]) -> None:
    """Print every metric with its unit, the failed checks, and the result
    line last."""
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))


def engine_cores() -> Dict[str, str]:
    from repro.config import FAST_GPU, PAPER_GPU
    return {"fast": FAST_GPU.engine_core, "paper": PAPER_GPU.engine_core}


# ----------------------------------------------------------------- measured

def measured_run(args: argparse.Namespace) -> int:
    from repro.serve.metrics import percentile
    from perfbench.workloads import HELD_OUT_SEED, tail_fraction

    setup = [measure_setup(args) for _ in range(SETUP_PROBES)]
    passes: List[dict] = []
    durations: List[float] = []
    start = system_clock()
    while True:
        began = system_clock()
        passes.append(run_child(args, "--child-pass", "sampled"))
        durations.append(system_clock() - began)
        if (passes[-1]["failed"]
                or system_clock() - start + median(durations) > args.seconds):
            break

    failed = sum(p["failed"] for p in passes)
    problems = [problem for p in passes for problem in p["problems"]]
    op_seconds = sorted(s for p in passes for s in p["op_seconds"])
    measured = not failed
    metrics = {
        "setup_s": median(setup),
        "wall_ratio": (median([p["wall_ratio"] for p in passes])
                       if measured else 0.0),
        "case_ratio.p50": (median([r for p in passes for r in p["op_ratios"]])
                           if measured else 0.0),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    info: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed,
        "held-out seed for claims": HELD_OUT_SEED,
        "engine_core": engine_cores(),
        "passes": len(passes),
        "records_digest": passes[0]["digest"],
        "setup_samples_s (reference host speed)": setup,
        "wall_s": f"{median([p['wall_s'] for p in passes])!r} s",
        "host_unit_s": [p.get("host_unit_s") for p in passes],
        "wall_ratio per pass": [p.get("wall_ratio") for p in passes],
    }
    if op_seconds:
        info[f"case_s.p50 (n={len(op_seconds)})"] = \
            f"{median(op_seconds)!r} s"
        tail = tail_fraction(len(op_seconds))
        if tail is not None:
            info[f"case_s.tail (p{int(tail * 100)}, n={len(op_seconds)})"] = \
                f"{percentile(op_seconds, tail)!r} s"
    for name, value in sorted(passes[0]["modelled"].items()):
        info[f"modelled {name}"] = value
    report(info)
    finish(sum(p["attempted"] for p in passes), failed, metrics, END_TO_END,
           problems)
    return 0


# ------------------------------------------------------------------- traced

def traced_run(args: argparse.Namespace, expected: dict) -> int:
    from perfbench.layers import PER_LAYER, install, per_layer_metrics
    from perfbench.tracer import Patches, Tracer
    from perfbench.workloads import (MACHINES, check_pass, now,
                                     records_digest, run_pass)

    # The untraced reference pass runs at the same time in a child
    # interpreter (on the other CPU of a 2-CPU host), so both passes see
    # the same host and the run takes the traced pass's time, not the sum.
    child = start_child(args, "--child-pass", "plain")
    try:
        tracer = Tracer(now)
        patches = Patches()
        install(tracer, patches, [MACHINES[args.workload]])
        traced = run_pass(args.workload, args.seed, now, patches)
    finally:
        reference = child_result(child)
    failed = reference["failed"] + check_pass(args.workload, args.seed,
                                              traced, expected)
    problems = reference["problems"] + traced.problems + (
        [traced.error] if traced.error else [])
    digest = records_digest(traced.ops)
    if digest != reference["digest"]:
        problems.append("traced records differ from untraced records")
        failed = max(failed, len(traced.planned))

    metrics = per_layer_metrics(
        tracer, MACHINES[args.workload], len(traced.planned), traced.modelled,
        traced.wall_s / reference["wall_s"] if reference["wall_s"] else 0.0)
    if metrics["harness.cache_hits"]:
        problems.append("the traced pass reused records it did not simulate")

    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(
        {"fields": ["id", "parent", "name", "start_s", "end_s"],
         "spans": tracer.spans}))
    report({"workload": args.workload, "seed": args.seed,
            "engine_core": engine_cores(),
            "untraced wall_s": reference["wall_s"],
            "traced wall_s": traced.wall_s,
            "records_digest untraced": reference["digest"],
            "records_digest traced": digest,
            "spans written": str(spans_path.relative_to(ROOT))})
    finish(reference["attempted"] + len(traced.planned), failed, metrics,
           {name: unit for name, (unit, _) in PER_LAYER.items()}, problems)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        return setup_probe(args)
    expected = json.loads(EXPECTED_PATH.read_text())
    if args.child_pass:
        return child_pass(args, expected)
    if args.trace:
        return traced_run(args, expected)
    return measured_run(args)


if __name__ == "__main__":
    sys.exit(main())
