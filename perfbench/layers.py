"""The program's layers, the boundaries that enter them, and their metrics.

A layer is a group of the program's modules; it is entered through the
public boundaries listed in :func:`install`.

=================  =========================================================
``harness``        ``ExperimentSuite.run``, ``CaseRunner.sweep``,
                   ``CaseRunner.run_case``, ``CaseRunner.isolated_ipc``
``serve``          ``ServeRunner.run_spec``, ``<ArrivalProcess>.generate``,
                   ``Dispatcher.serve``, ``class_summary``
``sim.engine``     ``GPUSimulator.run``, ``launch_at``, ``result``
``policy``         the ``SharingPolicy`` hooks of every policy class
``sim.sm``         ``SM.step`` (hot)
``sim.scheduler``  the configured scheduler class's ``select`` (hot)
``sim.memory``     ``MemorySubsystem.warp_access`` (hot; covers sim/cache.py)
``sim.warp``       ``Warp.global_lines`` (hot; address generation)
=================  =========================================================
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.config import GPUConfig
from repro.harness import experiments, runner as harness_runner
from repro.serve import arrivals, dispatcher
from repro.serve import metrics as serve_metrics
from repro.serve import runner as serve_runner
from repro.sim import engine, memory, policy, sm, warp
from repro.sim.scheduler import make_scheduler

from perfbench.tracer import Patches, Tracer

LAYERS = ("sim.scheduler", "sim.sm", "sim.engine", "sim.memory", "sim.warp",
          "policy", "harness", "serve")

POLICY_HOOKS = ("setup", "on_epoch_start", "on_quota_exhausted",
                "on_kernel_launched", "on_kernel_retired")

#: Per-layer metrics: name -> (unit, better).  Counts are exact and
#: machine-independent; ``*.self_s`` are host seconds.
PER_LAYER: Dict[str, tuple] = {
    "sim.scheduler.self_s": ("s", "lower"),
    "sim.scheduler.selects": ("count", "lower"),
    "sim.scheduler.hit_ratio": ("ratio", "higher"),
    "sim.sm.self_s": ("s", "lower"),
    "sim.sm.steps": ("count", "lower"),
    "sim.sm.issued": ("count", "higher"),
    "sim.sm.issue_ratio": ("ratio", "higher"),
    "sim.engine.self_s": ("s", "lower"),
    "sim.engine.runs": ("count", "lower"),
    "sim.engine.sim_cycles": ("cycles", "higher"),
    "sim.engine.step_ratio": ("ratio", "lower"),
    "sim.engine.launches": ("count", "higher"),
    "sim.memory.self_s": ("s", "lower"),
    "sim.memory.accesses": ("count", "lower"),
    "sim.memory.lines": ("count", "lower"),
    "sim.memory.l1_hit_rate": ("ratio", "higher"),
    "sim.memory.l2_hit_rate": ("ratio", "higher"),
    "sim.memory.dram_row_hit_rate": ("ratio", "higher"),
    "sim.memory.mshr_stalls": ("count", "lower"),
    "sim.warp.self_s": ("s", "lower"),
    "sim.warp.addr_calls": ("count", "lower"),
    "policy.self_s": ("s", "lower"),
    "policy.epochs": ("count", "lower"),
    "policy.quota_exhausted": ("count", "lower"),
    "policy.evictions": ("count", "lower"),
    "policy.qos_reach": ("ratio", "higher"),
    "policy.nonqos_stp": ("ratio", "higher"),
    "harness.self_s": ("s", "lower"),
    "harness.cases": ("count", "higher"),
    "harness.isolated_runs": ("count", "lower"),
    "harness.cache_hits": ("count", "lower"),
    "serve.self_s": ("s", "lower"),
    "serve.generate_s": ("s", "lower"),
    "serve.requests": ("count", "higher"),
    "serve.admitted": ("count", "higher"),
    "serve.completed": ("count", "higher"),
    "serve.segments": ("count", "lower"),
    "serve.slo_attainment": ("ratio", "higher"),
    "serve.latency_p50_cycles": ("cycles", "lower"),
    "serve.latency_tail_cycles": ("cycles", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}


def _classes(root: type) -> List[type]:
    """``root`` and every subclass loaded so far, in definition order."""
    found = [root]
    for cls in found:
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
    return found


def install(tracer: Tracer, patches: Patches,
            machines: Iterable[GPUConfig]) -> None:
    """Wrap every layer boundary; ``machines`` name the scheduler classes
    that will run (``select`` is wrapped on the configured class only)."""
    span = tracer.span
    hot = tracer.hot

    def case_done(counts, args, record, runs):
        if runs:
            counts["harness.cases"] += 1

    def isolated_done(counts, args, ipc, runs):
        if runs:
            counts["harness.isolated_runs"] += 1

    def run_done(counts, args, result, runs):
        sim, cycles = args[0], args[1]
        counts["sim.engine.sim_cycles"] += cycles
        counts["sim.engine.sm_cycles"] += cycles * len(sim.sms)

    def result_done(counts, args, result, runs):
        sim = args[0]
        for key, value in sim.memory.aggregate().items():
            counts["sim.memory." + key] += value
        counts["sim.memory.mshr_stalls"] += sum(
            stats.mshr_stalls for stats in sim.memory.kernel_stats)
        counts["policy.evictions"] += result.evictions

    def spec_done(counts, args, outcome, runs):
        if runs:
            counts["serve.simulated"] += 1
        counts["serve.requests"] += outcome.generated
        counts["serve.admitted"] += outcome.admitted
        counts["serve.completed"] += outcome.completed

    def serve_done(counts, args, result, runs):
        counts["serve.segments"] += runs

    def hook_done(counter):
        def done(counts, args, result, runs):
            if tracer.current_layer != "policy":
                counts[counter] += 1
        return done

    wrap = patches.wrap
    wrap(experiments.ExperimentSuite, "run",
         lambda fn: span("harness", "harness.suite_run", fn))
    wrap(harness_runner.CaseRunner, "sweep",
         lambda fn: span("harness", "harness.sweep", fn))
    wrap(harness_runner.CaseRunner, "run_case",
         lambda fn: span("harness", "harness.run_case", fn, case_done))
    wrap(harness_runner.CaseRunner, "isolated_ipc",
         lambda fn: span("harness", "harness.isolated_ipc", fn,
                         isolated_done))

    wrap(serve_runner.ServeRunner, "run_spec",
         lambda fn: span("serve", "serve.run_spec", fn, spec_done))
    for cls in _classes(arrivals.ArrivalProcess):
        if "generate" in vars(cls):
            wrap(cls, "generate",
                 lambda fn: span("serve", "serve.generate", fn))
    wrap(dispatcher.Dispatcher, "serve",
         lambda fn: span("serve", "serve.dispatch", fn, serve_done))
    wrap(serve_metrics, "class_summary",
         lambda fn: span("serve", "serve.class_summary", fn))

    wrap(engine.GPUSimulator, "run",
         lambda fn: span("sim.engine", "sim.engine.runs", fn, run_done))
    wrap(engine.GPUSimulator, "launch_at",
         lambda fn: span("sim.engine", "sim.engine.launches", fn))
    wrap(engine.GPUSimulator, "result",
         lambda fn: span("sim.engine", "sim.engine.result", fn, result_done))

    counters = {"on_epoch_start": "policy.epochs",
                "on_quota_exhausted": "policy.quota_exhausted"}
    for cls in _classes(policy.SharingPolicy):
        for hook in POLICY_HOOKS:
            if hook in vars(cls):
                after = (hook_done(counters[hook]) if hook in counters
                         else None)
                wrap(cls, hook, lambda fn, hook=hook, after=after: span(
                    "policy", "policy." + hook, fn, after))

    wrap(sm.SM, "step",
         lambda fn: hot("sim.sm", "sim.sm.steps", fn, "sim.sm.issued",
                        lambda args, issued: issued))
    schedulers = []
    for machine in machines:
        cls = type(make_scheduler(machine.scheduler_policy, None,
                                  machine.engine_core))
        if cls not in schedulers:
            schedulers.append(cls)
            wrap(cls, "select",
                 lambda fn: hot("sim.scheduler", "sim.scheduler.selects", fn))
    wrap(memory.MemorySubsystem, "warp_access",
         lambda fn: hot("sim.memory", "sim.memory.accesses", fn,
                        "sim.memory.lines", lambda args, _: len(args[3])))
    wrap(warp.Warp, "global_lines",
         lambda fn: hot("sim.warp", "sim.warp.addr_calls", fn))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, machine: GPUConfig, planned: int,
                      modelled: Dict[str, float],
                      overhead: float) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` for one traced pass.

    ``machine`` is the workload's GPU (its schedulers per SM), ``planned``
    the number of ops the pass had to simulate, ``modelled`` the pass's
    modelled outputs and ``overhead`` traced over untraced wall time.
    """
    counts = tracer.counters()
    self_s = tracer.self_seconds()
    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for name in ("sim.scheduler.selects", "sim.sm.steps", "sim.sm.issued",
                 "sim.engine.runs", "sim.engine.sim_cycles",
                 "sim.engine.launches", "sim.memory.accesses",
                 "sim.memory.lines", "sim.memory.mshr_stalls",
                 "sim.warp.addr_calls", "policy.epochs",
                 "policy.quota_exhausted", "policy.evictions",
                 "harness.cases", "harness.isolated_runs", "serve.requests",
                 "serve.admitted", "serve.completed", "serve.segments"):
        metrics[name] = counts[name]
    metrics["sim.scheduler.hit_ratio"] = _ratio(
        counts["sim.sm.issued"], counts["sim.scheduler.selects"])
    metrics["sim.sm.issue_ratio"] = _ratio(
        counts["sim.sm.issued"],
        counts["sim.sm.steps"] * machine.sm.warp_schedulers)
    metrics["sim.engine.step_ratio"] = _ratio(
        counts["sim.sm.steps"], counts["sim.engine.sm_cycles"])
    for level, hits, misses in (("l1", "l1_hits", "l1_misses"),
                                ("l2", "l2_hits", "l2_misses"),
                                ("dram_row", "dram_row_hits",
                                 "dram_row_misses")):
        metrics[f"sim.memory.{level}_hit_rate"] = _ratio(
            counts["sim.memory." + hits],
            counts["sim.memory." + hits] + counts["sim.memory." + misses])
    metrics["serve.generate_s"] = tracer.span_seconds("serve.generate")
    # Runners are cold, so every planned op must have been simulated here.
    metrics["harness.cache_hits"] = planned - (
        counts["harness.cases"] + counts["harness.isolated_runs"]
        + counts["serve.simulated"])
    for name in ("qos_reach", "nonqos_stp"):
        metrics["policy." + name] = modelled.get(name, 0.0)
    for name in ("slo_attainment", "latency_p50_cycles",
                 "latency_tail_cycles"):
        metrics["serve." + name] = modelled.get(name, 0.0)
    metrics["trace.overhead"] = overhead
    metrics["trace.spans"] = len(tracer.spans)
    return metrics
