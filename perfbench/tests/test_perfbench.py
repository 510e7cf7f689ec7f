"""The benchmark's own checks: tracing arithmetic, metric contract, digests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from repro.config import FAST_GPU
from repro.harness.presets import FAST_PRESET
from repro.harness.runner import CaseRunner, CaseSpec
from repro.serve.runner import ServeRunner, ServeSpec
from repro.sim import engine, sm

from perfbench import layers, run, workloads
from perfbench.tracer import Patches, Tracer

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: The per-layer metrics the benchmark promises, as listed in its
#: interaction table (README.md).
INTERACTION_TABLE = (
    "sim.scheduler.self_s", "sim.scheduler.selects", "sim.scheduler.hit_ratio",
    "sim.sm.self_s", "sim.sm.steps", "sim.sm.issued", "sim.sm.issue_ratio",
    "sim.engine.self_s", "sim.engine.runs", "sim.engine.sim_cycles",
    "sim.engine.step_ratio", "sim.memory.self_s", "sim.memory.accesses",
    "sim.memory.lines", "sim.memory.l1_hit_rate", "sim.memory.l2_hit_rate",
    "sim.memory.dram_row_hit_rate", "sim.memory.mshr_stalls",
    "sim.warp.self_s", "sim.warp.addr_calls", "policy.self_s",
    "policy.epochs", "policy.quota_exhausted", "policy.evictions",
    "harness.self_s", "harness.cases", "harness.isolated_runs",
    "harness.cache_hits", "serve.self_s", "serve.generate_s",
    "serve.requests", "serve.admitted", "serve.completed", "serve.segments",
    "sim.engine.launches")

TINY_SERVE = ServeSpec(process="poisson",
                       params=(("mean_interarrival_cycles", 8000.0),),
                       classes=workloads.SERVE_CLASSES, seed=3,
                       horizon_cycles=60_000)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ------------------------------------------------------------------ tracer

def test_self_time_of_a_nested_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock)
    leaf = tracer.hot("leaf", "leaf.calls",
                      lambda: clock.advance(2.0) or 1, "leaf.sum",
                      lambda args, result: result)

    def mid_body():
        clock.advance(1.0)
        leaf()
        clock.advance(3.0)

    mid = tracer.span("mid", "mid.calls", mid_body)

    def outer_body():
        clock.advance(5.0)
        mid()
        leaf()
        clock.advance(1.0)

    outer = tracer.span("outer", "outer.calls", outer_body)
    outer()

    assert dict(tracer.self_seconds()) == {"outer": 6.0, "mid": 4.0,
                                           "leaf": 4.0}
    counts = tracer.counters()
    assert (counts["outer.calls"], counts["mid.calls"],
            counts["leaf.calls"], counts["leaf.sum"]) == (1, 1, 2, 2)
    by_name = {span[2]: span for span in tracer.spans}
    outer_span, mid_span = by_name["outer.calls"], by_name["mid.calls"]
    assert outer_span[1] == 0 and mid_span[1] == outer_span[0]
    assert outer_span[4] - outer_span[3] == 14.0
    assert mid_span[4] - mid_span[3] == 6.0
    # Self times add up to the outermost duration: nothing is lost or
    # counted twice.
    assert sum(tracer.self_seconds().values()) == 14.0


def test_a_raising_boundary_keeps_the_stack_balanced():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fail():
        clock.advance(1.0)
        raise ValueError("boom")

    failing = tracer.hot("leaf", "leaf.calls", fail)

    def body():
        with pytest.raises(ValueError):
            failing()
        clock.advance(2.0)

    tracer.span("outer", "outer.calls", body)()
    assert dict(tracer.self_seconds()) == {"outer": 2.0, "leaf": 1.0}
    assert tracer.current_layer == ""


def test_patches_restore_own_and_inherited_attributes():
    class Base:
        def hook(self):
            return "base"

    class Child(Base):
        pass

    patches = Patches()
    patches.wrap(Child, "hook", lambda fn: lambda self: "child+" + fn(self))
    patches.wrap(Base, "hook", lambda fn: lambda self: "wrapped")
    assert Child().hook() == "child+base" and Base().hook() == "wrapped"
    patches.restore()
    assert "hook" not in vars(Child) and Child().hook() == "base"

    before = (vars(sm.SM)["step"], vars(engine.GPUSimulator)["run"])
    layers.install(Tracer(), patches, [FAST_GPU])
    assert vars(sm.SM)["step"] is not before[0]
    patches.restore()
    assert (vars(sm.SM)["step"], vars(engine.GPUSimulator)["run"]) == before


def test_host_units_skip_samples_and_follow_the_local_unit():
    samples = [(2.0, 2.5), (5.0, 5.5)]
    assert workloads.host_units((0.0, 10.0), samples) == 18.0
    assert workloads.host_units((2.2, 5.2), samples) == 5.0
    # The stretch before a slow sample is counted in that sample's unit.
    drifting = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7.0, 9.0), (10.0, 12.0),
                (13.0, 15.0), (16.0, 18.0), (19.0, 21.0)]
    assert workloads.host_units((0.0, 1.0), drifting) == 1.0
    assert workloads.host_units((18.0, 19.0), drifting) == 0.5
    outer = workloads.Op("case", "case", None, 0.0, (0.0, 6.0), [(2.0, 3.0)])
    assert workloads.op_host_units(outer, drifting) == 2.0


# --------------------------------------------------------- metric contract

def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_units_and_limits():
    spec = _benchmark_json()
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for metric in end_to_end + per_layer:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in end_to_end)
    assert {m["name"]: m["unit"] for m in end_to_end} == run.END_TO_END
    assert ({m["name"]: (m["unit"], m["better"]) for m in per_layer}
            == layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.PASSES)


def test_every_interaction_table_metric_is_emitted():
    assert set(INTERACTION_TABLE) <= set(layers.PER_LAYER)
    tracer = Tracer()
    patches = Patches()
    layers.install(tracer, patches, [FAST_GPU])
    try:
        CaseRunner(FAST_GPU, 2000, cache=None).sweep(
            [CaseSpec.pair("cutcp", "histo", 0.5, "rollover")])
        ServeRunner(FAST_GPU, workers=1).run_spec(TINY_SERVE)
    finally:
        patches.restore()
    metrics = layers.per_layer_metrics(tracer, FAST_GPU, 4, {}, 1.5)
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["harness.cache_hits"] == 0
    for name in ("sim.scheduler.selects", "sim.sm.steps", "sim.sm.issued",
                 "sim.memory.accesses", "sim.warp.addr_calls",
                 "policy.epochs", "harness.cases", "harness.isolated_runs",
                 "serve.requests", "serve.segments", "sim.engine.launches"):
        assert metrics[name] > 0, name
    assert 0 < metrics["sim.engine.step_ratio"] <= 1
    assert metrics["sim.sm.issue_ratio"] == metrics["sim.scheduler.hit_ratio"]


# ----------------------------------------------------------------- digests

def _tiny_ops(patches: Patches):
    log = workloads.OpLog(workloads.now)
    log.install(patches)
    try:
        CaseRunner(FAST_GPU, 2000, cache=None).sweep(
            [CaseSpec.pair("mri-q", "lbm", 0.8, "rollover"),
             CaseSpec.pair("mri-q", "lbm", 0.8, "spart")])
        ServeRunner(FAST_GPU, workers=1).run_spec(TINY_SERVE)
    finally:
        patches.restore()
    return log.ops


def test_digests_repeat_in_process_and_tracing_is_free():
    first = workloads.records_digest(_tiny_ops(Patches()))
    assert workloads.records_digest(_tiny_ops(Patches())) == first
    tracer = Tracer()
    patches = Patches()
    layers.install(tracer, patches, [FAST_GPU])
    traced = _tiny_ops(patches)
    assert workloads.records_digest(traced) == first
    assert [op.kind for op in traced].count("isolated") == 2


def test_a_changed_record_is_a_failed_op():
    ops = _tiny_ops(Patches())
    planned = [op.op_id for op in ops]
    table = {"ops": {op.op_id: {"digest": workloads.digest(op.value())}
                     for op in ops}}
    good = workloads.PassResult(1.0, ops, planned)
    assert workloads.check_pass("w", 1, good, {"w": table}) == 0
    table["ops"][planned[0]]["digest"] = "0" * 64
    bad = workloads.PassResult(1.0, ops, planned)
    assert workloads.check_pass("w", 1, bad, {"w": table}) == 1
    assert "w: " + planned[0] in bad.problems[0]


# ------------------------------------------------------------------ inputs

def test_seed_zero_gives_the_documented_inputs():
    assert workloads.fig6_pairs(0) == FAST_PRESET.pairs[:4]
    assert workloads.paper_mem_pairs(0) == (("lbm", "spmv"), ("spmv", "histo"))
    assert workloads.serve_spec(0).seed == 0


def test_every_seed_draws_only_committed_cases():
    expected = json.loads(run.EXPECTED_PATH.read_text())
    for workload in ("fig6-fast", "paper-mem"):
        committed = set(expected[workload]["ops"])
        combinations = set()
        for seed in range(81):
            planned = workloads.planned_ops(workload, seed)
            assert set(planned) <= committed, (workload, seed)
            combinations.add(tuple(planned))
        assert len(combinations) == (81 if workload == "fig6-fast" else 6)


def test_tail_fraction_keeps_ten_samples_beyond():
    assert workloads.tail_fraction(64) == 0.75
    assert workloads.tail_fraction(250) == 0.95
    assert workloads.tail_fraction(19) is None
