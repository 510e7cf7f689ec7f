"""Tests for the partial-context-switch preemption engine."""

from repro.config import PreemptionConfig
from repro.kernels.spec import KernelSpec
from repro.sim.preemption import PreemptionEngine
from repro.sim.tb import ThreadBlock
from repro.sim.warp import Warp, WarpState


def make_tb(smem=0, regs=16):
    spec = KernelSpec(name="preempt-test", threads_per_tb=64,
                      regs_per_thread=regs, smem_per_tb_bytes=smem)
    tb = ThreadBlock(0, 0, spec, 0)
    tb.warps.append(Warp(0, tb, 0, seed=1, start_cursor=0))
    return tb


class TestEvictionCost:
    def test_cost_includes_drain_and_store(self):
        config = PreemptionConfig(drain_cycles=100, bytes_per_cycle=256)
        engine = PreemptionEngine(config)
        tb = make_tb(smem=4096, regs=16)
        done = engine.begin_eviction(None, tb, cycle=1000)
        expected = 1000 + 100 + tb.spec.context_bytes // 256
        assert done == expected

    def test_disabled_preemption_completes_immediately(self):
        engine = PreemptionEngine(PreemptionConfig(enabled=False))
        tb = make_tb(smem=1 << 16)
        assert engine.begin_eviction(None, tb, cycle=42) == 42
        assert engine.stall_cycles == 0

    def test_freezes_tb(self):
        engine = PreemptionEngine(PreemptionConfig())
        tb = make_tb()
        engine.begin_eviction(None, tb, cycle=0)
        assert tb.evicting is True
        assert tb.warps[0].state == WarpState.FROZEN


class TestEventOrdering:
    def test_pop_completed_in_time_order(self):
        engine = PreemptionEngine(PreemptionConfig(drain_cycles=0,
                                                   bytes_per_cycle=64))
        small = make_tb(smem=0, regs=1)
        large = make_tb(smem=32 * 1024)
        engine.begin_eviction("sm-large", large, cycle=0)
        engine.begin_eviction("sm-small", small, cycle=0)
        done = list(engine.pop_completed(1 << 30))
        assert [sm for sm, _tb in done] == ["sm-small", "sm-large"]

    def test_pop_respects_cycle(self):
        engine = PreemptionEngine(PreemptionConfig(drain_cycles=100,
                                                   bytes_per_cycle=256))
        tb = make_tb()
        done_at = engine.begin_eviction("sm", tb, cycle=0)
        assert list(engine.pop_completed(done_at - 1)) == []
        assert engine.has_pending
        assert engine.next_completion == done_at
        assert list(engine.pop_completed(done_at)) == [("sm", tb)]
        assert not engine.has_pending
        assert engine.next_completion is None

    def test_counters(self):
        engine = PreemptionEngine(PreemptionConfig(drain_cycles=10,
                                                   bytes_per_cycle=1024))
        engine.begin_eviction("sm", make_tb(), cycle=0)
        engine.begin_eviction("sm", make_tb(), cycle=5)
        assert engine.evictions == 2
        assert engine.stall_cycles > 0


class TestResetWastedWork:
    """Context-reset eviction charges exactly the thread instructions the
    dropped TB's warps had retired, replayed slot by slot."""

    def test_wasted_work_equals_replayed_lanes(self):
        from repro.config import GPUConfig, SMConfig
        from repro.kernels.spec import InstructionMix, MemoryPattern
        from repro.sim import GPUSimulator, LaunchedKernel

        spec = KernelSpec(
            name="reset-divergent", threads_per_tb=128, regs_per_thread=16,
            mix=InstructionMix(alu=0.7, sfu=0.1, ldg=0.1, stg=0.0, lds=0.1,
                               barrier_per_iteration=True),
            memory=MemoryPattern(footprint_bytes=1 << 20),
            ilp=0.5, divergence=0.5, body_length=24, iterations_per_tb=50)
        gpu = GPUConfig(num_sms=1, num_mcs=1, epoch_length=500,
                        sm=SMConfig(warp_schedulers=2),
                        preemption=PreemptionConfig(mode="reset"))
        sim = GPUSimulator(gpu, [LaunchedKernel(spec)])
        sim.run(2000)
        sm = sim.sms[0]
        victim = sm.pick_eviction_victim(0)
        pattern = sim.runtimes[0].program.pattern
        replayed = [pattern[i % len(pattern)].active_lanes
                    for warp in victim.warps for i in range(warp.pc)]
        # Non-vacuous: the warps are mid-way through their second loop
        # body and replayed diverged slots, where a mean-lanes estimate
        # goes wrong.
        assert all(len(pattern) < warp.pc < 2 * len(pattern)
                   for warp in victim.warps)
        assert any(lanes < 32 for lanes in replayed)
        sim.preemption.begin_eviction(sm, victim, sim.cycle)
        assert sim.preemption.wasted_thread_insts == sum(replayed)
        assert sim.result().extra["wasted_thread_insts"] == sum(replayed)
