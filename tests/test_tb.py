"""Tests for thread blocks and SM resource accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SMConfig
from repro.kernels.spec import KernelSpec
from repro.sim.tb import SMResources, ThreadBlock
from repro.sim.warp import NEVER, Warp, WarpState


def small_spec(name="tb-test", threads=64, regs=16, smem=1024):
    return KernelSpec(name=name, threads_per_tb=threads,
                      regs_per_thread=regs, smem_per_tb_bytes=smem)


class TestSMResources:
    def test_admit_accumulates(self):
        resources = SMResources(SMConfig())
        spec = small_spec()
        resources.admit(spec)
        assert resources.threads == 64
        assert resources.tbs == 1
        assert resources.registers_bytes == spec.regs_per_tb_bytes
        assert resources.shared_memory_bytes == 1024

    def test_release_restores(self):
        resources = SMResources(SMConfig())
        spec = small_spec()
        resources.admit(spec)
        resources.release(spec)
        assert (resources.threads, resources.tbs,
                resources.registers_bytes,
                resources.shared_memory_bytes) == (0, 0, 0, 0)

    def test_admit_rejects_when_full(self):
        resources = SMResources(SMConfig(max_threads=64))
        spec = small_spec()
        resources.admit(spec)
        assert resources.can_admit(spec) is False
        with pytest.raises(RuntimeError):
            resources.admit(spec)

    def test_tb_slot_limit(self):
        resources = SMResources(SMConfig(max_tbs=2))
        spec = small_spec()
        resources.admit(spec)
        resources.admit(spec)
        assert resources.can_admit(spec) is False

    def test_release_underflow_detected(self):
        resources = SMResources(SMConfig())
        with pytest.raises(RuntimeError):
            resources.release(small_spec())

    def test_utilisation(self):
        config = SMConfig()
        resources = SMResources(config)
        spec = small_spec(threads=1024)
        resources.admit(spec)
        util = resources.utilisation()
        assert util["threads"] == pytest.approx(0.5)
        assert 0 < util["registers"] < 1
        assert util["tbs"] == pytest.approx(1 / 32)

    @given(st.lists(st.sampled_from(["admit", "release"]), max_size=60))
    @settings(max_examples=60)
    def test_never_negative_never_over(self, operations):
        """Property: any legal admit/release history keeps usage in range."""
        config = SMConfig(max_threads=256, max_tbs=4)
        resources = SMResources(config)
        spec = small_spec()
        admitted = 0
        for operation in operations:
            if operation == "admit" and resources.can_admit(spec):
                resources.admit(spec)
                admitted += 1
            elif operation == "release" and admitted:
                resources.release(spec)
                admitted -= 1
        assert 0 <= resources.threads <= config.max_threads
        assert 0 <= resources.tbs <= config.max_tbs
        assert 0 <= resources.registers_bytes <= config.registers_bytes


class TestThreadBlockBarrier:
    def _tb_with_warps(self, count):
        spec = small_spec()
        tb = ThreadBlock(0, 0, spec, 0)
        for warp_id in range(count):
            tb.warps.append(Warp(0, tb, warp_id, seed=warp_id + 1,
                                 start_cursor=0))
        return tb

    def test_not_released_until_all_arrive(self):
        tb = self._tb_with_warps(3)
        assert tb.arrive_barrier(tb.warps[0], cycle=10) is False
        assert tb.arrive_barrier(tb.warps[1], cycle=11) is False
        assert tb.warps[0].state == WarpState.AT_BARRIER
        assert tb.warps[0].ready_at == NEVER  # parked: never ready

    def test_last_arrival_releases_everyone(self):
        tb = self._tb_with_warps(3)
        tb.arrive_barrier(tb.warps[0], cycle=10)
        tb.arrive_barrier(tb.warps[1], cycle=11)
        assert tb.arrive_barrier(tb.warps[2], cycle=12) is True
        for warp in tb.warps:
            assert warp.state == WarpState.RUNNING
            assert warp.ready_at == 13
        assert tb.barrier_arrived == 0  # reset for the next barrier

    def test_barrier_reusable(self):
        tb = self._tb_with_warps(2)
        tb.arrive_barrier(tb.warps[0], 0)
        tb.arrive_barrier(tb.warps[1], 0)
        assert tb.arrive_barrier(tb.warps[0], 5) is False
        assert tb.arrive_barrier(tb.warps[1], 6) is True


class TestThreadBlockLifecycle:
    def test_finished(self):
        tb = ThreadBlock(0, 0, small_spec(), 0)
        tb.warps.extend(Warp(0, tb, i, 1, 0) for i in range(2))
        assert tb.finished is False
        tb.done_warps = 2
        assert tb.finished is True
        assert tb.live_warps == 0

    def test_freeze_marks_warps(self):
        tb = ThreadBlock(0, 0, small_spec(), 0)
        tb.warps.extend(Warp(0, tb, i, 1, 0) for i in range(3))
        tb.warps[0].set_state(WarpState.DONE)
        tb.freeze()
        assert tb.evicting is True
        assert tb.warps[0].state == WarpState.DONE  # done warps untouched
        assert tb.warps[1].state == WarpState.FROZEN
        assert tb.warps[2].state == WarpState.FROZEN
        assert all(warp.ready_at == NEVER for warp in tb.warps)
