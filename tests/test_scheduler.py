"""Tests for the GTO / LRR warp schedulers and the quota (EWS) filter."""

import pytest

from repro.config import ENGINE_CORES
from repro.kernels.spec import KernelSpec
from repro.sim.scheduler import GTOScheduler, LRRScheduler, make_scheduler
from repro.sim.tb import ThreadBlock
from repro.sim.warp import NEVER, Warp, WarpState


def make_warp(kernel_idx=0, ready_at=0):
    tb = ThreadBlock(0, kernel_idx, KernelSpec(name="sched-test"), 0)
    warp = Warp(kernel_idx, tb, 0, seed=1, start_cursor=0)
    warp.ready_at = ready_at
    return warp


ALL_OK = [True, True, True]


class TestGTOSelection:
    def test_empty_returns_none(self):
        assert GTOScheduler().select(0, ALL_OK) is None

    def test_oldest_ready_first(self):
        scheduler = GTOScheduler()
        old, young = make_warp(), make_warp()
        scheduler.add_warp(old)
        scheduler.add_warp(young)
        assert scheduler.select(0, ALL_OK) is old

    def test_greedy_sticks_to_last_warp(self):
        scheduler = GTOScheduler()
        first, second = make_warp(), make_warp()
        scheduler.add_warp(first)
        scheduler.add_warp(second)
        assert scheduler.select(0, ALL_OK) is first
        assert scheduler.select(1, ALL_OK) is first  # greedy

    def test_falls_back_to_oldest_when_last_stalls(self):
        scheduler = GTOScheduler()
        first, second = make_warp(), make_warp()
        scheduler.add_warp(first)
        scheduler.add_warp(second)
        scheduler.select(0, ALL_OK)
        first.ready_at = 100  # stall the greedy warp
        assert scheduler.select(1, ALL_OK) is second

    def test_skips_non_running_states(self):
        scheduler = GTOScheduler()
        barrier, ready = make_warp(), make_warp()
        barrier.set_state(WarpState.AT_BARRIER)
        scheduler.add_warp(barrier)
        scheduler.add_warp(ready)
        assert scheduler.select(0, ALL_OK) is ready

    def test_skips_future_ready(self):
        scheduler = GTOScheduler()
        warp = make_warp(ready_at=10)
        scheduler.add_warp(warp)
        assert scheduler.select(5, ALL_OK) is None
        assert scheduler.select(10, ALL_OK) is warp


class TestQuotaFilter:
    def test_throttled_kernel_invisible(self):
        scheduler = GTOScheduler()
        throttled = make_warp(kernel_idx=0)
        allowed = make_warp(kernel_idx=1)
        scheduler.add_warp(throttled)
        scheduler.add_warp(allowed)
        assert scheduler.select(0, [False, True, True]) is allowed

    def test_greedy_warp_respects_quota(self):
        scheduler = GTOScheduler()
        warp = make_warp(kernel_idx=0)
        scheduler.add_warp(warp)
        assert scheduler.select(0, ALL_OK) is warp
        assert scheduler.select(1, [False, True, True]) is None

    def test_all_throttled_returns_none(self):
        scheduler = GTOScheduler()
        scheduler.add_warp(make_warp(kernel_idx=0))
        assert scheduler.select(0, [False, True, True]) is None


class TestSleepUntil:
    def test_failed_scan_sets_wakeup(self):
        scheduler = GTOScheduler()
        scheduler.add_warp(make_warp(ready_at=50))
        scheduler.add_warp(make_warp(ready_at=30))
        assert scheduler.select(0, ALL_OK) is None
        assert scheduler.sleep_until == 30

    def test_sleeping_scheduler_skips_scan(self):
        scheduler = GTOScheduler()
        warp = make_warp(ready_at=30)
        scheduler.add_warp(warp)
        scheduler.select(0, ALL_OK)
        # Selection before the cached wake-up returns immediately.
        assert scheduler.select(10, ALL_OK) is None
        assert scheduler.select(30, ALL_OK) is warp

    def test_add_warp_wakes(self):
        scheduler = GTOScheduler()
        scheduler.add_warp(make_warp(ready_at=100))
        scheduler.select(0, ALL_OK)
        assert scheduler.sleep_until == 100
        ready = make_warp(ready_at=0)
        scheduler.add_warp(ready)
        assert scheduler.select(1, ALL_OK) is ready

    def test_throttled_warps_excluded_from_wakeup(self):
        scheduler = GTOScheduler()
        scheduler.add_warp(make_warp(kernel_idx=0, ready_at=10))
        scheduler.add_warp(make_warp(kernel_idx=1, ready_at=99))
        scheduler.select(0, [False, True, True])
        assert scheduler.sleep_until == 99


class TestRemoveWarp:
    def test_removed_warp_never_selected(self):
        scheduler = GTOScheduler()
        warp = make_warp()
        scheduler.add_warp(warp)
        scheduler.select(0, ALL_OK)
        scheduler.remove_warp(warp)
        assert scheduler.select(1, ALL_OK) is None
        assert scheduler.last is None


class TestLRR:
    def test_rotates_between_ready_warps(self):
        scheduler = LRRScheduler()
        warps = [make_warp() for _ in range(3)]
        for warp in warps:
            scheduler.add_warp(warp)
        picks = [scheduler.select(cycle, ALL_OK) for cycle in range(3)]
        assert set(picks) == set(warps)

    def test_empty(self):
        assert LRRScheduler().select(0, ALL_OK) is None

    def test_skips_stalled(self):
        scheduler = LRRScheduler()
        stalled = make_warp(ready_at=100)
        ready = make_warp()
        scheduler.add_warp(stalled)
        scheduler.add_warp(ready)
        assert scheduler.select(0, ALL_OK) is ready


class TestFactory:
    def test_gto(self):
        assert isinstance(make_scheduler("gto"), GTOScheduler)

    def test_lrr(self):
        assert isinstance(make_scheduler("lrr"), LRRScheduler)

    def test_scan_core(self):
        # One selection implementation serves every engine core.
        for core in ENGINE_CORES:
            assert type(make_scheduler("gto", None, core)) is GTOScheduler
            assert type(make_scheduler("lrr", None, core)) is LRRScheduler

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("random")

    def test_unknown_core(self):
        with pytest.raises(ValueError):
            make_scheduler("gto", core="magic")

    def test_retired_batch_core(self):
        with pytest.raises(ValueError):
            make_scheduler("gto", None, "batch")


class TestBackReference:
    def test_add_sets_owner_and_remove_clears_it(self):
        scheduler = GTOScheduler()
        warp = make_warp()
        scheduler.add_warp(warp)
        assert warp.sched is scheduler
        scheduler.remove_warp(warp)
        assert warp.sched is None


class TestScanEquivalence:
    """The scan selection against a brute-force reference under a long
    seeded stimulus: issue-driven stalls of every length, quota throttling
    and refresh, warp retirement and warp removal.  The reference picks the
    greedy ``last`` warp when it is running, ready and quota-eligible, else
    the oldest such warp (LRR: the smallest rotation offset); when nothing
    is eligible the scheduler must sleep until exactly the earliest
    eligible ``ready_at``."""

    @staticmethod
    def _reference(policy, hosted, last, next_index, cycle, quota):
        """(pick, wake) computed from scratch over ``hosted`` (dispatch
        order); ``wake`` is the earliest eligible ``ready_at``."""
        eligible = [w for w in hosted
                    if w.state == WarpState.RUNNING and quota[w.kernel_idx]]
        ready = [w for w in eligible if w.ready_at <= cycle]
        wake = min((w.ready_at for w in eligible), default=NEVER)
        if not ready:
            return None, wake
        if policy == "gto":
            return (last if last in ready else ready[0]), wake
        start = next_index % len(hosted)
        return min(ready, key=lambda w: (hosted.index(w) - start)
                   % len(hosted)), wake

    def _lockstep(self, policy, cycles=600, num_warps=12, seed=7):
        scheduler = make_scheduler(policy)
        hosted = []
        for i in range(num_warps):
            warp = make_warp(kernel_idx=i % 3)
            scheduler.add_warp(warp)
            hosted.append(warp)
        quota = [True, True, True]
        last = None
        next_index = 0
        picks = sleeps = 0
        state = seed
        for cycle in range(cycles):
            state = (state * 1103515245 + 12345) % (1 << 31)
            if state % 71 == 0:  # flip a kernel's quota eligibility
                kernel = state % 3
                quota[kernel] = not quota[kernel]
                if quota[kernel]:  # a refresh wakes (SM.set_quota does)
                    scheduler.wake()
            if state % 233 == 0 and len(hosted) > 4:  # evict a warp
                victim = hosted.pop(state % len(hosted))
                scheduler.remove_warp(victim)
                if last is victim:
                    last = None
            expected, wake = self._reference(policy, hosted, last,
                                             next_index, cycle, quota)
            asleep = cycle < scheduler.sleep_until
            pick = scheduler.select(cycle, quota)
            assert pick is expected
            if pick is None:
                if not asleep:  # a fresh scan caches the exact wake-up
                    assert scheduler.sleep_until == wake
                    sleeps += 1
                continue
            picks += 1
            last = pick
            next_index = hosted.index(pick) + 1
            if state % 41 == 0:  # retire
                pick.set_state(WarpState.DONE)
                continue
            # Issue: stall the warp — pipeline-short, L2-medium or
            # DRAM-long.
            pick.ready_at = cycle + (1, 4, 24, 130, 400)[state % 5]
        # The run must actually exercise selection, not sleep through it.
        assert any(w.state == WarpState.DONE for w in hosted)
        assert picks > 50 and sleeps > 10

    def test_gto_lockstep(self):
        self._lockstep("gto")

    def test_lrr_lockstep(self):
        self._lockstep("lrr")

    def test_sample_ready_matches_scan(self):
        scheduler = make_scheduler("gto")
        warps = []
        for i in range(8):
            warp = make_warp(kernel_idx=i % 2, ready_at=(0, 3, 90, 500)[i % 4])
            if i == 5:
                warp.set_state(WarpState.AT_BARRIER)
            scheduler.add_warp(warp)
            warps.append(warp)
        for cycle in (0, 5, 100, 600):
            counted = [0, 0, 0]
            scheduler.sample_ready(cycle, counted)
            expected = [0, 0, 0]
            for warp in warps:
                if warp.state == WarpState.RUNNING and warp.ready_at <= cycle:
                    expected[warp.kernel_idx] += 1
            assert counted == expected

    def test_inline_greedy_issue_matches_select(self, monkeypatch):
        """``SM.step`` issues the greedy GTO warp without calling
        ``select``; an SM forced through ``select`` on every scheduler must
        issue the same warps cycle for cycle."""
        from repro.config import GPUConfig, SMConfig
        from tests.test_sm import Harness, alu_spec, memory_spec

        calls = {}
        original = GTOScheduler.select

        def counting_select(self, cycle, quota_ok):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return original(self, cycle, quota_ok)

        monkeypatch.setattr(GTOScheduler, "select", counting_select)
        config = GPUConfig(num_sms=1, num_mcs=1,
                           sm=SMConfig(warp_schedulers=2))
        specs = [alu_spec("greedy-alu", ilp=0.7, iterations=6, body=24,
                          barrier=True), memory_spec("greedy-mem")]
        fused, forced = Harness(specs, config), Harness(specs, config)
        forced.sm._greedy = False
        for harness in (fused, forced):
            harness.sm.quota_enabled = True
            harness.sm.set_quota(0, 3000.0)
            harness.sm.set_quota(1, 1e9)
            for tb_id in range(3):
                harness.sm.dispatch_tb(tb_id % 2, tb_id, 0)

        def snapshot(sm):
            return [(w.kernel_idx, w.tb.tb_id, w.warp_id_in_tb, w.pc,
                     w.ready_at, w.state)
                    for scheduler in sm.schedulers for w in scheduler.warps]

        issued = 0
        for cycle in range(1, 1500):
            if cycle == 500:  # refresh: kernel 0 resumes and can finish
                fused.sm.set_quota(0, 1e9)
                forced.sm.set_quota(0, 1e9)
            step = fused.sm.step(cycle)
            assert forced.sm.step(cycle) == step
            assert snapshot(fused.sm) == snapshot(forced.sm)
            issued += step
        assert fused.exhausted_events == forced.exhausted_events != []
        assert len(fused.finished_tbs) == len(forced.finished_tbs) > 0
        fused_calls = sum(calls.get(id(s), 0) for s in fused.sm.schedulers)
        forced_calls = sum(calls.get(id(s), 0) for s in forced.sm.schedulers)
        # The fused SM really took the inline greedy path.
        assert issued > 0 and fused_calls < forced_calls
