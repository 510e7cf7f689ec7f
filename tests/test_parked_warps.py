"""The parked-warp sentinel: a warp that is not RUNNING has ``ready_at == NEVER``.

The issue path (``SM.step``, ``GTOScheduler``/``LRRScheduler.select``,
``sample_ready``) never reads a warp's ``state``; it relies on
``ready_at <= cycle`` implying RUNNING.  Warps leave RUNNING in three
places — a TB barrier, a TB eviction (``ThreadBlock.freeze``) and warp
retirement — and these runs reach all three on the 2-SM machine of the
golden digests: the barrier-heavy ``sgemm + cutcp`` pair, ``rollover`` on
``stencil + sad`` (which moves TBs by eviction there) and a served Poisson
stream whose finite kernels retire.  They run on the ``scan`` core, which steps every SM every
cycle, and check every hosted warp after every step.
"""

import pytest

from repro.harness.runner import CaseRunner
from repro.serve.runner import ServeRunner
from repro.sim.engine import GPUSimulator
from repro.sim.sm import SM
from repro.sim.warp import NEVER, WarpState
from tests.test_golden_digests import CYCLES, PAIRS, SERVE_SPEC, gpu_config


@pytest.fixture
def parked(monkeypatch):
    """Check the sentinel after every ``SM.step``; the returned dict counts
    the parked warps seen, by state, so a test can show it reached them."""
    seen = {WarpState.AT_BARRIER: 0, WarpState.FROZEN: 0, WarpState.DONE: 0}
    step = SM.step

    def checked_step(self, cycle, sample=False):
        issued = step(self, cycle, sample)
        for scheduler in self.schedulers:
            for warp in scheduler.warps:
                if warp.state != WarpState.RUNNING:
                    assert warp.ready_at == NEVER, warp
                    seen[warp.state] += 1
        return issued

    monkeypatch.setattr(SM, "step", checked_step)
    return seen


def run_pair(qos, nonqos, goal, scheme, cycles=CYCLES):
    runner = CaseRunner(gpu_config("scan", "gto"), cycles)
    return runner.run_case((qos, nonqos), (True, False), (goal, None), scheme)


def test_barriers_park_at_never(parked):
    run_pair(*PAIRS["barrier"], "smk")
    assert parked[WarpState.AT_BARRIER] > 0


def test_evicted_tbs_park_at_never(parked):
    record = run_pair("stencil", "sad", 0.5, "rollover", cycles=10_000)
    assert record.evictions > 0
    assert parked[WarpState.FROZEN] > 0


def test_served_kernels_retire_at_never(parked, monkeypatch):
    sims = []
    retire = GPUSimulator._retire_kernel

    def recording_retire(self, kernel_idx, cycle):
        if self not in sims:
            sims.append(self)
        retire(self, kernel_idx, cycle)

    monkeypatch.setattr(GPUSimulator, "_retire_kernel", recording_retire)
    outcome = ServeRunner(gpu_config("scan", "gto"),
                          workers=1).run_spec(SERVE_SPEC)
    assert outcome.completed and sims
    assert parked[WarpState.DONE] > 0
    # A retired kernel has no warps left, so it holds no per-pc table.
    for sim in sims:
        assert not all(sim.kernel_active)
        for runtime, active in zip(sim.runtimes, sim.kernel_active):
            assert bool(runtime.pc_table) == active
