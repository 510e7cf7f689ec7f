"""Differential tests: the performance cores vs the reference scan core.

All three engine cores share one warp-issue path (the scan selection in
:mod:`repro.sim.scheduler` under the fused ``SM.step``); they differ in
the engine loop.  Both performance loops must produce record-for-record
identical :class:`SimulationResult`s — and identical idle-warp sampling
state — to the reference loop that steps every SM every cycle, for every
sharing scheme (plus the pid/mpc controllers) and both scheduler policies:

* the **event** core (per-SM sleep skipping in the engine: SMs whose
  schedulers all sleep are not stepped), and
* the **batch** core (windowed struct-of-arrays advancement in
  :mod:`repro.sim.batch`, dropping to the event core's scalar path on
  control-flow edges).

Because the issue path is shared, a bug in it shows up identically on all
three cores; ``tests/test_golden_digests.py`` pins the output itself.

The batch-specific classes at the bottom force the scalar fallback *mid
run* — preemption-driven TB moves and quota exhaustion between vectorised
windows — and check the windows actually opened, so the identity is not
vacuous.
"""

import pytest

from repro.config import GPUConfig, SMConfig
from repro.harness.runner import make_policy
from repro.kernels.spec import InstructionMix, KernelSpec, MemoryPattern
from repro.sim import GPUSimulator, LaunchedKernel, SharingPolicy

SCHEMES = ["smk", "naive", "history", "elastic", "rollover",
           "rollover-time", "rollover-nostatic", "spart"]

#: The scheme set the batch differential runs: all 8 sharing schemes plus
#: the controller-backed quota policies.
SCHEMES_PLUS_CONTROLLERS = SCHEMES + ["pid", "mpc"]


def spec(name, **kwargs):
    defaults = dict(threads_per_tb=64, regs_per_thread=16,
                    body_length=16, iterations_per_tb=4,
                    memory=MemoryPattern(footprint_bytes=1 << 22))
    defaults.update(kwargs)
    return KernelSpec(name=name, **defaults)


def gpu_config(core, scheduler_policy):
    return GPUConfig(num_sms=2, num_mcs=1, epoch_length=500,
                     idle_warp_samples=10,
                     sm=SMConfig(warp_schedulers=2),
                     engine_core=core,
                     scheduler_policy=scheduler_policy)


def run_sim(core, scheme, scheduler_policy, cycles=2500):
    launches = [
        LaunchedKernel(spec("qos-k", mix=InstructionMix(
            alu=0.7, sfu=0.05, ldg=0.15, stg=0.05, lds=0.05)),
            is_qos=True, ipc_goal=40.0),
        LaunchedKernel(spec("bg-k", mix=InstructionMix(
            alu=0.3, sfu=0.0, ldg=0.55, stg=0.1, lds=0.05), ilp=0.2)),
    ]
    sim = GPUSimulator(gpu_config(core, scheduler_policy), launches,
                       make_policy(scheme))
    sim.run(cycles)
    sampling = [(sm.idle_samples, tuple(sm.idle_sum)) for sm in sim.sms]
    return sim.result(), sampling


class TestRecordIdentical:
    """Three-way differential: scan, event and batch must agree exactly."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_gto(self, scheme):
        event = run_sim("event", scheme, "gto")
        scan = run_sim("scan", scheme, "gto")
        batch = run_sim("batch", scheme, "gto")
        assert event == scan
        assert batch == scan

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lrr(self, scheme):
        event = run_sim("event", scheme, "lrr")
        scan = run_sim("scan", scheme, "lrr")
        batch = run_sim("batch", scheme, "lrr")
        assert event == scan
        assert batch == scan

    @pytest.mark.parametrize("scheme", ["pid", "mpc"])
    @pytest.mark.parametrize("policy", ["gto", "lrr"])
    def test_controller_schemes(self, scheme, policy):
        event = run_sim("event", scheme, policy)
        batch = run_sim("batch", scheme, policy)
        assert batch == event


class TestSleepSkipSampling:
    """Per-SM sleep skipping must not eat idle-warp samples: an SM the
    engine never steps still observes every epoch-anchored grid point."""

    def _counts(self, core):
        gpu = GPUConfig(num_sms=2, num_mcs=1, epoch_length=500,
                        idle_warp_samples=10,
                        sm=SMConfig(warp_schedulers=1),
                        engine_core=core)
        # Dependent-load-heavy kernel: long stalls put SM 0 to sleep
        # between bursts, engaging both the per-SM skip and the
        # whole-GPU idle skip.
        mem_spec = spec("m", mix=InstructionMix(
            alu=0.1, sfu=0.0, ldg=0.9, stg=0.0, lds=0.0), ilp=0.0)
        counts = []

        class Recorder(SharingPolicy):
            def setup(self, ctx):
                # Confine the kernel to SM 0; SM 1 stays empty and its
                # scheduler sleeps forever — the engine never steps it.
                ctx.set_tb_target(0, 0, 1)
                ctx.set_tb_target(1, 0, 0)

            def on_epoch_start(self, ctx, cycle, epoch_index):
                if epoch_index > 0:
                    counts.append([ctx.idle_samples(sm_id)
                                   for sm_id in range(ctx.num_sms)])

        sim = GPUSimulator(gpu, [LaunchedKernel(mem_spec)], Recorder())
        sim.run(5000)
        return counts

    def test_sleeping_sm_sees_every_sample(self):
        counts = self._counts("event")
        assert len(counts) >= 8
        # Epoch 0 misses the boundary sample (its grid starts one
        # interval into the run); every later epoch sees the full
        # idle_warp_samples on BOTH the busy and the never-stepped SM.
        assert counts[0] == [9, 9]
        for per_sm in counts[1:]:
            assert per_sm == [10, 10]

    @pytest.mark.parametrize("core", ["event", "batch"])
    def test_matches_scan_core(self, core):
        assert self._counts(core) == self._counts("scan")


class TestTelemetryRecordIdentical:
    """Telemetry streams must be byte-identical between cores: the sleep
    counters are defined from the issue trajectory, not from which cycles a
    particular core actually skipped."""

    def _records(self, core, scheme):
        from repro.sim import TelemetryRecorder
        launches = [
            LaunchedKernel(spec("qos-k", mix=InstructionMix(
                alu=0.7, sfu=0.05, ldg=0.15, stg=0.05, lds=0.05)),
                is_qos=True, ipc_goal=40.0),
            LaunchedKernel(spec("bg-k", mix=InstructionMix(
                alu=0.3, sfu=0.0, ldg=0.55, stg=0.1, lds=0.05), ilp=0.2)),
        ]
        sim = GPUSimulator(gpu_config(core, "gto"), launches,
                           make_policy(scheme), telemetry=TelemetryRecorder())
        sim.run(2500)
        return sim.finalize_telemetry()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_event_matches_scan(self, scheme):
        assert self._records("event", scheme) == self._records("scan", scheme)

    @pytest.mark.parametrize("scheme", SCHEMES_PLUS_CONTROLLERS)
    def test_batch_matches_scan(self, scheme):
        assert self._records("batch", scheme) == self._records("scan", scheme)

    def test_sleep_counters_nonzero_somewhere(self):
        # The identity above must not hold vacuously: this workload does
        # leave SMs idle, so the counters have something to agree on.
        records = self._records("event", "rollover")
        assert any(record.sleep_skipped_sm_cycles for record in records)


class TestBatchScalarFallback:
    """Edge cases that force the batch core off its vectorised path mid
    run: preemption-driven TB moves between windows, and quota exhaustion
    landing on the scalar path.  Each case asserts both identity with the
    event core AND that vectorised windows actually opened, so the
    differential exercises real window/fallback transitions rather than
    degenerating to the pure event loop."""

    @staticmethod
    def _compute_spec(name):
        # Memory-free and high-ILP: windows open wide whenever the policy
        # machinery leaves the SMs alone.
        return KernelSpec(name=name, threads_per_tb=64, regs_per_thread=16,
                          body_length=64, iterations_per_tb=32,
                          mix=InstructionMix(alu=0.9, sfu=0.0, ldg=0.0,
                                             stg=0.0, lds=0.1),
                          ilp=0.95,
                          memory=MemoryPattern(footprint_bytes=1 << 20))

    class _Shuffler(SharingPolicy):
        """Bounces a kernel's TBs between the two SMs every other epoch,
        driving evictions (partial context switch) and redispatches."""

        def setup(self, ctx):
            ctx.set_tb_target(0, 0, 2)
            ctx.set_tb_target(1, 0, 2)
            ctx.set_tb_target(0, 1, 1)
            ctx.set_tb_target(1, 1, 1)

        def on_epoch_start(self, ctx, cycle, epoch_index):
            lopsided = epoch_index % 2 == 1
            ctx.set_tb_target(0, 0, 4 if lopsided else 2)
            ctx.set_tb_target(1, 0, 0 if lopsided else 2)

    def _run(self, core, with_windows):
        gpu = GPUConfig(num_sms=2, num_mcs=1, epoch_length=600,
                        idle_warp_samples=6,
                        sm=SMConfig(warp_schedulers=2),
                        engine_core=core)
        launches = [
            LaunchedKernel(self._compute_spec("qos-k"), is_qos=True,
                           ipc_goal=30.0),
            LaunchedKernel(self._compute_spec("bg-k")),
        ]
        sim = GPUSimulator(gpu, launches, self._Shuffler())
        sim.run(6000)
        if with_windows is not None:
            state = sim._batch_state
            assert state is not None
            with_windows(sim, state)
        return (sim.result(),
                [(sm.idle_samples, tuple(sm.idle_sum)) for sm in sim.sms])

    def test_tb_moves_force_scalar_fallback(self):
        evictions = []

        def check(sim, state):
            # The shuffling policy really did move TBs (preemption ran)...
            assert sim.preemption.evictions > 0
            evictions.append(sim.preemption.evictions)
            # ...and the probe/backoff machinery was exercised.
            assert state.backoff >= 1

        batch = self._run("batch", check)
        event = self._run("event", None)
        assert batch == event
        assert evictions and evictions[0] > 0

    def test_windows_actually_open(self, monkeypatch):
        from repro.sim.batch import BatchState

        windows = []
        original = BatchState.advance

        def counting_advance(self, cycle, horizon):
            windows.append(horizon - cycle)
            return original(self, cycle, horizon)

        monkeypatch.setattr(BatchState, "advance", counting_advance)
        batch = self._run("batch", None)
        event = self._run("event", None)
        assert batch == event
        # Vectorised windows opened and were wide enough to matter.
        assert windows and max(windows) >= 8

    def test_quota_exhaustion_stays_scalar(self):
        """A tight quota forces mid-epoch zero crossings; the probe's cap
        must keep every crossing (and its policy callback) off the
        vectorised path while staying record-identical."""
        results = {}
        for core in ("batch", "event"):
            gpu = GPUConfig(num_sms=2, num_mcs=1, epoch_length=600,
                            idle_warp_samples=6,
                            sm=SMConfig(warp_schedulers=2),
                            engine_core=core)
            launches = [
                LaunchedKernel(self._compute_spec("qos-k"), is_qos=True,
                               ipc_goal=8.0),  # tiny goal => tiny quota
                LaunchedKernel(self._compute_spec("bg-k")),
            ]
            sim = GPUSimulator(gpu, launches, make_policy("rollover"))
            sim.run(6000)
            results[core] = (sim.result(), [(sm.idle_samples,
                                             tuple(sm.idle_sum))
                                            for sm in sim.sms])
        assert results["batch"] == results["event"]


class TestServedWorkloadDifferential:
    """A served workload — mid-simulation ``launch_at`` plus finite-grid
    retire driven by the dispatcher — must replay record- and telemetry-
    identical on all three cores.  Arrival cycles bound the event core's
    sleep skips and the batch core's probe horizon; these differentials
    keep those bounds honest."""

    HORIZON = 14000

    @classmethod
    def _serve(cls, core):
        from repro.serve import Dispatcher, PoissonArrivals, RequestClass

        gpu = GPUConfig(num_sms=2, num_mcs=1, epoch_length=600,
                        idle_warp_samples=6,
                        sm=SMConfig(warp_schedulers=2),
                        engine_core=core)
        classes = (RequestClass("rt", "mri-q", slo_cycles=8000, grid_tbs=1),
                   RequestClass("bg", "sad", slo_cycles=16000, grid_tbs=2))
        requests = PoissonArrivals(classes, 1500.0,
                                   seed=5).generate(cls.HORIZON)
        dispatcher = Dispatcher(gpu, max_concurrent=2, telemetry=True)
        return dispatcher.serve(requests, cls.HORIZON)

    def test_three_core_identity(self):
        results = {core: self._serve(core)
                   for core in ("scan", "event", "batch")}
        base = results["scan"]
        # Non-vacuous: requests really were launched mid-run and retired
        # (freeing slots the queues refilled), and the machine really
        # slept between arrivals.
        assert base.generated >= 6
        assert base.completed >= 3
        assert base.sim_result is not None
        assert any(record.sleep_skipped_sm_cycles
                   for record in base.telemetry)
        assert results["event"] == base
        assert results["batch"] == base

    def test_batch_windows_open(self, monkeypatch):
        """The identity above must not come from the batch core never
        vectorising: windows still open between arrival boundaries."""
        from repro.sim.batch import BatchState

        windows = []
        original = BatchState.advance

        def counting_advance(self, cycle, horizon):
            windows.append(horizon - cycle)
            return original(self, cycle, horizon)

        monkeypatch.setattr(BatchState, "advance", counting_advance)
        batch = self._serve("batch")
        event = self._serve("event")
        assert batch == event
        assert windows and max(windows) >= 8
