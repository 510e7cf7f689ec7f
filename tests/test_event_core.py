"""Differential tests: the event core vs the reference scan core.

Both engine cores share one warp-issue path (the scan selection in
:mod:`repro.sim.scheduler` under the fused ``SM.step``); they differ in
the engine loop.  The **event** core (per-SM sleep skipping: SMs whose
schedulers all sleep are not stepped) must produce record-for-record
identical :class:`SimulationResult`s — and identical idle-warp sampling
state — to the reference loop that steps every SM every cycle, for every
sharing scheme (plus the pid/mpc controllers), both scheduler policies,
with telemetry on, and for a served workload.

Because the issue path is shared, a bug in it shows up identically on both
cores; ``tests/test_golden_digests.py`` pins the output itself.
"""

import pytest

from repro.config import GPUConfig, SMConfig
from repro.harness.runner import make_policy
from repro.kernels.spec import InstructionMix, KernelSpec, MemoryPattern
from repro.sim import GPUSimulator, LaunchedKernel, SharingPolicy

SCHEMES = ["smk", "naive", "history", "elastic", "rollover",
           "rollover-time", "rollover-nostatic", "spart"]

#: All 8 sharing schemes plus the controller-backed quota policies.
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
    """The event core must agree exactly with the scan core."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_gto(self, scheme):
        assert run_sim("event", scheme, "gto") == run_sim("scan", scheme, "gto")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lrr(self, scheme):
        assert run_sim("event", scheme, "lrr") == run_sim("scan", scheme, "lrr")

    @pytest.mark.parametrize("scheme", ["pid", "mpc"])
    @pytest.mark.parametrize("policy", ["gto", "lrr"])
    def test_controller_schemes(self, scheme, policy):
        assert run_sim("event", scheme, policy) == run_sim("scan", scheme,
                                                           policy)


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

    @pytest.mark.parametrize("core", ["event"])
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

    @pytest.mark.parametrize("scheme", SCHEMES_PLUS_CONTROLLERS)
    def test_event_matches_scan(self, scheme):
        assert self._records("event", scheme) == self._records("scan", scheme)

    def test_sleep_counters_nonzero_somewhere(self):
        # The identity above must not hold vacuously: this workload does
        # leave SMs idle, so the counters have something to agree on.
        records = self._records("event", "rollover")
        assert any(record.sleep_skipped_sm_cycles for record in records)


class TestServedWorkloadDifferential:
    """A served workload — mid-simulation ``launch_at`` plus finite-grid
    retire driven by the dispatcher — must replay record- and telemetry-
    identical on both cores.  Arrival cycles bound the event core's sleep
    skips; this differential keeps that bound honest."""

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

    def test_event_matches_scan(self):
        base = self._serve("scan")
        # Non-vacuous: requests really were launched mid-run and retired
        # (freeing slots the queues refilled), and the machine really
        # slept between arrivals.
        assert base.generated >= 6
        assert base.completed >= 3
        assert base.sim_result is not None
        assert any(record.sleep_skipped_sm_cycles
                   for record in base.telemetry)
        assert self._serve("event") == base
