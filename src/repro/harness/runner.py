"""Memoised execution of isolated and co-run cases.

Every figure consumes the same underlying (pair/trio x goal x scheme) runs,
so :class:`CaseRunner` memoises by full case key: Figure 6, 8, 9 and 14 all
reuse one sweep.  Isolated IPCs (the denominators of every normalisation in
the paper) are memoised per (kernel, machine, cycles).

:class:`CaseRunner` is the co-run task adapter of the sweep engine
(:class:`repro.harness.parallel.SweepRunner`): the engine supplies the
persistent case cache lookups, experiment-store registration and the
serial/pool claim loops; this module supplies how one :class:`CaseSpec`
runs, its cache key, and the isolated-IPC denominators every sweep
settles before its first claim (seeded from the store, computed as one
batch, recorded).
:class:`ParallelCaseRunner` is the same runner with a pool width taken
from ``REPRO_WORKERS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines import SpartPolicy
from repro.config import GPUConfig
from repro.controllers import CONTROLLER_NAMES, controller_by_name
from repro.harness.parallel import (RegisteredSweep, SweepInterrupted,
                                    SweepRunner, pool_map, resolve_workers)
from repro.kernels import get_kernel, intensity_class
from repro.power import PowerModel
from repro.qos import QoSPolicy
from repro.sim import GPUSimulator, LaunchedKernel, SharingPolicy
from repro.sim.telemetry import EpochRecord

#: Scheme/controller names accepted by :meth:`CaseRunner.run_case`.  The
#: ``pid`` and ``mpc`` entries run the paper's quota machinery under the
#: corresponding :mod:`repro.controllers` control law (Rollover boundary
#: accounting, controller-driven quota scales).
POLICY_NAMES = ("spart", "naive", "history", "elastic", "rollover",
                "rollover-time", "rollover-nostatic", "smk") + CONTROLLER_NAMES


def make_policy(name: str) -> SharingPolicy:
    """Instantiate a sharing policy from its experiment name."""
    if name == "spart":
        return SpartPolicy()
    if name == "smk":
        return SharingPolicy()
    if name == "rollover-nostatic":
        return QoSPolicy("rollover", static_adjustment=False)
    if name in CONTROLLER_NAMES:
        return QoSPolicy("rollover", controller=controller_by_name(name))
    return QoSPolicy(name)


@dataclass(frozen=True)
class CaseSpec:
    """One co-run case, declaratively: what :meth:`CaseRunner.run_case` takes.

    Sweeps are lists of these so they can be submitted up front (and fanned
    out by the parallel runner) instead of looped over call-by-call.
    """

    names: Tuple[str, ...]
    qos_flags: Tuple[bool, ...]
    goal_fractions: Tuple[Optional[float], ...]
    policy: str

    @classmethod
    def pair(cls, qos: str, nonqos: str, goal: float,
             policy: str) -> "CaseSpec":
        return cls((qos, nonqos), (True, False), (goal, None), policy)

    @classmethod
    def trio(cls, names: Sequence[str], qos_count: int, goal: float,
             policy: str) -> "CaseSpec":
        if not 1 <= qos_count < len(names):
            raise ValueError("qos_count must leave at least one non-QoS kernel")
        flags = tuple(i < qos_count for i in range(len(names)))
        fractions = tuple(goal if flag else None for flag in flags)
        return cls(tuple(names), flags, fractions, policy)

    @property
    def key(self) -> tuple:
        """The in-process memo key shared by both runners."""
        return (self.names, self.qos_flags, self.goal_fractions, self.policy)

    def payload(self) -> dict:
        """Plain JSON-able form, the shape stored in the experiment DB."""
        return {"names": list(self.names), "qos": list(self.qos_flags),
                "goals": list(self.goal_fractions), "policy": self.policy}

    @classmethod
    def from_payload(cls, payload: dict) -> "CaseSpec":
        return cls(tuple(payload["names"]),
                   tuple(bool(flag) for flag in payload["qos"]),
                   tuple(payload["goals"]), payload["policy"])


@dataclass(frozen=True)
class KernelOutcome:
    """Per-kernel results of one co-run case."""

    name: str
    is_qos: bool
    goal_fraction: Optional[float]
    ipc: float
    isolated_ipc: float
    ipc_goal: Optional[float]
    intensity: str

    @property
    def reached(self) -> Optional[bool]:
        if not self.is_qos:
            return None
        return self.ipc >= self.ipc_goal * 0.999

    @property
    def normalized_throughput(self) -> float:
        """IPC normalised to isolated execution (Figure 8's metric)."""
        return self.ipc / self.isolated_ipc if self.isolated_ipc else 0.0

    @property
    def goal_ratio(self) -> Optional[float]:
        """IPC normalised to the QoS goal (Figure 9's metric)."""
        if self.ipc_goal is None:
            return None
        return self.ipc / self.ipc_goal

    @property
    def miss_percent(self) -> Optional[float]:
        """How far below goal, in percent (None for non-QoS kernels)."""
        if self.ipc_goal is None:
            return None
        return max(0.0, 100.0 * (1.0 - self.ipc / self.ipc_goal))


@dataclass(frozen=True)
class CaseRecord:
    """One co-run case: workload, scheme, per-kernel outcomes, energy."""

    kernels: Tuple[KernelOutcome, ...]
    policy: str
    cycles: int
    evictions: int
    eviction_stall_cycles: int
    power_w: float
    instructions_per_watt: float
    #: Per-epoch telemetry stream (empty unless the runner was built with
    #: ``telemetry=True``).  Spans warm-up plus measurement: the control
    #: loop's convergence transient is part of what the trace is for.
    telemetry: Tuple[EpochRecord, ...] = ()

    @property
    def qos_met(self) -> bool:
        """A case succeeds when every QoS kernel reached its goal."""
        return all(k.reached for k in self.kernels if k.is_qos)

    @property
    def qos_kernels(self) -> Tuple[KernelOutcome, ...]:
        return tuple(k for k in self.kernels if k.is_qos)

    @property
    def nonqos_kernels(self) -> Tuple[KernelOutcome, ...]:
        return tuple(k for k in self.kernels if not k.is_qos)

    @property
    def total_ipc(self) -> float:
        return sum(k.ipc for k in self.kernels)


def _isolated_task(args: Tuple[GPUConfig, int, int, str]) -> float:
    """Pool task of the isolated-IPC prefetch (module-level so it pickles)."""
    gpu, cycles, warmup, name = args
    return CaseRunner(gpu, cycles, warmup).isolated_ipc(name)


class CaseRunner(SweepRunner):
    """Runs and memoises isolated and co-run simulations.

    Every run discards a warm-up window (``warmup_cycles``, default two
    epochs) before measurement starts, so the TB-dispatch ramp and cold
    caches do not bias IPCs at short simulation windows.  The paper's
    2M-cycle runs amortise the same ramp to nothing.
    """

    spec_type = CaseSpec

    def __init__(self, gpu: GPUConfig, cycles: int,
                 warmup_cycles: Optional[int] = None, cache=None,
                 telemetry: bool = False, expdb=None):
        super().__init__(gpu, cache=cache, expdb=expdb)
        self.cycles = cycles
        if warmup_cycles is None:
            warmup_cycles = 2 * gpu.epoch_length
        self.warmup_cycles = warmup_cycles
        #: When True, every co-run case carries its per-epoch telemetry
        #: stream in :attr:`CaseRecord.telemetry` (isolated runs are never
        #: telemetered — they only produce a scalar IPC).  Part of the cache
        #: key: telemetry-bearing records are cached separately.
        self.telemetry = telemetry
        self._isolated: Dict[str, float] = {}
        self._power = PowerModel(gpu)

    # ------------------------------------------------------------- isolated

    def isolated_ipc(self, name: str) -> float:
        """IPC of a kernel running alone on this machine (memoised)."""
        if name not in self._isolated:
            cache_key = None
            if self.cache is not None:
                cache_key = self._isolated_key(name)
                cached = self.cache.get_isolated(cache_key)
                if cached is not None:
                    self._isolated[name] = cached
                    return cached
            self._isolated[name] = self._simulate_isolated(name)
            if cache_key is not None:
                self.cache.put_isolated(cache_key, self._isolated[name])
        return self._isolated[name]

    def _isolated_key(self, name: str) -> str:
        from repro.harness.cache import isolated_key
        return isolated_key(self.gpu, name, self.cycles, self.warmup_cycles)

    def _simulate_isolated(self, name: str) -> float:
        sim = GPUSimulator(self.gpu, [LaunchedKernel(get_kernel(name))])
        sim.run(self.warmup_cycles)
        sim.mark_measurement_start()
        sim.run(self.cycles)
        return sim.result().kernels[0].ipc

    # --------------------------------------------------------------- co-run

    def run_case(self, names: Sequence[str], qos_flags: Sequence[bool],
                 goal_fractions: Sequence[Optional[float]],
                 policy: str) -> CaseRecord:
        """Run one co-run case (memoised by its full key).

        ``goal_fractions`` are per-kernel fractions of isolated IPC; entries
        for non-QoS kernels are ignored and may be None.
        """
        spec = CaseSpec(tuple(names), tuple(qos_flags),
                        tuple(goal_fractions), policy)
        record = self._recall(spec)
        if record is None:
            record = self._remember(spec, self._simulate_case(spec))
        return record

    def _simulate_case(self, spec: CaseSpec) -> CaseRecord:
        launches = []
        goals = []
        for name, is_qos, fraction in zip(spec.names, spec.qos_flags,
                                          spec.goal_fractions):
            if is_qos:
                goal = fraction * self.isolated_ipc(name)
                launches.append(LaunchedKernel(get_kernel(name), is_qos=True,
                                               ipc_goal=goal))
            else:
                goal = None
                launches.append(LaunchedKernel(get_kernel(name)))
            goals.append(goal)

        recorder = None
        if self.telemetry:
            from repro.sim.telemetry import TelemetryRecorder
            recorder = TelemetryRecorder()
        sim = GPUSimulator(self.gpu, launches, make_policy(spec.policy),
                           telemetry=recorder)
        sim.run(self.warmup_cycles)
        sim.mark_measurement_start()
        sim.run(self.cycles)
        result = sim.result()
        epoch_records = sim.finalize_telemetry()

        outcomes = []
        for launch, kernel_result, goal, fraction in zip(
                launches, result.kernels, goals, spec.goal_fractions):
            outcomes.append(KernelOutcome(
                name=kernel_result.name,
                is_qos=launch.is_qos,
                goal_fraction=fraction if launch.is_qos else None,
                ipc=kernel_result.ipc,
                isolated_ipc=self.isolated_ipc(kernel_result.name),
                ipc_goal=goal,
                intensity=intensity_class(kernel_result.name),
            ))
        return CaseRecord(
            kernels=tuple(outcomes),
            policy=spec.policy,
            cycles=result.cycles,
            evictions=result.evictions,
            eviction_stall_cycles=result.eviction_stall_cycles,
            power_w=self._power.average_power_w(result),
            instructions_per_watt=self._power.instructions_per_watt(result),
            telemetry=epoch_records,
        )

    # ------------------------------------------------- sweep engine hooks

    def run_task(self, spec: CaseSpec) -> CaseRecord:
        return self.run_case(spec.names, spec.qos_flags,
                             spec.goal_fractions, spec.policy)

    def _cache_key(self, spec: CaseSpec) -> str:
        from repro.harness.cache import case_key
        return case_key(self.gpu, spec.names, spec.qos_flags,
                        spec.goal_fractions, spec.policy, self.cycles,
                        self.warmup_cycles, telemetry=self.telemetry)

    def _cache_get(self, key: str) -> Optional[CaseRecord]:
        return self.cache.get_case(key)

    def _cache_put(self, key: str, record: CaseRecord) -> None:
        self.cache.put_case(key, record)

    def _grid_payload(self, payloads: List[dict]) -> dict:
        from repro.harness.cache import sweep_grid_payload
        return sweep_grid_payload(self.gpu, self.cycles, self.warmup_cycles,
                                  self.telemetry, payloads)

    def _pool_worker(self) -> "CaseRunner":
        worker = CaseRunner(self.gpu, self.cycles, self.warmup_cycles,
                            telemetry=self.telemetry)
        worker._isolated.update(self._isolated)
        return worker

    def _before_claims(self, sweep_reg: RegisteredSweep,
                       pending: List[CaseSpec]) -> None:
        """Have every isolated-IPC denominator the pending cases need before
        the first claim: adopt the ones a previous (interrupted) run of this
        experiment recorded, so resume never re-simulates them — even with
        the persistent case cache disabled — compute the rest as their own
        batch, over the pool when there is one (pool workers are seeded
        with every denominator at pool construction), and record them."""
        experiment_id = sweep_reg.experiment_id
        for name, ipc in sweep_reg.db.isolated_ipcs(experiment_id).items():
            self._isolated.setdefault(name, ipc)
        names: List[str] = []
        for spec in pending:
            for name in spec.names:
                if name not in names:
                    names.append(name)
        self._prefetch_isolated([name for name in names
                                 if name not in self._isolated])
        if sweep_reg.persistent:
            for name in names:
                sweep_reg.db.record_isolated(
                    experiment_id, name, self._isolated_key(name),
                    self._isolated[name])

    def _prefetch_isolated(self, names: List[str]) -> None:
        """Compute the isolated IPCs of ``names`` that are not cached."""
        if self.cache is not None:
            still_needed = []
            for name in names:
                cached = self.cache.get_isolated(self._isolated_key(name))
                if cached is not None:
                    self._isolated[name] = cached
                else:
                    still_needed.append(name)
            names = still_needed
        argument_list = [(self.gpu, self.cycles, self.warmup_cycles, name)
                         for name in names]
        ipcs = pool_map(_isolated_task, argument_list, self.workers)
        for name, ipc in zip(names, ipcs):
            self._isolated[name] = ipc
            if self.cache is not None:
                self.cache.put_isolated(self._isolated_key(name), ipc)

    # ---------------------------------------------------------- conveniences

    def run_pair(self, qos: str, nonqos: str, goal: float,
                 policy: str) -> CaseRecord:
        return self.run_case((qos, nonqos), (True, False), (goal, None), policy)

    def run_trio(self, names: Sequence[str], qos_count: int, goal: float,
                 policy: str) -> CaseRecord:
        """Run a trio with the first ``qos_count`` kernels as QoS kernels,
        all sharing the same goal fraction (the paper's trio protocol)."""
        spec = CaseSpec.trio(names, qos_count, goal, policy)
        return self.run_case(spec.names, spec.qos_flags, spec.goal_fractions,
                             policy)


class ParallelCaseRunner(CaseRunner):
    """A :class:`CaseRunner` whose sweeps fan out over a process pool of
    ``workers`` (default: ``REPRO_WORKERS``, else ``cpu_count() - 1``)."""

    def __init__(self, gpu: GPUConfig, cycles: int,
                 warmup_cycles: Optional[int] = None, cache=None,
                 workers: Optional[int] = None, telemetry: bool = False,
                 expdb=None):
        super().__init__(gpu, cycles, warmup_cycles, cache=cache,
                         telemetry=telemetry, expdb=expdb)
        self.workers = resolve_workers(workers)
