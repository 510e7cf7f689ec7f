"""The sweep engine: one claim loop for co-run and serving sweeps.

A figure sweep is a grid of independent co-run cases and a serving load
sweep is a grid of independent serving cases, so both run through the same
machinery here.  :class:`SweepRunner` is the base of
:class:`repro.harness.runner.CaseRunner` and
:class:`repro.serve.runner.ServeRunner`; each of those is a task adapter
that supplies the spec type, how one case runs, its cache key and outcome
codec, and its grid payload.  The engine owns the flow every sweep takes:

1. every spec maps to a content key (the adapter's :meth:`_cache_key`),
   and outcomes live in an in-process memo backed by the optional
   persistent :class:`repro.harness.cache.CaseCache`;
2. the full grid is registered in the experiment store
   (:class:`repro.harness.expdb.ExperimentDB`, persistent or a throwaway
   in-memory one), so the same grid under the same code always has the
   same experiment id;
3. cases are **pulled** from the store one claim at a time: serially, or
   over a :class:`concurrent.futures.ProcessPoolExecutor` whose workers
   each hold one throwaway serial runner built at pool construction.
   Duplicate specs attach to the future already in flight; a pool that
   dies (a killed worker, a sandbox without process spawning) releases
   its claims and the serial loop finishes the grid;
4. the fault seam (:attr:`SweepRunner.fault_after`) raises
   :class:`SweepInterrupted` after a set number of completed cases, the
   stand-in for a crash that the interrupt/resume tests rely on.

Records come back in input order, never completion order, and every case
runs through the adapter's public method (``run_case``/``run_spec``), so
parallel and resumed sweeps are byte-identical to serial ones.  This module
is salted (it decides which cases run and which cached outcomes a sweep
returns); ``concurrent.futures`` is imported only when a pool is opened.

Worker count comes from (in priority order) the constructor, the
``REPRO_WORKERS`` environment variable, and ``os.cpu_count() - 1``; see
:func:`resolve_workers`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

ENV_WORKERS = "REPRO_WORKERS"

#: Errors that mean the platform cannot run (or keep running) a process
#: pool; the engine falls back to the serial claim loop on any of them.
_NO_POOL = (OSError, PermissionError, ImportError)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument > ``REPRO_WORKERS`` > ``cpu_count() - 1`` (min 1)."""
    if workers is None:
        env = os.environ.get(ENV_WORKERS, "").strip()
        if env:
            workers = int(env)
        else:
            workers = (os.cpu_count() or 2) - 1
    return max(1, workers)


class SweepInterrupted(RuntimeError):
    """Raised by the fault-injection seam (:attr:`SweepRunner.fault_after`):
    the controlled stand-in for a worker crash or a killed process that the
    interrupt/resume tests and the CI resume-smoke step rely on."""


@dataclass(frozen=True)
class RegisteredSweep:
    """One sweep registered in an experiment store (persistent or ephemeral).

    ``persistent`` distinguishes the shared on-disk store — whose ids are
    worth reporting as provenance and resuming later — from the throwaway
    in-memory store every unregistered sweep still routes through (so the
    pull-based claim loop is never a special case).
    """

    db: object  # ExperimentDB (kept untyped: expdb is imported lazily)
    experiment_id: str
    spec_hash: str
    persistent: bool


# ----------------------------------------------------------------- pool
# Module-level so they pickle.  Each pool worker holds ONE throwaway serial
# runner (built by the parent, handed over once by the initializer) and
# reuses it for every task: the machine description and any seeded state
# cross the process boundary once per sweep instead of once per case.

_WORKER: Optional["SweepRunner"] = None


def _worker_init(runner: "SweepRunner") -> None:
    global _WORKER
    _WORKER = runner


def _run_task(spec):
    return _WORKER.run_task(spec)


def open_pool(workers: int, initializer=None, initargs: tuple = ()):
    """A process pool of ``workers``, or None when the platform refuses."""
    try:
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor(max_workers=workers,
                                   initializer=initializer,
                                   initargs=initargs)
    except _NO_POOL:
        return None


def pool_map(function, argument_list: list, workers: int) -> list:
    """``[function(args) for args in argument_list]``, over a pool when
    there is more than one worker and one item; input order is kept."""
    pool = None
    if workers > 1 and len(argument_list) > 1:
        pool = open_pool(min(workers, len(argument_list)))
    if pool is None:
        return [function(args) for args in argument_list]
    try:
        with pool:
            return list(pool.map(function, argument_list, chunksize=1))
    except _NO_POOL:
        # Sandboxes without process spawning / semaphores: stay correct.
        return [function(args) for args in argument_list]


class SweepRunner:
    """Memoised cases plus pull-based sweeps; subclasses adapt one task.

    Adapters set :attr:`spec_type` (a frozen spec with ``key``,
    ``payload()`` and ``from_payload()``) and implement :meth:`run_task`,
    :meth:`_cache_key`, :meth:`_cache_get`, :meth:`_cache_put`,
    :meth:`_grid_payload` and :meth:`_pool_worker`.
    """

    #: The adapter's spec class (set by every subclass).
    spec_type: type
    #: Pool width; 1 (the default) claims and runs cases in-process.
    workers: int = 1

    def __init__(self, gpu, cache=None, expdb=None):
        self.gpu = gpu
        #: Optional :class:`repro.harness.cache.CaseCache`; consulted on
        #: memo misses, fed on every fresh case.
        self.cache = cache
        #: Optional :class:`repro.harness.expdb.ExperimentDB`.  When set,
        #: :meth:`sweep` registers its grid there and the sweep becomes
        #: durable: interruptible, resumable (``repro exp resume``) and
        #: attributable (provenance ids in :attr:`experiment_log`).  When
        #: None, sweeps route through a throwaway in-memory store instead —
        #: same claim loop, zero persistence.
        self.expdb = expdb
        #: ``(experiment id, spec hash)`` of every sweep this runner
        #: registered in the *persistent* store, in registration order —
        #: the raw material of figure provenance lines.
        self.experiment_log: List[Tuple[str, str]] = []
        #: Test seam: raise :class:`SweepInterrupted` after this many cases
        #: of a sweep complete — the interrupt half of the interrupt/resume
        #: differential tests.  None (the default) never fires.
        self.fault_after: Optional[int] = None
        self._memo: Dict[tuple, object] = {}

    # ------------------------------------------------------- adapter hooks

    def run_task(self, spec):
        """Run (or recall) one case through the adapter's public method."""
        raise NotImplementedError

    def _cache_key(self, spec) -> str:
        """The content key of ``spec`` in the persistent case cache."""
        raise NotImplementedError

    def _cache_get(self, key: str):
        raise NotImplementedError

    def _cache_put(self, key: str, outcome) -> None:
        raise NotImplementedError

    def _grid_payload(self, payloads: List[dict]) -> dict:
        """Everything that identifies the sweep and rebuilds its runner."""
        raise NotImplementedError

    def _pool_worker(self) -> "SweepRunner":
        """The throwaway serial runner every pool worker runs tasks on."""
        raise NotImplementedError

    def _before_claims(self, sweep_reg: RegisteredSweep,
                       pending: list) -> None:
        """Called once per sweep, before any claim, with the specs still
        pending (possibly none)."""

    # --------------------------------------------------------------- memo

    def _recall(self, spec):
        """The memoised or cached outcome of ``spec``, or None."""
        outcome = self._memo.get(spec.key)
        if outcome is None and self.cache is not None:
            outcome = self._cache_get(self._cache_key(spec))
            if outcome is not None:
                self._memo[spec.key] = outcome
        return outcome

    def _remember(self, spec, outcome):
        """Memoise a freshly computed outcome and feed the cache."""
        self._memo[spec.key] = outcome
        if self.cache is not None:
            self._cache_put(self._cache_key(spec), outcome)
        return outcome

    @property
    def cached_cases(self) -> int:
        return len(self._memo)

    # -------------------------------------------------------------- sweeps

    def sweep(self, specs: Sequence, register: bool = True) -> list:
        """Run a batch of cases, returning outcomes in input order.

        Every sweep is an *experiment*: the full grid is registered in the
        experiment store (the runner's persistent :attr:`expdb` when set
        and ``register`` is True, a throwaway in-memory store otherwise)
        and cases are **pulled** from its table one claim at a time rather
        than consumed as a static list.  Already-done cases — from the
        memo, the persistent case cache, or a previous interrupted run of
        the same grid — are never re-run, which is what makes ``repro exp
        resume`` converge on outcomes byte-identical to an uninterrupted
        run.  ``register=False`` keeps a sweep out of the persistent store
        — for memo-slicing re-sweeps of grids already registered.
        """
        specs = list(specs)
        if not specs:
            return []
        sweep_reg = self._register_sweep(specs, register)
        try:
            self._pull_pending(sweep_reg)
        finally:
            sweep_reg.db.finish(sweep_reg.experiment_id)
            if not sweep_reg.persistent:
                sweep_reg.db.close()
        return [self.run_task(spec) for spec in specs]

    def _register_sweep(self, specs: Sequence,
                        register: bool) -> RegisteredSweep:
        """Register the grid in the experiment store (idempotent: the same
        grid under the same code always maps to the same experiment id)."""
        from repro.harness.cache import (code_salt, experiment_id_for,
                                         experiment_spec_hash)
        from repro.harness.expdb import ExperimentDB

        payloads = [spec.payload() for spec in specs]
        grid = self._grid_payload(payloads)
        spec_hash = experiment_spec_hash(grid)
        experiment_id = experiment_id_for(spec_hash)
        persistent = register and self.expdb is not None
        db = self.expdb if persistent else ExperimentDB(":memory:")
        case_rows = [(payload, self._cache_key(spec))
                     for spec, payload in zip(specs, payloads)]
        db.register(experiment_id, spec_hash, code_salt(), grid, case_rows)
        if persistent:
            self.experiment_log.append((experiment_id, spec_hash))
        return RegisteredSweep(db, experiment_id, spec_hash, persistent)

    def _fault_check(self, completed: int) -> None:
        if self.fault_after is not None and completed >= self.fault_after:
            raise SweepInterrupted(
                f"fault injected after {completed} completed cases")

    def _pull_pending(self, sweep_reg: RegisteredSweep) -> None:
        """Claim and run pending cases until the table is drained: over a
        pool when there is more than one worker and pending case, serially
        otherwise or when the pool cannot be opened or dies."""
        from repro.harness.expdb import PENDING

        db, experiment_id = sweep_reg.db, sweep_reg.experiment_id
        db.release_stale(experiment_id)
        pending = [self.spec_type.from_payload(row["spec"])
                   for row in db.cases(experiment_id)
                   if row["status"] == PENDING]
        self._before_claims(sweep_reg, pending)
        if not pending:
            return
        if self.workers > 1 and len(pending) > 1:
            pool = open_pool(min(self.workers, len(pending)), _worker_init,
                             (self._pool_worker(),))
            if pool is not None:
                from concurrent.futures import BrokenExecutor
                try:
                    return self._pull_through_pool(sweep_reg, pool)
                except (BrokenExecutor,) + _NO_POOL:
                    # The pool died under us (a killed worker, lost
                    # semaphores): reclaim whatever was in flight and
                    # finish serially.
                    db.release_stale(experiment_id)
                finally:
                    pool.shutdown(wait=False, cancel_futures=True)
        self._pull_serial(sweep_reg)

    def _pull_serial(self, sweep_reg: RegisteredSweep) -> None:
        """The serial claim loop.

        A case that raises is marked failed and the exception propagates
        (the sweep aborts like a crashed process would); everything already
        marked done stays done, so the next run of the same grid resumes.
        """
        db, experiment_id = sweep_reg.db, sweep_reg.experiment_id
        worker = f"serial:{os.getpid()}"
        completed = 0
        while True:
            claim = db.claim_next(experiment_id, worker)
            if claim is None:
                break
            case_index, payload = claim
            spec = self.spec_type.from_payload(payload)
            try:
                self.run_task(spec)
            except BaseException as error:
                db.mark_failed(experiment_id, case_index, repr(error))
                raise
            db.mark_done(experiment_id, case_index)
            completed += 1
            self._fault_check(completed)

    def _pull_through_pool(self, sweep_reg: RegisteredSweep, pool) -> None:
        """The parallel claim loop: keep up to ``workers`` claims in flight.

        Claims that hit the memo or persistent cache are marked done
        without touching the pool; duplicate specs attach to the already
        in-flight future instead of running twice.  A task exception marks
        its case(s) failed and propagates; cases still in flight stay
        ``running`` and are released back to ``pending`` by the next run's
        :meth:`ExperimentDB.release_stale` — exactly like a crash.  A dead
        pool propagates without marking anything failed, so the caller can
        release the claims and finish serially.
        """
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait

        db, experiment_id = sweep_reg.db, sweep_reg.experiment_id
        worker = f"pool:{os.getpid()}"
        completed = 0
        inflight: Dict[object, Tuple[object, List[int]]] = {}
        by_key: Dict[tuple, object] = {}
        drained = False
        while True:
            while not drained and len(inflight) < self.workers:
                claim = db.claim_next(experiment_id, worker)
                if claim is None:
                    drained = True
                    break
                case_index, payload = claim
                spec = self.spec_type.from_payload(payload)
                if self._recall(spec) is not None:
                    db.mark_done(experiment_id, case_index)
                    completed += 1
                    self._fault_check(completed)
                    continue
                twin = by_key.get(spec.key)
                if twin is not None:
                    inflight[twin][1].append(case_index)
                    continue
                future = pool.submit(_run_task, spec)
                inflight[future] = (spec, [case_index])
                by_key[spec.key] = future
            if not inflight:
                break
            done_set, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in done_set:
                spec, case_indices = inflight.pop(future)
                by_key.pop(spec.key, None)
                try:
                    outcome = future.result()
                except (BrokenExecutor,) + _NO_POOL:
                    raise
                except BaseException as error:
                    for case_index in case_indices:
                        db.mark_failed(experiment_id, case_index, repr(error))
                    raise
                self._remember(spec, outcome)
                for case_index in case_indices:
                    db.mark_done(experiment_id, case_index)
                    completed += 1
                self._fault_check(completed)
