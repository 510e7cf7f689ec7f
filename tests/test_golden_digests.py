"""Absolute oracle: committed sha256 digests of canonical simulation output.

The cross-core differentials in ``tests/test_event_core.py`` compare the
engine cores with each other, so they cannot catch a bug in code all cores
share (the SM issue path, the schedulers, the memory system).  These
digests pin the output itself:

* every sharing scheme plus the ``pid``/``mpc`` controllers, under both the
  ``gto`` and ``lrr`` issue policies, on the 2-SM machine of
  ``tests/test_event_core.py`` (a compute QoS kernel against a memory-bound
  background kernel, telemetry on);
* a barrier-heavy pair (``sgemm`` + ``cutcp``, one TB-wide barrier per loop
  body each), so barrier release and the warps it retires are covered;
* an evicting pair (``stencil`` + ``sad`` under ``rollover`` for 10 000
  cycles, which evicts TBs under both issue policies), so TB re-allocation
  by eviction is covered — no golden pair above evicts under rollover;
* three small served cases through :meth:`ServeRunner.run_spec`, so mid-run
  launches and finite-grid retirement are covered: a Poisson stream under
  ``gto`` and ``lrr``, and a bursty stream behind a one-deep queue cap
  (``cap:1``), so admission rejections are covered too.

A co-run case digests ``record_to_dict(record)``; a served case digests
``ServeCaseOutcome.to_value()``; both as sorted-key JSON.  The co-run and
served cases are also swept through the sweep engine — over a process
pool, and interrupted then resumed — and must reproduce the same digests.
The digests are also recomputed in fresh interpreters under two
``PYTHONHASHSEED`` values, so results cannot depend on string hashing or
set order.  A change meant
to alter simulated results regenerates the file with::

    PYTHONPATH=src python -m tests.test_golden_digests

and says so; any other change must leave it byte-identical.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from functools import partial

import pytest

from repro.config import GPUConfig, SMConfig
from repro.harness.cache import CaseCache, record_to_dict
from repro.harness.expdb import ExperimentDB
from repro.harness.runner import (CaseRunner, CaseSpec, ParallelCaseRunner,
                                  SweepInterrupted)
from repro.serve.runner import ServeRunner, ServeSpec

REPO = pathlib.Path(__file__).resolve().parents[1]
GOLDEN_PATH = REPO / "tests" / "data" / "golden_digests.json"

SCHEMES = ("smk", "naive", "history", "elastic", "rollover",
           "rollover-time", "rollover-nostatic", "spart", "pid", "mpc")
POLICIES = ("gto", "lrr")
CYCLES = 2500

#: (QoS kernel, non-QoS kernel, goal fraction) per case family.
PAIRS = {
    "corun": ("mri-q", "lbm", 0.6),
    "barrier": ("sgemm", "cutcp", 0.5),
    "evict": ("stencil", "sad", 0.5),
}
#: Schemes the barrier-heavy pair runs (quota throttling, TB
#: re-allocation with eviction, and the unmanaged baseline).
BARRIER_SCHEMES = ("smk", "rollover", "spart")
#: Measured cycles per case family, where not :data:`CYCLES`: the evicting
#: pair needs 10 000 cycles before rollover re-allocates TBs by eviction.
FAMILY_CYCLES = {"evict": 10_000}

SERVE_SPEC = ServeSpec(
    process="poisson", params=(("mean_interarrival_cycles", 1500.0),),
    classes=(("rt", "mri-q", 8000, 1, 1.0), ("bg", "sad", 16000, 2, 1.0)),
    seed=5, horizon_cycles=14000, max_concurrent=2)

#: Served cases by the last component of their digest key.  ``bursty-cap``
#: sends bursts of arrivals at a one-deep per-class queue, so some are
#: rejected at admission.
SERVE_SPECS = {
    "smk": SERVE_SPEC,
    "bursty-cap": replace(
        SERVE_SPEC, process="bursty", admission="cap:1",
        params=(("burst_interarrival", 250.0), ("idle_interarrival", 3000.0),
                ("mean_burst_cycles", 2000.0), ("mean_idle_cycles", 4000.0))),
}
SERVE_KEYS = ("serve/gto/smk", "serve/gto/bursty-cap", "serve/lrr/smk")


def gpu_config(core, scheduler_policy):
    """The 2-SM machine of ``tests/test_event_core.py``."""
    return GPUConfig(num_sms=2, num_mcs=1, epoch_length=500,
                     idle_warp_samples=10,
                     sm=SMConfig(warp_schedulers=2),
                     engine_core=core,
                     scheduler_policy=scheduler_policy)


def _digest(value) -> str:
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def case_keys():
    """Every digest key, in file order."""
    keys = []
    for policy in POLICIES:
        keys += [f"corun/{policy}/{scheme}" for scheme in SCHEMES]
        keys += [f"barrier/{policy}/{scheme}" for scheme in BARRIER_SCHEMES]
        keys.append(f"evict/{policy}/rollover")
    return keys + list(SERVE_KEYS)


def serve(core, policy, name):
    """The served case ``serve/<policy>/<name>``, simulated on ``core``."""
    return ServeRunner(gpu_config(core, policy),
                       workers=1).run_spec(SERVE_SPECS[name])


def corun_spec(key):
    """The co-run case ``<family>/<policy>/<scheme>`` as a spec."""
    family, _policy, scheme = key.split("/")
    qos, nonqos, goal = PAIRS[family]
    return CaseSpec.pair(qos, nonqos, goal, scheme)


def compute(core, keys):
    """Digest of every listed case, simulated on ``core``."""
    runners = {}
    digests = {}
    for key in keys:
        family, policy, scheme = key.split("/")
        if family == "serve":
            digests[key] = _digest(serve(core, policy, scheme).to_value())
            continue
        cycles = FAMILY_CYCLES.get(family, CYCLES)
        runner = runners.get((policy, cycles))
        if runner is None:
            runner = runners[policy, cycles] = CaseRunner(
                gpu_config(core, policy), cycles, telemetry=True)
        spec = corun_spec(key)
        record = runner.run_case(spec.names, spec.qos_flags,
                                 spec.goal_fractions, spec.policy)
        digests[key] = _digest(record_to_dict(record))
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenDigests:
    def test_file_lists_every_case(self, golden):
        assert sorted(golden) == sorted(case_keys())

    def test_capped_bursty_case_rejects(self):
        # The digest only guards the admission path if it is exercised.
        outcome = serve("event", "gto", "bursty-cap")
        assert outcome.rejected >= 1
        assert outcome.rejected == sum(
            1 for record in outcome.records if not record.admitted)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_evicting_case_evicts(self, policy):
        # The evict/* digests only guard TB re-allocation if it happens.
        runner = CaseRunner(gpu_config("event", policy),
                            FAMILY_CYCLES["evict"], telemetry=True)
        spec = corun_spec(f"evict/{policy}/rollover")
        record = runner.run_case(spec.names, spec.qos_flags,
                                 spec.goal_fractions, spec.policy)
        assert record.evictions > 0

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("core", ["event", "scan"])
    def test_matches_golden(self, golden, core, policy):
        keys = [key for key in case_keys() if key.split("/")[1] == policy]
        assert compute(core, keys) == {key: golden[key] for key in keys}


class TestSweepsMatchGolden:
    """The ``corun/*`` and ``serve/*`` cases swept through the sweep engine
    reproduce the digests of the direct calls above: over two pool
    workers, and interrupted half-way over the pool then resumed serially
    from the experiment store and case cache."""

    @staticmethod
    def sweep(make, specs, mode, tmp_path):
        if mode == "pool":
            return make(workers=2).sweep(specs)
        db_path = tmp_path / "exp.sqlite"
        interrupted = make(workers=2, expdb=ExperimentDB(db_path),
                           cache=CaseCache(tmp_path))
        interrupted.fault_after = max(1, len(specs) // 2)
        with pytest.raises(SweepInterrupted):
            interrupted.sweep(specs)
        db = ExperimentDB(db_path)
        resumed = make(workers=1, expdb=db, cache=CaseCache(tmp_path))
        outcomes = resumed.sweep(specs)
        assert db.experiment(resumed.experiment_log[0][0])["status"] == "done"
        return outcomes

    @pytest.mark.parametrize("mode", ["pool", "resume"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_sweeps_reproduce_digests(self, golden, tmp_path, policy, mode):
        gpu = gpu_config("event", policy)
        corun_keys = [f"corun/{policy}/{scheme}" for scheme in SCHEMES]
        serve_keys = [key for key in SERVE_KEYS
                      if key.split("/")[1] == policy]
        records = self.sweep(
            partial(ParallelCaseRunner, gpu, CYCLES, telemetry=True),
            [corun_spec(key) for key in corun_keys], mode,
            tmp_path / "corun")
        outcomes = self.sweep(
            partial(ServeRunner, gpu),
            [SERVE_SPECS[key.split("/")[2]] for key in serve_keys], mode,
            tmp_path / "serve")
        digests = {key: _digest(record_to_dict(record))
                   for key, record in zip(corun_keys, records)}
        digests.update((key, _digest(outcome.to_value()))
                       for key, outcome in zip(serve_keys, outcomes))
        assert digests == {key: golden[key]
                           for key in corun_keys + serve_keys}


class TestHashSeedIndependence:
    """Results are a pure function of (spec, code): every digest,
    recomputed in a fresh interpreter, is the committed one whatever the
    interpreter's string-hash seed."""

    SCRIPT = ("import json; from tests.test_golden_digests import "
              "case_keys, compute; "
              "print(json.dumps(compute('event', case_keys())))")

    def test_digests_under_two_hash_seeds(self, golden):
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]),
                   REPRO_CACHE="0", REPRO_EXPDB="0")
        procs = {seed: subprocess.Popen(
                     [sys.executable, "-c", self.SCRIPT], cwd=REPO,
                     env=dict(env, PYTHONHASHSEED=seed),
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                     text=True)
                 for seed in ("0", "4242")}
        for seed, proc in procs.items():
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, (seed, err)
            assert json.loads(out) == golden, seed


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(compute("event", case_keys()), indent=1) + "\n")
