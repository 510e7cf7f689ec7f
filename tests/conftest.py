"""Shared fixtures for the test suite.

``tiny_gpu`` is deliberately small (2 SMs, 1 MC, 500-cycle epochs) so
integration tests run in milliseconds while still exercising multi-SM and
multi-scheduler paths.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.config import FAST_GPU, GPUConfig, MemoryConfig, SMConfig
from repro.kernels import get_kernel
from repro.kernels.spec import InstructionMix, KernelSpec, MemoryPattern
from repro.sim import GPUSimulator, LaunchedKernel


@pytest.fixture
def tiny_gpu() -> GPUConfig:
    return GPUConfig(
        num_sms=2,
        num_mcs=1,
        epoch_length=500,
        idle_warp_samples=10,
        sm=SMConfig(warp_schedulers=2),
        memory=MemoryConfig(l2_slice_size=128 * 1024),
    )


@pytest.fixture
def fast_gpu() -> GPUConfig:
    return FAST_GPU


@pytest.fixture
def compute_spec() -> KernelSpec:
    """A small compute-bound kernel for unit tests."""
    return KernelSpec(
        name="unit-compute",
        threads_per_tb=64,
        regs_per_thread=16,
        smem_per_tb_bytes=0,
        mix=InstructionMix(alu=0.9, sfu=0.0, ldg=0.05, stg=0.05, lds=0.0),
        memory=MemoryPattern(footprint_bytes=1024 * 1024),
        ilp=0.8,
        body_length=20,
        iterations_per_tb=3,
    )


@pytest.fixture
def memory_spec() -> KernelSpec:
    """A small memory-bound kernel for unit tests."""
    return KernelSpec(
        name="unit-memory",
        threads_per_tb=64,
        regs_per_thread=16,
        smem_per_tb_bytes=0,
        mix=InstructionMix(alu=0.4, sfu=0.0, ldg=0.45, stg=0.15, lds=0.0),
        memory=MemoryPattern(footprint_bytes=64 * 1024 * 1024,
                             coalesced_fraction=0.5, uncoalesced_degree=4,
                             reuse_fraction=0.05),
        ilp=0.3,
        body_length=20,
        iterations_per_tb=3,
        intensity="memory",
    )


@pytest.fixture
def barrier_spec() -> KernelSpec:
    """A kernel whose loop body ends in a TB-wide barrier."""
    return KernelSpec(
        name="unit-barrier",
        threads_per_tb=64,
        regs_per_thread=16,
        smem_per_tb_bytes=512,
        mix=InstructionMix(alu=0.8, sfu=0.0, ldg=0.1, stg=0.0, lds=0.1,
                           barrier_per_iteration=True),
        memory=MemoryPattern(footprint_bytes=1024 * 1024),
        body_length=12,
        iterations_per_tb=2,
    )


def run_isolated(spec: KernelSpec, gpu: GPUConfig, cycles: int = 4000):
    """Run one kernel alone; returns (simulator, result)."""
    sim = GPUSimulator(gpu, [LaunchedKernel(spec)])
    sim.run(cycles)
    return sim, sim.result()


@pytest.fixture
def parboil_sgemm() -> KernelSpec:
    return get_kernel("sgemm")


@pytest.fixture
def kill_pool_worker(monkeypatch):
    """``install(cls, method, victim)`` patches ``cls.method`` so that a pool
    worker calling it with arguments ``victim(*args)`` accepts dies at once
    through ``os._exit`` — no exception, no cleanup, like a killed process.
    Calls in the test process itself run unchanged.  The class-level patch
    reaches pool workers because they are forked from the test process."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers inherit the patch only when forked")
    parent = os.getpid()

    def install(cls, method, victim):
        original = getattr(cls, method)

        def dying(runner, *args):
            if os.getpid() != parent and victim(*args):
                os._exit(1)
            return original(runner, *args)

        monkeypatch.setattr(cls, method, dying)

    return install
