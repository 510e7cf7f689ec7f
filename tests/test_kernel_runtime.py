"""Tests for per-launch kernel runtime constants."""

import pytest

from repro.config import MemoryConfig
from repro.kernels import get_kernel
from repro.kernels.spec import KernelSpec, MemoryPattern
from repro.sim.kernel_runtime import KernelRuntime


def make_runtime(kernel_idx=0, footprint=4 * 1024 * 1024, reuse=0.2,
                 coalesced=0.8, degree=4):
    spec = KernelSpec(
        name="runtime-test",
        memory=MemoryPattern(footprint_bytes=footprint,
                             coalesced_fraction=coalesced,
                             uncoalesced_degree=degree,
                             reuse_fraction=reuse))
    return KernelRuntime(kernel_idx, spec, MemoryConfig(line_size=128))


class TestThresholds:
    def test_threshold_ordering(self):
        runtime = make_runtime(reuse=0.2, coalesced=0.8)
        assert 0 < runtime.reuse_threshold < runtime.coalesce_threshold <= 1 << 32

    def test_reuse_threshold_fraction(self):
        runtime = make_runtime(reuse=0.25)
        assert runtime.reuse_threshold == pytest.approx(0.25 * (1 << 32), rel=1e-9)

    def test_coalesce_threshold_conditional(self):
        """coalesce_threshold covers reuse + coalesced share of the rest."""
        runtime = make_runtime(reuse=0.5, coalesced=0.5)
        expected = (0.5 + 0.5 * 0.5) * (1 << 32)
        assert runtime.coalesce_threshold == pytest.approx(expected, rel=1e-9)

    def test_fully_coalesced_never_fans_out(self):
        runtime = make_runtime(reuse=0.0, coalesced=1.0)
        assert runtime.coalesce_threshold == 1 << 32


class TestGeometry:
    def test_footprint_lines(self):
        runtime = make_runtime(footprint=128 * 1000)
        assert runtime.footprint_lines == 1000

    def test_base_lines_disjoint_and_ordered(self):
        first = make_runtime(kernel_idx=0)
        second = make_runtime(kernel_idx=1)
        third = make_runtime(kernel_idx=2)
        assert first.base_line < second.base_line < third.base_line
        assert second.base_line - first.base_line == \
            third.base_line - second.base_line

    def test_program_cached(self):
        runtime = make_runtime()
        assert runtime.program_length == runtime.program.length
        assert runtime.warps_per_tb == runtime.spec.warps_per_tb


class TestStartCursors:
    def test_within_footprint(self):
        runtime = make_runtime(footprint=128 * 64)
        for tb_id in range(50):
            for warp_id in range(runtime.warps_per_tb):
                cursor = runtime.start_cursor(tb_id, warp_id)
                assert 0 <= cursor < runtime.footprint_lines

    def test_tbs_spread_over_footprint(self):
        runtime = make_runtime(footprint=64 * 1024 * 1024)
        cursors = {runtime.start_cursor(tb_id, 0) for tb_id in range(16)}
        assert len(cursors) == 16  # no trivial clustering

    def test_seed_nonzero_and_stable(self):
        runtime = make_runtime()
        seed = runtime.warp_seed(3, 2)
        assert seed == runtime.warp_seed(3, 2)
        assert seed != 0
        assert seed % 2 == 1  # odd-forced so the LCG cannot collapse


class TestIssueTable:
    @staticmethod
    def _divergent(name):
        from repro.kernels.spec import InstructionMix
        return KernelRuntime(0, KernelSpec(
            name=name, divergence=0.4, ilp=0.5, body_length=40,
            mix=InstructionMix(alu=0.5, sfu=0.1, ldg=0.2, stg=0.1, lds=0.1,
                               barrier_per_iteration=True)), MemoryConfig())

    def test_entries_follow_the_pattern(self):
        runtime = self._divergent("table-a")
        latency = MemoryConfig().latency
        fixed = {0: (latency.alu, 1), 1: (latency.sfu, 4),
                 4: (latency.shared_mem, 1)}
        pattern = runtime.program.pattern
        assert len(runtime.ops) == len(pattern)
        for (kind, delay, lanes), inst in zip(runtime.ops, pattern):
            assert lanes == inst.active_lanes
            if inst.opcode in fixed:
                dependent, independent = fixed[inst.opcode]
                assert kind == 0
                assert delay == (dependent if inst.dependent else independent)
            else:
                assert (kind, delay) == (int(inst.opcode), 0)

    def test_entries_shared_across_kernels(self):
        first, second = self._divergent("table-a"), self._divergent("table-b")
        entries = first.ops + second.ops
        assert len({id(entry) for entry in entries}) == len(set(entries))

    def test_retired_lanes_prefix(self):
        runtime = self._divergent("table-a")
        pattern = runtime.program.pattern
        total = 0
        for pc in range(3 * len(pattern) + 1):
            assert runtime.retired_lanes(pc) == total
            total += pattern[pc % len(pattern)].active_lanes


class TestPcTable:
    """``pc_table``: the issue table unrolled to one entry per instruction
    counter, with the retire flag (kind 1) on a fixed-latency last slot."""

    @pytest.mark.parametrize("name", ["mri-q", "sad", "sgemm", "spmv"])
    def test_entry_is_the_pattern_slot(self, name):
        runtime = KernelRuntime(0, get_kernel(name), MemoryConfig())
        ops, table = runtime.ops, runtime.pc_table
        assert len(table) == runtime.program_length
        last = len(table) - 1
        for pc in range(last):
            assert table[pc] is ops[pc % len(ops)]
        kind, delay, lanes = ops[last % len(ops)]
        # mri-q and sad end on an ALU/SFU op, sgemm on BAR, spmv on LDG.
        assert table[last] == (kind or 1, delay, lanes)
