"""Per-launch precomputed kernel constants.

A :class:`KernelRuntime` is created once per launched kernel and shared by
all of its warps: the expanded warp program, its scalar issue table (one
``(kind, delay, lanes)`` entry per pattern slot) and that table unrolled to
one entry per instruction counter (``pc_table``, read by ``SM.step``), the
address-generation thresholds as raw 32-bit integers (so the warp LCG can be
compared without float math), and the kernel's private slice of the
line-address space.

Kernels get disjoint address bases: co-runners never share data, but they do
contend for L2 capacity and memory-controller bandwidth — exactly the
interference the paper manages.
"""

from __future__ import annotations

from functools import lru_cache

from repro.config import LatencyConfig, MemoryConfig
from repro.kernels.spec import KernelSpec
from repro.kernels.trace import WarpProgram

_UINT32 = 1 << 32
_BASE_STRIDE_LINES = 1 << 34  # kernels live 2^34 lines apart


@lru_cache(maxsize=None)
def _entry(kind: int, delay: int, lanes: int) -> tuple:
    """One shared issue-table entry per distinct ``(kind, delay, lanes)``:
    hundreds of launched kernels (a serving run) then hold references to a
    handful of tuples instead of one tuple per pattern slot each.  The
    entries are immutable and their domain is a few dozen values (opcode
    kinds x latencies x lane counts), so the cache stays small."""
    return (kind, delay, lanes)


def issue_table(pattern, latency: LatencyConfig) -> tuple:
    """``(kind, delay, lanes)`` per pattern slot.

    ``kind`` is 0 for the fixed-latency ops (ALU, SFU, LDS), which
    ``SM.step`` issues inline, and the opcode (2 LDG, 3 STG, 5 BAR) for the
    ones its slow path dispatches on.  ``delay`` is a fixed-latency op's
    issue-to-ready time: the pipeline latency when it depends on its
    predecessor, else 1 (ALU, LDS) or 4 (SFU issue interval).  It is 0 for
    the memory and barrier kinds, whose readiness the slow path decides.
    """
    table = []
    for inst in pattern:
        op = inst.opcode
        kind = 0
        if op == 0:  # ALU
            delay = latency.alu if inst.dependent else 1
        elif op == 1:  # SFU
            delay = latency.sfu if inst.dependent else 4
        elif op == 4:  # LDS
            delay = latency.shared_mem if inst.dependent else 1
        else:  # LDG, STG, BAR
            kind, delay = int(op), 0
        table.append(_entry(kind, delay, inst.active_lanes))
    return tuple(table)


def pc_table(ops: tuple, length: int) -> tuple:
    """The issue table unrolled over a ``length``-instruction program:
    entry ``pc`` is ``ops[pc % len(ops)]``, except that a fixed-latency
    last instruction gets kind 1, so the issue that retires a warp takes
    ``SM._issue`` and the inline path needs no end-of-program check.

    The table is per launch, not cached by content: a served request's
    kernel is renamed ``<kernel>@<request id>`` and the pattern generator
    is seeded by the name, so no two launches of a serving run have equal
    tables.  The engine drops a finite kernel's table when it retires."""
    table = [ops[pc % len(ops)] for pc in range(length)]
    kind, delay, lanes = table[-1]
    if kind == 0:
        table[-1] = _entry(1, delay, lanes)
    return tuple(table)


class KernelRuntime:
    """Per-launch constants shared by a kernel's warps (``pc_table`` is
    emptied once a finite kernel has retired and has no warps left)."""

    __slots__ = (
        "kernel_idx", "spec", "program", "base_line", "footprint_lines",
        "reuse_threshold", "coalesce_threshold", "uncoalesced_degree",
        "program_length", "warps_per_tb", "ops", "pc_table", "body_lanes",
    )

    def __init__(self, kernel_idx: int, spec: KernelSpec,
                 memory: MemoryConfig):
        self.kernel_idx = kernel_idx
        self.spec = spec
        self.program = WarpProgram.for_spec(spec)
        self.program_length = self.program.length
        self.warps_per_tb = spec.warps_per_tb
        self.ops = issue_table(self.program.pattern, memory.latency)
        self.pc_table = pc_table(self.ops, self.program_length)
        self.body_lanes = sum(entry[2] for entry in self.ops)
        self.base_line = kernel_idx * _BASE_STRIDE_LINES
        self.footprint_lines = max(
            1, spec.memory.footprint_bytes // memory.line_size)
        reuse = spec.memory.reuse_fraction
        coalesced = spec.memory.coalesced_fraction
        # The warp LCG value r in [0, 2^32) selects: reuse if r < reuse_thr,
        # coalesced stream if r < coalesce_thr, else uncoalesced fan-out.
        self.reuse_threshold = int(reuse * _UINT32)
        self.coalesce_threshold = int((reuse + (1.0 - reuse) * coalesced) * _UINT32)
        self.uncoalesced_degree = spec.memory.uncoalesced_degree

    def start_cursor(self, tb_id: int, warp_id_in_tb: int) -> int:
        """Spread warps' streaming cursors across the footprint.

        TBs start at evenly spaced offsets and warps within a TB are offset
        by a few lines each, approximating how real grids tile their input.
        """
        tb_offset = (tb_id * 7919 * 64) % self.footprint_lines
        return (tb_offset + warp_id_in_tb * 4) % self.footprint_lines

    def retired_lanes(self, pc: int) -> int:
        """Thread instructions a warp has retired after issuing ``pc``
        instructions: full loop bodies plus the lane prefix of the current
        one (every issued slot retires its ``active_lanes``, barriers 32)."""
        full, slot = divmod(pc, len(self.ops))
        return (full * self.body_lanes
                + sum(entry[2] for entry in self.ops[:slot]))

    def warp_seed(self, tb_id: int, warp_id_in_tb: int) -> int:
        return (hash((self.kernel_idx, tb_id, warp_id_in_tb)) & 0xFFFFFFFF) | 1
