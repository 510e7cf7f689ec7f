"""Warp issue policies.

Each SM has ``warp_schedulers`` independent schedulers; warps are distributed
across them at TB dispatch (Section 2.2).  The Table 1 policy is **GTO**
(greedy-then-oldest): keep issuing from the last warp while it stays ready,
otherwise fall back to the oldest ready warp.  **LRR** (loose round robin) is
provided for ablations.

The quota filter of the Enhanced Warp Scheduler (Section 3.3) enters here as
the ``quota_ok`` boolean list indexed by kernel: a warp whose kernel has
exhausted its quota is invisible to selection, leaving the underlying policy
untouched — "the original warp scheduling algorithm is used throughout the
lifetime of kernels, except that kernels are throttled once their quotas are
exhausted."

Selection is one O(warps) scan in warp-list order, which is dispatch order:
the first ready, quota-eligible warp is the oldest (GTO), or the one
closest after the rotation index (LRR).  A warp that is not running (parked
at a barrier, frozen, done) holds ``ready_at = NEVER``
(:meth:`Warp.set_state`), so readiness alone implies running and the scan
never reads ``state``.  Both engine cores (``GPUConfig.engine_core``) share
these classes; the cores differ only in which SMs the engine steps
(:mod:`repro.sim.engine`).  ``SM.step`` issues the greedy GTO warp inline
when it is still ready and quota-eligible — exactly the first branch of
:meth:`GTOScheduler.select` — and calls ``select`` only otherwise.

Schedulers keep a ``sleep_until`` cycle: when selection finds nothing ready
the earliest wake-up among eligible warps is cached so stalled schedulers
cost one comparison per cycle.  Any event that can create readiness out of
band — TB dispatch, barrier release, quota refresh — must call
``wake()`` (or reset ``sleep_until`` through the SM).

Every write to ``sleep_until`` made here invokes the optional ``notify``
callback so the owning SM can maintain a cached minimum over its schedulers
(the engine's per-SM sleep skipping and idle-skip read that cache instead
of rescanning every scheduler of every SM each cycle).
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import ENGINE_CORES
from repro.sim.warp import NEVER, Warp


class GTOScheduler:
    """Greedy-then-oldest warp scheduler."""

    __slots__ = ("warps", "last", "sleep_until", "notify")

    def __init__(self, notify=None) -> None:
        self.warps: List[Warp] = []
        self.last: Optional[Warp] = None
        self.sleep_until = 0
        self.notify = notify

    # --------------------------------------------------------------- hosting

    def add_warp(self, warp: Warp) -> None:
        warp.sched = self
        warp.pos = len(self.warps)
        self.warps.append(warp)
        self.wake()

    def remove_warp(self, warp: Warp) -> None:
        warps = self.warps
        index = warp.pos
        if not (0 <= index < len(warps) and warps[index] is warp):
            index = warps.index(warp)
        del warps[index]
        for i in range(index, len(warps)):
            warps[i].pos = i
        warp.sched = None
        warp.pos = -1
        if self.last is warp:
            self.last = None
        self.wake()

    def wake(self) -> None:
        if self.sleep_until:
            self.sleep_until = 0
            if self.notify is not None:
                self.notify()

    def _sleep(self, until: int) -> None:
        self.sleep_until = until
        if self.notify is not None:
            self.notify()

    # ------------------------------------------------------------- selection

    def select(self, cycle: int, quota_ok) -> Optional[Warp]:
        """Pick the warp to issue this cycle, or None."""
        if cycle < self.sleep_until:
            return None
        last = self.last
        if (last is not None and last.ready_at <= cycle
                and quota_ok[last.kernel_idx]):
            return last
        earliest = NEVER
        for warp in self.warps:
            # Most scanned warps are stalled behind the current earliest
            # wake-up (parked ones at NEVER) and cost one attribute read.
            ready_at = warp.ready_at
            if ready_at <= cycle:
                if quota_ok[warp.kernel_idx]:
                    self.last = warp
                    return warp
            elif ready_at < earliest and quota_ok[warp.kernel_idx]:
                earliest = ready_at
        self._sleep(earliest)
        return None

    # ------------------------------------------------------------ inspection

    def sample_ready(self, cycle: int, idle_sum: List[int]) -> None:
        """Accumulate per-kernel ready-warp counts, quota-blind (Sec 3.6)."""
        for warp in self.warps:
            if warp.ready_at <= cycle:
                idle_sum[warp.kernel_idx] += 1


class LRRScheduler(GTOScheduler):
    """Loose round robin: rotate priority among ready warps by list scan."""

    __slots__ = ("_next_index",)

    def __init__(self, notify=None) -> None:
        super().__init__(notify)
        self._next_index = 0

    def select(self, cycle: int, quota_ok) -> Optional[Warp]:
        if cycle < self.sleep_until:
            return None
        warps = self.warps
        count = len(warps)
        if count == 0:
            self._sleep(NEVER)
            return None
        earliest = NEVER
        start = self._next_index % count
        for offset in range(count):
            warp = warps[(start + offset) % count]
            ready_at = warp.ready_at
            if ready_at <= cycle:
                if quota_ok[warp.kernel_idx]:
                    self._next_index = (start + offset + 1) % count
                    self.last = warp
                    return warp
            elif ready_at < earliest and quota_ok[warp.kernel_idx]:
                earliest = ready_at
        self._sleep(earliest)
        return None


_POLICIES = {"gto": GTOScheduler, "lrr": LRRScheduler}


def make_scheduler(policy: str, notify=None, core: str = "event"):
    """Factory for the configured issue policy.

    Every engine core shares one selection implementation; ``core`` is
    still validated so a misconfigured machine fails here, not later.
    """
    cls = _POLICIES.get(policy)
    if cls is None or core not in ENGINE_CORES:
        raise ValueError(
            f"unknown scheduler policy/core combination {policy!r}/{core!r}")
    return cls(notify)
