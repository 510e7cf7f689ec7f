"""Spans, counts and per-layer self time, recorded at the program's boundaries.

Every wrapper here is installed from the benchmark's own files by patching
a public method of the program for the duration of one pass, and removed
afterwards; the program itself carries no tracing code.

Two kinds of boundary share one call stack:

* **spans** (a case, a sweep, a simulator ``run`` segment, a policy hook)
  are kept in memory as ``(span id, parent span id, name, start, end)``
  tuples and written out when the benchmark ends;
* **hot** boundaries (``SM.step``, the scheduler's ``select``,
  ``MemorySubsystem.warp_access``, ``Warp.global_lines``) run millions of
  times per pass, so each only feeds a call count, a self-time
  accumulator and optionally a sum: memory stays bounded however long the
  pass runs.

A boundary's self time is its duration minus the part covered by nested
boundaries of any layer.  Frames nest strictly (one thread), so that part
is the sum of the children's durations.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, str, float, float]

#: The span counter whose growth during a call tells a simulated case from
#: a memo lookup (see :meth:`Tracer.span`).
RUNS = "sim.engine.runs"


class Tracer:
    """Call-stack recorder: self time per layer, counters, coarse spans.

    ``clock`` is injectable so the arithmetic can be checked against a
    synthetic clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.counts: Dict[str, float] = defaultdict(int)
        self.spans: List[Span] = []
        self._span_self: Dict[str, float] = defaultdict(float)
        self._hot: List[tuple] = []
        # Child seconds of every open frame; the root collects time spent
        # outside any boundary.
        self._child: List[float] = [0.0]
        # (span id, layer) of every open span.
        self._open: List[Tuple[int, str]] = [(0, "")]
        self._next_span = 1

    @property
    def current_layer(self) -> str:
        """Layer of the innermost open span ("" outside any span)."""
        return self._open[-1][1]

    def hot(self, layer: str, counter: str, fn: Callable,
            total: Optional[str] = None,
            amount: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` as a hot boundary: calls go to ``counter``, self time
        to ``layer``, and ``amount(args, result)`` to ``total``."""
        child = self._child
        clock = self.clock
        cell = [0.0, 0, 0]  # self seconds, calls, total
        self._hot.append((layer, counter, total, cell))
        if amount is None:
            def wrapper(*args):
                child.append(0.0)
                start = clock()
                try:
                    return fn(*args)
                finally:
                    elapsed = clock() - start
                    cell[0] += elapsed - child.pop()
                    child[-1] += elapsed
                    cell[1] += 1
            return wrapper

        def tallied(*args):
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args)
            finally:
                elapsed = clock() - start
                cell[0] += elapsed - child.pop()
                child[-1] += elapsed
                cell[1] += 1
            cell[2] += amount(args, result)
            return result
        return tallied

    def span(self, layer: str, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` as a span named ``name`` in ``layer``; ``name`` also
        counts its calls.

        ``after(counts, args, result, runs)`` runs when the call returns;
        ``runs`` is how many simulator ``run`` segments the call contained.
        """
        child = self._child
        opened = self._open
        clock = self.clock
        counts = self.counts
        span_self = self._span_self
        spans = self.spans

        def wrapper(*args, **kwargs):
            span_id = self._next_span
            self._next_span = span_id + 1
            parent = opened[-1][0]
            runs_before = counts[RUNS]
            child.append(0.0)
            opened.append((span_id, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                opened.pop()
                span_self[layer] += elapsed - child.pop()
                child[-1] += elapsed
                counts[name] += 1
                spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(counts, args, result, counts[RUNS] - runs_before)
            return result

        return wrapper

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer, spans and hot boundaries together."""
        totals: Dict[str, float] = defaultdict(float)
        totals.update(self._span_self)
        for layer, _, _, cell in self._hot:
            totals[layer] += cell[0]
        return totals

    def counters(self) -> Dict[str, float]:
        """Span counts, ``after`` counts and hot-boundary counts and sums."""
        merged: Dict[str, float] = defaultdict(int)
        merged.update(self.counts)
        for _, counter, total, cell in self._hot:
            merged[counter] += cell[1]
            if total is not None:
                merged[total] += cell[2]
        return merged

    def span_seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(end - start for _, _, span_name, start, end in self.spans
                   if span_name == name)


class Patches:
    """Replaces attributes of classes or modules and puts them back."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def wrap(self, owner, attribute: str, make: Callable) -> None:
        """Set ``owner.attribute`` to ``make(current value)``."""
        own = vars(owner).get(attribute)
        setattr(owner, attribute, make(getattr(owner, attribute)))
        self._undo.append((owner, attribute, own))

    def restore(self) -> None:
        while self._undo:
            owner, attribute, own = self._undo.pop()
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
