"""A deterministic time-ordered event queue with typed, allocation-lean entries.

Ties at equal virtual time are broken by insertion order (a monotonically
increasing sequence number), which makes whole simulations reproducible from
their seed: no dict-ordering or hash randomisation can leak into schedules.

Entry format
------------

Heap entries are flat tuples ``(time, seq, kind, a, b, c)``.  ``kind`` is a
small integer from the ``EV_*`` namespace below and ``a``/``b``/``c`` are the
handler's operands (task, token, envelope, fan-out state, ...).  The kernel owns the
meaning of each kind; the queue never inspects them.  Compared with the old
``(time, seq, closure)`` format this removes one lambda + closure-cell
allocation per scheduled event — the dominant allocation on the hot path.

Alongside the heap there is a *ready lane*: a FIFO of entries that must run
at the **current** instant, before any further heap entry.  The kernel uses
it to resume tasks woken by an event that is being processed right now
(message delivery, op completion, gate signal) without round-tripping
through the heap — the "double event" wake path the heap version paid.
Ready entries carry no time: they are defined to run at ``Kernel.now``.

Both lanes count into ``pushed``/``popped``/``len`` so queue statistics keep
describing every scheduled event, whichever lane carried it.

Both lanes also share one sequence counter: ready entries store it as a
trailing fifth element ``(kind, a, b, c, seq)``.  The default run loop
ignores it; the pluggable-scheduler path (see :mod:`repro.sim.schedule`
and :mod:`repro.check`) uses it as a stable per-entry identity — two runs
that execute the same prefix of events assign the same seq to the same
entry, which is what lets a model checker name "the entry the other
schedule ran first" across runs.  The *relative* order of seqs within each
lane is exactly the insertion order either way, so sharing the counter
does not perturb the default schedule.

Timers
------

A task keeps one armed timer entry in the heap.  A later deadline is pushed
when that entry pops, if its wait is still pending, with the seq it took at
park time (``Kernel._arm``), so every live entry pops in the same order.  A
timer superseded first is never pushed: ``pushed``, ``popped`` and ``len``
do not count it.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Deque, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Event kinds.  The kernel maps each to a handler via a flat dispatch list,
# so the numbering must stay dense and start at zero.  Kinds live only in
# one process: traces persist entry seqs and labels, never kind numbers,
# so removing a kind may renumber the rest.
# ---------------------------------------------------------------------------
EV_CALL = 0          #: a = zero-argument callable (failure plans, ad-hoc timers)
EV_RESUME = 1        #: a = task, b = resume value
EV_WAKE = 2          #: a = task, b = suspension token, c = resume value
EV_DELIVER = 3       #: a = envelope whose flight time elapsed
EV_RECV_TIMEOUT = 4  #: a = task, b = suspension token (parked recv timed out)
EV_FAULT = 5         #: a = typed fault event (see repro.sim.faults) — no closure
EV_FAN_ARRIVE = 6    #: a = task, b = FanoutState, c = leg (see repro.sim.memops) — request leg
EV_FAN_RESOLVE = 7   #: a = task, b = FanoutState, c = leg (see repro.sim.memops) — response

#: One scheduled event: ``(time, seq, kind, a, b, c)``.
Entry = Tuple[float, int, int, Any, Any, Any]


class EventQueue:
    """Min-heap of ``(time, seq, kind, a, b, c)`` entries plus a ready lane."""

    __slots__ = ("_heap", "_ready", "_seq", "pushed", "popped")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._ready: Deque[Tuple[int, Any, Any, Any]] = deque()
        self._seq = 0
        self.pushed = 0
        self.popped = 0

    # ------------------------------------------------------------------
    # heap lane
    # ------------------------------------------------------------------
    def push(self, time: float, kind: int, a: Any = None, b: Any = None, c: Any = None) -> None:
        """Schedule event *kind* with operands ``(a, b, c)`` at virtual *time*."""
        if time != time or time < 0:  # NaN or negative
            raise ValueError(f"invalid event time {time!r}")
        self._seq += 1
        heappush(self._heap, (time, self._seq, kind, a, b, c))
        self.pushed += 1

    def pop(self) -> Tuple[float, int, Any, Any, Any]:
        """Remove and return the earliest ``(time, kind, a, b, c)``.

        Only valid when the ready lane is empty — the kernel drains ready
        entries first so same-instant wakes never overtake their cause.
        """
        time, _seq, kind, a, b, c = heappop(self._heap)
        self.popped += 1
        return time, kind, a, b, c

    def peek_time(self) -> Optional[float]:
        """Earliest scheduled heap time, or None when the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def idle_before(self, horizon: float) -> bool:
        """True when nothing is runnable strictly before virtual *horizon*.

        The conservative parallel driver's barrier predicate: a worker
        kernel stops at a time barrier when its ready lane is drained
        (ready entries run *now*, which is always inside the current
        window) and the earliest heap entry sits at or past the horizon.
        """
        if self._ready:
            return False
        return not self._heap or self._heap[0][0] >= horizon

    def next_time(self) -> Optional[float]:
        """The next instant this queue has work at, or None when drained.

        Only meaningful between run windows (ready lane empty); a ready
        entry has no time of its own, so with one pending this returns
        ``-inf`` to mean "immediately, at the owner's current now".
        """
        if self._ready:
            return float("-inf")
        return self._heap[0][0] if self._heap else None

    # ------------------------------------------------------------------
    # ready lane (same-instant fast path)
    # ------------------------------------------------------------------
    def push_ready(self, kind: int, a: Any = None, b: Any = None, c: Any = None) -> None:
        """Enqueue event *kind* to run at the current instant, before the heap."""
        self._seq += 1
        self._ready.append((kind, a, b, c, self._seq))
        self.pushed += 1

    def pop_ready(self) -> Tuple[int, Any, Any, Any]:
        """Remove and return the oldest ready ``(kind, a, b, c)``."""
        entry = self._ready.popleft()
        self.popped += 1
        return entry[:4]

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    # ------------------------------------------------------------------
    # frontier support (pluggable-scheduler path only — never on the
    # default hot loop)
    # ------------------------------------------------------------------
    def ready_frontier(self) -> List[Tuple[int, Any, Any, Any, int]]:
        """The ready lane's entries ``(kind, a, b, c, seq)`` in FIFO order."""
        return list(self._ready)

    def heap_frontier(self, time: float) -> List[Entry]:
        """All heap entries scheduled exactly at *time*, in seq order.

        A linear scan: the scheduled path trades per-step cost for the
        ability to fire any same-instant entry, and model-checked
        configurations are small by design.
        """
        return sorted(entry for entry in self._heap if entry[0] == time)

    def take_ready(self, index: int) -> Tuple[int, Any, Any, Any, int]:
        """Remove and return the ready entry at *index* (scheduled mode)."""
        entry = self._ready[index]
        del self._ready[index]
        return entry

    def remove_heap_entry(self, entry: Entry) -> None:
        """Remove one specific heap entry (scheduled mode); restores the
        heap invariant afterwards.  Seq uniqueness guarantees the tuple
        comparison never reaches the (possibly unorderable) payloads."""
        self._heap.remove(entry)
        heapify(self._heap)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._heap) + len(self._ready)

    def __bool__(self) -> bool:
        return bool(self._ready) or bool(self._heap)
