"""Pluggable scheduling: the kernel's frontier/scheduler contract.

By default the kernel's run loop is a closed hot path: ready lane first,
then the heap in ``(time, seq)`` order.  Setting ``kernel.scheduler`` to a
:class:`Scheduler` switches ``Kernel.run`` onto a slower, *open* loop that
at every step materialises the **frontier** — the set of entries that may
legally fire at the current instant (the whole ready lane, plus every heap
entry whose time equals ``now``) — and lets the scheduler pick which one
fires next.  That choice is the only nondeterminism the deterministic
kernel has, which is exactly what a model checker wants to enumerate
(see :mod:`repro.check`).

The contract is deliberately tiny:

* the kernel calls ``scheduler.pick(kernel, now, frontier)`` once per step;
* ``frontier`` is a list of :class:`FrontierEntry`; the scheduler returns
  either an **int** — the frontier index to fire — or an
  :class:`Injection`, whose fault events the kernel executes at this
  instant instead of firing an entry (a crash/recover/revocation choice
  point);
* :class:`FifoScheduler` always returns 0, which reproduces the default
  loop's order bit-for-bit (asserted by trace-hash tests): the frontier
  lists ready entries before same-instant heap entries, both in seq order.

Nothing here is imported on the default path; the hook costs one
``is None`` check per ``run()`` call.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.sim.event_queue import (
    EV_CALL,
    EV_DELIVER,
    EV_FAN_ARRIVE,
    EV_FAN_RESOLVE,
    EV_FAULT,
    EV_RECV_TIMEOUT,
    EV_RESUME,
    EV_WAKE,
)
from repro.sim.memops import leg_target

#: human-readable names, indexed by event kind
EV_NAMES = (
    "call",
    "resume",
    "wake",
    "deliver",
    "recv_timeout",
    "fault",
    "fan_arrive",
    "fan_resolve",
)


class FrontierEntry:
    """One same-instant-ready queue entry, as shown to a scheduler.

    ``seq`` is the queue's global sequence number — stable across runs
    that execute the same prefix, so it doubles as the entry's identity in
    counterexample traces and sleep sets.  ``lane`` is ``"ready"`` or
    ``"heap"``; ``index``/``raw`` hold what the kernel needs to remove the
    entry from its lane when chosen.
    """

    __slots__ = ("lane", "index", "raw", "time", "seq", "kind", "a", "b", "c")

    def __init__(self, lane, index, raw, time, seq, kind, a, b, c) -> None:
        self.lane = lane
        self.index = index
        self.raw = raw
        self.time = time
        self.seq = seq
        self.kind = kind
        self.a = a
        self.b = b
        self.c = c

    def label(self) -> str:
        """A compact human-readable description (for traces and dumps)."""
        kind = self.kind
        name = EV_NAMES[kind] if 0 <= kind < len(EV_NAMES) else f"ev{kind}"
        target = _target_of(kind, self.a, self.b, self.c)
        return f"{name}({target})" if target else name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FrontierEntry #{self.seq} {self.lane} {self.label()}>"


def _target_of(kind: int, a: Any, b: Any, c: Any) -> str:
    """Best-effort operand summary; never raises on foreign payloads."""
    try:
        if kind in (EV_RESUME, EV_WAKE, EV_RECV_TIMEOUT, EV_FAN_RESOLVE):
            return getattr(a, "label", None) or repr(a)
        if kind == EV_DELIVER:
            return f"p{int(a.dst) + 1}:{a.topic}"
        if kind == EV_FAN_ARRIVE:
            mid, op = leg_target(c)
            return f"{a.label}->mu{int(mid) + 1}:{type(op).__name__}"
        if kind == EV_FAULT:
            return repr(a)
        if kind == EV_CALL:
            return getattr(a, "__name__", "fn")
    except Exception:  # pragma: no cover - labels must never break a run
        pass
    return ""


class Injection(object):
    """A scheduler decision that fires fault events instead of an entry.

    ``events`` is a sequence of ``(delay, fault_event)`` pairs: delay 0
    executes at the current instant through the kernel's failure
    controller; a positive delay is armed as a normal ``EV_FAULT`` heap
    entry (e.g. a crash now with a scripted recovery later).  ``name``
    identifies the injection in traces and replay plans.
    """

    __slots__ = ("name", "events")

    def __init__(self, name: str, events: Sequence[Tuple[float, Any]]) -> None:
        self.name = name
        self.events = tuple(events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Injection({self.name})"


class Scheduler:
    """Base class of pluggable schedulers (duck-typed; subclassing is
    optional — the kernel only calls :meth:`pick`)."""

    def pick(self, kernel, now: float, frontier: List[FrontierEntry]):
        """Return the frontier index to fire, or an :class:`Injection`."""
        raise NotImplementedError


class FifoScheduler(Scheduler):
    """The default order, made explicit: always fire ``frontier[0]``.

    Exists to pin the equivalence contract: a run under ``FifoScheduler``
    must be bit-for-bit identical (trace hash, counters, final time) to a
    run with ``kernel.scheduler is None``.
    """

    def pick(self, kernel, now: float, frontier: List[FrontierEntry]) -> int:
        return 0


class RandomScheduler(Scheduler):
    """Fire a uniformly random frontier entry (seeded — reproducible).

    Not a model checker: a cheap schedule-fuzzer for tests and examples,
    and a sanity baseline for the explorer ("random search finds the bug
    in N runs; DFS+sleep-sets in M").  Uses its own RNG, not the kernel's,
    so fuzzing the schedule never perturbs protocol randomness.
    """

    def __init__(self, seed: int = 0) -> None:
        import random

        self.rng = random.Random(seed)

    def pick(self, kernel, now: float, frontier: List[FrontierEntry]) -> int:
        return self.rng.randrange(len(frontier))


def build_frontier(queue, now: float) -> List[FrontierEntry]:
    """Materialise the frontier at *now*: ready lane (FIFO), then
    same-instant heap entries (seq order) — index 0 is always what the
    default loop would fire next."""
    frontier: List[FrontierEntry] = []
    for index, entry in enumerate(queue.ready_frontier()):
        kind, a, b, c, seq = entry
        frontier.append(
            FrontierEntry("ready", index, entry, now, seq, kind, a, b, c)
        )
    for entry in queue.heap_frontier(now):
        time, seq, kind, a, b, c = entry
        frontier.append(
            FrontierEntry("heap", None, entry, time, seq, kind, a, b, c)
        )
    return frontier
