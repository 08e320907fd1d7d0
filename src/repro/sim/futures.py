"""Fan-out completion state, and gates (condition latches).

A :class:`FanoutState` collects the completions of one
:class:`~repro.sim.effects.OpFanoutEffect`.  An op on a crashed memory
*never* completes — callers must wait on quorums (``m - f_M`` of ``m``),
which is exactly how the paper's algorithms are written.

A :class:`Gate` is a local (same-process) level-triggered latch used to hand
items between tasks of one process, e.g. the non-equivocating broadcast
delivery daemon feeding the trusted-transport receive queue.  Gates are
purely local and cost zero delays, consistent with computation being
instantaneous in the model.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.types import OpResult


class FanoutState:
    """Shared completion state of one :class:`~repro.sim.effects.OpFanoutEffect`.

    Each response leg updates the counters in place, and the kernel
    resumes the issuing task (once) with this state when the verdict is
    in.  Tasks woken by a timeout inspect the same fields —
    ``results[i]`` is the i-th target's :class:`~repro.types.OpResult`,
    or ``None`` while (or forever if, e.g. on a crashed memory) that op
    is outstanding.

    ``landed`` counts the request legs applied at their memory so far
    (each work request of a segmented chain is one): while it is 0 the
    fan-out has observed no memory, which is what lets a second reader
    share it (``ReplicatedLog.quorum_read``).

    ``notify`` is the gate a *posted* fan-out pulses at its verdict (None
    for the parking form); ``ctx`` is the issuer's trace context at post
    time, recorded only while observability is attached — a posted
    fan-out's issuer has moved on by the time the verdict lands.
    """

    __slots__ = ("results", "acked", "naked", "done", "landed", "need",
                 "count_acks", "spare_naks", "token", "fired", "notify", "ctx")

    def __init__(self, size: int, need: int, count_acks: bool,
                 spare_naks: int, token: int) -> None:
        self.results: List[Optional[OpResult]] = [None] * size
        self.acked = 0
        self.naked = 0
        self.done = 0
        self.landed = 0
        self.need = need
        self.count_acks = count_acks
        self.spare_naks = spare_naks
        self.token = token
        self.fired = False
        self.notify: Optional["Gate"] = None
        self.ctx: Any = None

    @property
    def satisfied(self) -> bool:
        """The success verdict: *need* ACKs (``count_acks``) or *need*
        completions (quorum-wait mode)."""
        if self.count_acks:
            return self.acked >= self.need
        return self.done >= self.need

    def acked_values(self) -> List[Any]:
        """Values of the targets that have ACKed so far, in target order."""
        return [r.value for r in self.results if r is not None and r.ok]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FanoutState {self.done}/{len(self.results)} done "
            f"ack={self.acked} nak={self.naked} need={self.need}>"
        )


class Gate:
    """A level-triggered latch connecting tasks of the same process.

    Its waiters are ``(task, token)`` pairs parked by the kernel's
    ``gate_wait`` handler via :meth:`park`, which ``Kernel.signal_gate``
    wakes when it drains :meth:`set`.
    """

    __slots__ = ("name", "is_set", "_waiters")

    def __init__(self, name: str = "gate") -> None:
        self.name = name
        self.is_set = False
        self._waiters: List[Tuple[Any, int]] = []

    def set(self) -> List[Tuple[Any, int]]:
        """Open the gate; return the parked ``(task, token)`` pairs to wake."""
        self.is_set = True
        if not self._waiters:
            return _NO_WAITERS
        waiters, self._waiters = self._waiters, []
        return waiters

    def park(self, task: Any, token: int) -> None:
        """Park ``(task, token)`` until the next :meth:`set`."""
        self._waiters.append((task, token))

    def clear(self) -> None:
        """Close the gate; future waiters block until the next :meth:`set`."""
        self.is_set = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gate {self.name} {'set' if self.is_set else 'clear'}>"


#: shared empty list returned by ``Gate.set`` when nobody waits (the common
#: case for repeated signals); callers only iterate it, never mutate it
_NO_WAITERS: List[Tuple[Any, int]] = []
