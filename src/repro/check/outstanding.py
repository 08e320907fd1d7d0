"""The model's one-outstanding-operation rule, as a checker-side observer.

Section 3 ("Executions and steps") lets a process have at most one
outstanding operation per memory.  The paper's algorithms meet it through
their shape — ``pfor`` over the memories, a short *sequence* of operations
per memory, continue on ``m - f_M`` completions — and so does the one
primitive protocols issue memory operations with: a fan-out posts one
chain per memory, a chain's next work request leaves only when the
previous one completed, and the legs a quorum verdict leaves behind are
the ``pfor`` branches the algorithm stopped waiting for.

:class:`OutstandingObserver` checks exactly that, per task: among the
operations a task posted under its current suspension, no two may be in
flight on the same memory.  It rides the ``op_started``/``op_resolved``
hooks the kernel already fires for :mod:`repro.obs`, so a kernel without
it pays nothing for the rule.
"""

from __future__ import annotations

from typing import Any, Dict, Set, Tuple

from repro.errors import OutstandingOpError, SimulationError
from repro.obs.runtime import ObsRuntime
from repro.types import memory_name


class OutstandingObserver(ObsRuntime):
    """An obs runtime that raises :class:`OutstandingOpError` when a task
    posts an operation to a memory it already has one in flight on."""

    def __init__(self, kernel) -> None:
        super().__init__(kernel, profile=False)
        #: op key -> memory, for ops posted and not yet completed
        self._mid_of: Dict[Any, Any] = {}
        #: (task id, suspension token, memory) with an op in flight
        self._busy: Set[Tuple[int, int, Any]] = set()

    def op_started(self, task, key, mid, op, now: float) -> None:
        slot = (key[0], key[1], mid)
        if slot in self._busy:
            raise OutstandingOpError(
                f"{task.label} posted {type(op).__name__} to {memory_name(mid)} "
                "with an operation of the same step still outstanding there"
            )
        self._busy.add(slot)
        self._mid_of[key] = mid
        super().op_started(task, key, mid, op, now)

    def op_resolved(self, key, now: float, status: str) -> None:
        mid = self._mid_of.pop(key, None)
        self._busy.discard((key[0], key[1], mid))
        super().op_resolved(key, now, status)


def watch_outstanding(kernel) -> OutstandingObserver:
    """Attach an :class:`OutstandingObserver` as *kernel*'s obs runtime."""
    if kernel.obs is not None:
        raise SimulationError("an observability runtime is already attached")
    return OutstandingObserver(kernel)
