"""Inbox management and receive matching.

The :class:`Network` owns per-process inboxes and the set of parked
``recv`` waiters.  The kernel calls :meth:`deliver` when a message's flight
time elapses; if a parked waiter matches, the kernel is told which task to
wake, otherwise the envelope queues in the inbox for a later ``recv``.

Duplicate-delivery protection (link integrity) is a ``delivered`` flag on
the envelope itself, so the network keeps nothing per delivered message.
The kernel never schedules the same envelope twice (a chaos duplicate is a
fresh envelope): the guard is for future transport extensions, not for
current behaviour.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from repro.net.messages import Envelope
from repro.types import ProcessId

MatchFn = Callable[[Envelope], bool]


class RecvWaiter:
    """A task parked in ``recv`` until a matching envelope arrives.

    The kernel identifies the parked task by the ``task`` reference (plus
    its suspension ``token``) and resumes it directly — no per-park wake
    closure.

    One waiter is allocated per parked receive, so this is a hand-written
    ``__slots__`` class.
    """

    __slots__ = ("pid", "token", "task", "topic", "match")

    def __init__(
        self,
        pid: ProcessId,
        token: int,
        task: Any,
        topic: Optional[str] = None,
        match: Optional[MatchFn] = None,
    ) -> None:
        self.pid = pid
        self.token = token
        self.task = task
        self.topic = topic
        self.match = match

    def accepts(self, env: Envelope) -> bool:
        if self.topic is not None and env.topic != self.topic:
            return False
        if self.match is not None and not self.match(env):
            return False
        return True


class Network:
    """Per-process inboxes plus parked receivers.

    The network also carries the failure plane's link state, read on the
    kernel's delivery/send paths and mutated by the failure controller:

    * ``blocked`` — ordered ``(src, dst)`` pairs severed by the current
      partition; delivery across a blocked pair silently drops (messages
      already in flight when the partition lands are lost too);
    * ``link_faults`` — per-directed-link chaos filters (delay inflation,
      probabilistic drop/duplication), applied on the send path.

    Both start empty, so the fault-free hot path pays one truthiness check.
    """

    def __init__(self, n_processes: int) -> None:
        self.inboxes: Dict[ProcessId, Deque[Envelope]] = {
            ProcessId(p): deque() for p in range(n_processes)
        }
        self.waiters: Dict[ProcessId, List[RecvWaiter]] = {
            ProcessId(p): [] for p in range(n_processes)
        }
        self.dropped: int = 0
        #: (src, dst) pairs currently severed by a partition
        self.blocked: Set[tuple] = set()
        #: (src, dst) -> chaos filter (see repro.sim.faults.LinkFault)
        self.link_faults: Dict[tuple, Any] = {}
        self.partition_dropped: int = 0
        self.chaos_dropped: int = 0
        #: envelopes handed in from outside this kernel (parallel fabric)
        self.injected: int = 0

    # ------------------------------------------------------------------
    # delivery path (called by the kernel at arrival time)
    # ------------------------------------------------------------------
    def deliver(self, env: Envelope) -> Optional[RecvWaiter]:
        """Record *env* as delivered; return a waiter to wake, if any.

        When a waiter matches, the envelope is handed to it directly and
        never enters the inbox (exactly-once consumption).
        """
        if env.delivered:
            self.dropped += 1
            return None
        env.delivered = True
        waiters = self.waiters[env.dst]
        if waiters:
            topic = env.topic
            for index, waiter in enumerate(waiters):
                if waiter.topic is not None and waiter.topic != topic:
                    continue
                if waiter.match is not None and not waiter.match(env):
                    continue
                del waiters[index]
                return waiter
        self.inboxes[env.dst].append(env)
        return None

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def try_consume(
        self, pid: ProcessId, topic: Optional[str], match: Optional[MatchFn]
    ) -> Optional[Envelope]:
        """Pop the first queued envelope matching (*topic*, *match*)."""
        inbox = self.inboxes[pid]
        if not inbox:
            return None
        # Fast path: the common consumer pattern is "oldest message on my
        # topic" — check the head before paying a scan + remove-by-index.
        head = inbox[0]
        if (topic is None or head.topic == topic) and (match is None or match(head)):
            inbox.popleft()
            return head
        for index, env in enumerate(inbox):
            if topic is not None and env.topic != topic:
                continue
            if match is not None and not match(env):
                continue
            del inbox[index]
            return env
        return None

    def park(self, waiter: RecvWaiter) -> None:
        """Park a receiver until :meth:`deliver` finds it a match."""
        self.waiters[waiter.pid].append(waiter)

    def unpark(self, pid: ProcessId, token: int, task: Any) -> None:
        """Remove a parked receiver (timeout fired or task died).

        *task* scopes the removal: suspension tokens are per-task counters
        (every task counts from 1), so removing by token alone would also
        evict an unrelated task's waiter that happens to share the number —
        its messages would then bypass the wake path and rot in the inbox.
        """
        self.waiters[pid] = [
            w for w in self.waiters[pid] if w.token != token or w.task is not task
        ]

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def set_partition(self, groups) -> None:
        """Install reachability *groups*: delivery between distinct groups
        drops until :meth:`heal_partition`.  Replaces any prior partition;
        processes named in no group keep full connectivity."""
        blocked = set()
        groups = [frozenset(int(p) for p in group) for group in groups]
        for i, side in enumerate(groups):
            for other in groups[i + 1:]:
                for p in side:
                    for q in other:
                        blocked.add((p, q))
                        blocked.add((q, p))
        self.blocked = blocked

    def heal_partition(self) -> None:
        """Dissolve the partition: full reachability restored."""
        self.blocked = set()

    def drop_process(self, pid: ProcessId) -> None:
        """Discard a crashed process's inbox and waiters."""
        self.inboxes[pid].clear()
        self.waiters[pid].clear()

    def pending_count(self, pid: ProcessId) -> int:
        return len(self.inboxes[pid])
