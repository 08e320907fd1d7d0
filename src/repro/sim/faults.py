"""Typed fault events and the kernel's :class:`FailureController`.

The failure plane used to be frozen at t=0: crash timers installed as
lambda closures, and nothing ever came back.  This module makes failures
*events on a timeline*: every fault is a typed, ``__slots__`` value object
with an integer ``kind`` tag (mirroring the kernel's effect/event tagging),
scheduled through the same typed event queue (``EV_FAULT`` entries — no
per-fault closure), and executed by the :class:`FailureController` that
every kernel owns.

Fault kinds cover the full churn vocabulary of the paper's model:

* **crash AND recover** for processes (tasks are killed on crash and
  re-spawned through registered recovery hooks — protocol state is rebuilt
  from the memory regions, e.g. Protected Memory Paxos' takeover read) and
  for memories (revived with registers intact, or wiped to boot state);
* **partitions and heals** — link-level reachability sets enforced at
  delivery time in :mod:`repro.net.network`;
* **link chaos** — per-directed-link delay inflation, probabilistic drop
  and duplication, composable as latency filters on the send path;
* **permission faults** — scripted adversarial ``changePermission``
  attempts applied directly at a memory (the storm adversary sits next to
  the NIC), still subject to the region's ``legalChange`` policy: the
  memory remains the enforcement point.

Every executed fault is recorded in the metrics ledger's fault timeline,
so benchmarks can plot recovery latency against the exact churn schedule.
The user-facing DSL that builds these events lives in
:mod:`repro.failures.script`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.mem.operations import ChangePermissionOp
from repro.mem.permissions import Permission, adversarial_grab
from repro.types import MemoryId, ProcessId, memory_name, process_name

# ---------------------------------------------------------------------------
# Fault kinds.  The controller maps each to a handler via a flat dispatch
# list, so the numbering must stay dense and start at zero.
# ---------------------------------------------------------------------------
FK_CRASH_PROC = 0    #: kill a process (tasks die, inbox dropped)
FK_RECOVER_PROC = 1  #: revive a process (recovery hooks re-spawn its tasks)
FK_CRASH_MEM = 2     #: crash a memory (subsequent ops hang)
FK_RECOVER_MEM = 3   #: revive a memory (regions intact, or wiped)
FK_PARTITION = 4     #: install link-level reachability groups
FK_HEAL = 5          #: dissolve the current partition
FK_LINK_SET = 6      #: install/compose a per-link chaos filter
FK_LINK_CLEAR = 7    #: remove a per-link chaos filter
FK_PERM_CHANGE = 8   #: one adversarial changePermission attempt at a memory


class CrashProcess:
    """Crash process *pid*: its tasks are killed and never resume."""

    __slots__ = ("pid",)
    kind = FK_CRASH_PROC

    def __init__(self, pid: int) -> None:
        self.pid = int(pid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CrashProcess({process_name(self.pid)})"


class RecoverProcess:
    """Recover process *pid*: recovery hooks re-spawn its protocol tasks."""

    __slots__ = ("pid",)
    kind = FK_RECOVER_PROC

    def __init__(self, pid: int) -> None:
        self.pid = int(pid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecoverProcess({process_name(self.pid)})"


class CrashMemory:
    """Crash memory *mid*: operations on it hang from now on."""

    __slots__ = ("mid",)
    kind = FK_CRASH_MEM

    def __init__(self, mid: int) -> None:
        self.mid = int(mid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CrashMemory({memory_name(self.mid)})"


class RecoverMemory:
    """Revive memory *mid*; ``wipe`` clears registers and resets permissions.

    A non-wiped revival models a memory that was merely unreachable — its
    regions and permission state survive.  A wiped revival models replacing
    the hardware: safe for agreement only while the set of *ever-wiped*
    memories stays within the protocol's memory-failure budget, because a
    wipe forgets accepted values exactly like a permanent crash does.
    """

    __slots__ = ("mid", "wipe")
    kind = FK_RECOVER_MEM

    def __init__(self, mid: int, wipe: bool = False) -> None:
        self.mid = int(mid)
        self.wipe = bool(wipe)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecoverMemory({memory_name(self.mid)}, wipe={self.wipe})"


class Partition:
    """Split processes into reachability groups; cross-group delivery drops.

    ``groups`` are disjoint sets of pids.  Processes not named in any group
    keep full connectivity (they can relay — that is the scripted
    topology's business).  Installing a partition *replaces* the previous
    one; :class:`Heal` dissolves it entirely.
    """

    __slots__ = ("groups",)
    kind = FK_PARTITION

    def __init__(self, groups: Iterable[Iterable[int]]) -> None:
        self.groups: Tuple[frozenset, ...] = tuple(
            frozenset(int(p) for p in group) for group in groups
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sides = " | ".join(
            "{" + ",".join(process_name(p) for p in sorted(g)) + "}"
            for g in self.groups
        )
        return f"Partition({sides})"


class Heal:
    """Dissolve the current partition: full reachability restored."""

    __slots__ = ()
    kind = FK_HEAL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Heal()"


class LinkFault:
    """A composable chaos filter on one directed process link.

    ``delay_factor`` multiplies and ``extra_delay`` adds to the model's
    flight time; ``drop_prob`` loses the message; ``duplicate_prob``
    delivers a second, independent copy (a fresh envelope — the network's
    exactly-once delivery guard deliberately does not apply, which is what
    makes duplication a real protocol-idempotence test) one extra delay
    unit after the original.  All randomness flows through the kernel's
    seeded RNG, so chaos schedules replay deterministically.
    """

    __slots__ = ("delay_factor", "extra_delay", "drop_prob", "duplicate_prob")

    def __init__(
        self,
        delay_factor: float = 1.0,
        extra_delay: float = 0.0,
        drop_prob: float = 0.0,
        duplicate_prob: float = 0.0,
    ) -> None:
        if delay_factor <= 0:
            raise ValueError("delay_factor must be positive")
        if extra_delay < 0:
            raise ValueError("extra_delay must be >= 0")
        if not 0.0 <= drop_prob <= 1.0 or not 0.0 <= duplicate_prob <= 1.0:
            raise ValueError("probabilities must be within [0, 1]")
        self.delay_factor = delay_factor
        self.extra_delay = extra_delay
        self.drop_prob = drop_prob
        self.duplicate_prob = duplicate_prob

    def compose(self, other: "LinkFault") -> "LinkFault":
        """Stack *other* on top of this filter (factors multiply, extras
        add, loss events union)."""
        return LinkFault(
            delay_factor=self.delay_factor * other.delay_factor,
            extra_delay=self.extra_delay + other.extra_delay,
            drop_prob=1.0 - (1.0 - self.drop_prob) * (1.0 - other.drop_prob),
            duplicate_prob=1.0
            - (1.0 - self.duplicate_prob) * (1.0 - other.duplicate_prob),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkFault(x{self.delay_factor:g}+{self.extra_delay:g}, "
            f"drop={self.drop_prob:g}, dup={self.duplicate_prob:g})"
        )


class SetLinkFault:
    """Install (or compose onto) the chaos filter of link ``src -> dst``."""

    __slots__ = ("src", "dst", "fault")
    kind = FK_LINK_SET

    def __init__(self, src: int, dst: int, fault: LinkFault) -> None:
        self.src = int(src)
        self.dst = int(dst)
        self.fault = fault

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SetLinkFault({process_name(self.src)}->{process_name(self.dst)}, {self.fault!r})"


class ClearLinkFault:
    """Expire one chaos filter on link ``src -> dst``.

    ``fault`` identifies which stacked filter expires (the matching
    :class:`SetLinkFault`'s object); the remaining filters on the link are
    recomposed, so overlapping timed faults expire independently.
    ``fault=None`` clears the whole link.
    """

    __slots__ = ("src", "dst", "fault")
    kind = FK_LINK_CLEAR

    def __init__(self, src: int, dst: int, fault: Optional[LinkFault] = None) -> None:
        self.src = int(src)
        self.dst = int(dst)
        self.fault = fault

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        which = "all" if self.fault is None else repr(self.fault)
        return f"ClearLinkFault({process_name(self.src)}->{process_name(self.dst)}, {which})"


class PermissionChange:
    """One adversarial ``changePermission`` attempt on behalf of *pid*.

    Applied directly at each targeted memory (no request/response legs —
    the adversary sits at the memory), and still filtered by the region's
    ``legalChange`` policy: an illegal request is a recorded NAK, exactly
    as for a Byzantine process.  ``permission=None`` requests the
    exclusive-writer grab shape for *pid* — the legal takeover move of
    Protected Memory Paxos, which makes a storm of these the paper's
    permission-churn adversary.
    """

    __slots__ = ("pid", "region", "mids", "permission")
    kind = FK_PERM_CHANGE

    def __init__(
        self,
        pid: int,
        region: str,
        mids: Optional[Tuple[int, ...]] = None,
        permission: Optional[Permission] = None,
    ) -> None:
        self.pid = int(pid)
        self.region = region
        self.mids = None if mids is None else tuple(int(m) for m in mids)
        self.permission = permission

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "all" if self.mids is None else self.mids
        return f"PermissionChange({process_name(self.pid)}, {self.region!r}, mids={where})"


#: Any of the event classes above.
FaultEvent = Any

#: Recovery/crash hook: called with the affected pid.
ProcessHook = Callable[[ProcessId], None]


class FailureController:
    """Executes fault events and owns the kernel's failure-plane state.

    The controller is deliberately thin at runtime: partition reachability
    and link filters live on the :class:`~repro.net.network.Network` (where
    the delivery path reads them), crash flags live on the kernel and the
    memories — the controller mutates them, dispatches per-kind through a
    flat handler table, notifies registered hooks, and writes the fault
    timeline into the metrics ledger.
    """

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        self._recover_hooks: List[ProcessHook] = []
        self._crash_hooks: List[ProcessHook] = []
        #: per-link stack of active filters; the network's ``link_faults``
        #: holds their composition (what the send path reads), and expiring
        #: one filter recomposes the survivors
        self._link_stack: dict = {}

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_crash(self, hook: ProcessHook) -> None:
        """Call *hook(pid)* whenever a process crashes."""
        self._crash_hooks.append(hook)

    def on_recover(self, hook: ProcessHook) -> None:
        """Call *hook(pid)* whenever a process recovers (re-spawn tasks here)."""
        self._recover_hooks.append(hook)

    def notify_crash(self, pid: ProcessId) -> None:
        for hook in self._crash_hooks:
            hook(pid)

    def notify_recover(self, pid: ProcessId) -> None:
        for hook in self._recover_hooks:
            hook(pid)

    # ------------------------------------------------------------------
    # execution (dispatch table: FK_* numbering)
    # ------------------------------------------------------------------
    def execute(self, event: FaultEvent) -> None:
        """Run one fault event at the current virtual instant."""
        kind = getattr(event, "kind", None)
        if kind.__class__ is not int or not 0 <= kind < len(_FK_HANDLERS):
            raise TypeError(f"unknown fault event {event!r}")
        _FK_HANDLERS[kind](self, event)

    def _fk_crash_proc(self, event: CrashProcess) -> None:
        self._kernel.crash_process(ProcessId(event.pid))

    def _fk_recover_proc(self, event: RecoverProcess) -> None:
        self._kernel.recover_process(ProcessId(event.pid))

    def _fk_crash_mem(self, event: CrashMemory) -> None:
        self._kernel.crash_memory(MemoryId(event.mid))

    def _fk_recover_mem(self, event: RecoverMemory) -> None:
        self._kernel.recover_memory(MemoryId(event.mid), wipe=event.wipe)

    def _fk_partition(self, event: Partition) -> None:
        kernel = self._kernel
        kernel.network.set_partition(event.groups)
        sides = "|".join(
            ",".join(process_name(p) for p in sorted(g)) for g in event.groups
        )
        kernel.metrics.record_fault(kernel.now, "partition", sides)

    def _fk_heal(self, event: Heal) -> None:
        kernel = self._kernel
        kernel.network.heal_partition()
        kernel.metrics.record_fault(kernel.now, "heal", "net")

    def _recompose_link(self, pair: tuple) -> None:
        """Rebuild the link's effective filter from its surviving stack."""
        stack = self._link_stack.get(pair)
        links = self._kernel.network.link_faults
        if not stack:
            self._link_stack.pop(pair, None)
            links.pop(pair, None)
            return
        composed = stack[0]
        for fault in stack[1:]:
            composed = composed.compose(fault)
        links[pair] = composed

    def _fk_link_set(self, event: SetLinkFault) -> None:
        kernel = self._kernel
        pair = (event.src, event.dst)
        self._link_stack.setdefault(pair, []).append(event.fault)
        self._recompose_link(pair)
        kernel.metrics.record_fault(
            kernel.now,
            "link_chaos",
            f"{process_name(event.src)}->{process_name(event.dst)}",
            fault=repr(kernel.network.link_faults[pair]),
        )

    def _fk_link_clear(self, event: ClearLinkFault) -> None:
        kernel = self._kernel
        pair = (event.src, event.dst)
        stack = self._link_stack.get(pair)
        if stack:
            if event.fault is None:
                stack.clear()
            elif event.fault in stack:
                stack.remove(event.fault)
        self._recompose_link(pair)
        kernel.metrics.record_fault(
            kernel.now,
            "link_clear",
            f"{process_name(event.src)}->{process_name(event.dst)}",
        )

    def _fk_perm_change(self, event: PermissionChange) -> None:
        kernel = self._kernel
        mids = (
            event.mids
            if event.mids is not None
            else tuple(range(kernel.config.n_memories))
        )
        permission = event.permission
        if permission is None:
            permission = adversarial_grab(event.pid, kernel.config.n_processes)
        op = ChangePermissionOp(event.region, permission)
        for mid in mids:
            memory = kernel.memories[mid]
            if memory.crashed:
                continue  # a dead memory enforces nothing and changes nothing
            result = memory.apply(ProcessId(event.pid), op)
            kernel.metrics.record_fault(
                kernel.now,
                "perm_change",
                memory_name(mid),
                pid=process_name(event.pid),
                region=event.region,
                ok=result.ok,
                permission=permission.summary(),
            )


# Flat dispatch table of plain functions, indexed by fault kind and called
# with the controller first: one per class, bound by no controller.  Order
# must match the FK_* numbering exactly.
_FK_HANDLERS = (
    FailureController._fk_crash_proc,    # FK_CRASH_PROC
    FailureController._fk_recover_proc,  # FK_RECOVER_PROC
    FailureController._fk_crash_mem,     # FK_CRASH_MEM
    FailureController._fk_recover_mem,   # FK_RECOVER_MEM
    FailureController._fk_partition,     # FK_PARTITION
    FailureController._fk_heal,          # FK_HEAL
    FailureController._fk_link_set,      # FK_LINK_SET
    FailureController._fk_link_clear,    # FK_LINK_CLEAR
    FailureController._fk_perm_change,   # FK_PERM_CHANGE
)
