"""FaultScript: an event-driven failure timeline, as a chainable DSL.

A FaultScript is a *timeline*: crash AND recover, partition AND heal, link
chaos with expiry, permission-revocation storms — the changing failure
landscape the paper's dynamic-permission protocols are built to survive —
plus the statically Byzantine seats.

    script = (
        FaultScript()
        .at(1.0).crash_process(0).recover(at=30.0)
        .at(2.0).partition({0, 1}, {2}).heal(at=25.0)
        .at(3.0).delay_link(1, 2, factor=5.0, until=20.0)
        .at(4.0).permission_storm(pid=2, region="pmp", shots=6, spacing=1.0)
    )
    script.install(kernel)

``install`` compiles the timeline into typed fault events (one closure-free
``EV_FAULT`` queue entry each — see :mod:`repro.sim.faults`) executed by
the kernel's :class:`~repro.sim.faults.FailureController`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.mem.permissions import Permission
from repro.sim.faults import (
    FK_CRASH_MEM,
    FK_CRASH_PROC,
    FK_LINK_CLEAR,
    FK_LINK_SET,
    FK_PARTITION,
    FK_PERM_CHANGE,
    FK_RECOVER_MEM,
    FK_RECOVER_PROC,
    ClearLinkFault,
    CrashMemory,
    CrashProcess,
    FaultEvent,
    Heal,
    LinkFault,
    Partition,
    PermissionChange,
    RecoverMemory,
    RecoverProcess,
    SetLinkFault,
)


class FaultScript:
    """A time-ordered fault timeline plus Byzantine seat assignments."""

    def __init__(self) -> None:
        #: (time, event) in append order; install preserves same-time order
        self.events: List[Tuple[float, FaultEvent]] = []
        #: pid -> strategy (spawned by the cluster runner)
        self.byzantine: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def at(self, time: float) -> "_Moment":
        """Open the timeline at virtual *time*; chain fault verbs off it."""
        if time < 0:
            raise ConfigurationError(f"fault time must be >= 0, got {time}")
        return _Moment(self, float(time))

    def add(self, time: float, event: FaultEvent) -> "FaultScript":
        """Append one pre-built fault event (the DSL verbs call this)."""
        self.events.append((float(time), event))
        return self

    def make_byzantine(self, pid: int, strategy: object) -> "FaultScript":
        self.byzantine[int(pid)] = strategy
        return self

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def _final_down(self, crash_kind: int, recover_kind: int) -> Set[int]:
        """Subjects crashed at the end of the timeline (never recovered)."""
        state: Dict[int, bool] = {}
        for _time, event in sorted(self.events, key=lambda pair: pair[0]):
            if event.kind == crash_kind:
                state[event.pid if crash_kind == FK_CRASH_PROC else event.mid] = True
            elif event.kind == recover_kind:
                state[event.pid if recover_kind == FK_RECOVER_PROC else event.mid] = False
        return {subject for subject, down in state.items() if down}

    @property
    def faulty_processes(self) -> Set[int]:
        """Processes faulty *at the end of the run*: Byzantine seats plus
        crashes never followed by a recovery.  A crashed-then-recovered
        process is expected to rejoin — and to decide."""
        return self._final_down(FK_CRASH_PROC, FK_RECOVER_PROC) | set(self.byzantine)

    # ------------------------------------------------------------------
    # validation + installation
    # ------------------------------------------------------------------
    def validate(self, n_processes: int, n_memories: int) -> None:
        if not self.events and not self.byzantine:
            return  # the default, empty script: nothing to check

        def check_pid(pid: int) -> None:
            if not 0 <= pid < n_processes:
                raise ConfigurationError(f"no such process p{pid + 1}")

        def check_mid(mid: int) -> None:
            if not 0 <= mid < n_memories:
                raise ConfigurationError(f"no such memory mu{mid + 1}")

        for _time, event in self.events:
            kind = event.kind
            if kind in (FK_CRASH_PROC, FK_RECOVER_PROC):
                check_pid(event.pid)
            elif kind in (FK_CRASH_MEM, FK_RECOVER_MEM):
                check_mid(event.mid)
            elif kind == FK_PARTITION:
                seen: Set[int] = set()
                for group in event.groups:
                    overlap = seen & group
                    if overlap:
                        raise ConfigurationError(
                            f"partition groups overlap on {sorted(overlap)}"
                        )
                    seen |= group
                    for pid in group:
                        check_pid(pid)
            elif kind in (FK_LINK_SET, FK_LINK_CLEAR):
                check_pid(event.src)
                check_pid(event.dst)
            elif kind == FK_PERM_CHANGE:
                check_pid(event.pid)
                if event.mids is not None:
                    for mid in event.mids:
                        check_mid(mid)
        for pid in self.byzantine:
            check_pid(pid)
        crashed_byzantine = self._final_down(FK_CRASH_PROC, FK_RECOVER_PROC) & set(
            self.byzantine
        )
        if crashed_byzantine:
            raise ConfigurationError(
                f"processes {crashed_byzantine} are both crashed and Byzantine"
            )

    def install(self, kernel) -> None:
        """Arm every event as a typed fault-timer entry on *kernel*."""
        for time, event in self.events:
            kernel.schedule_fault(time, event)
        for pid in self.byzantine:
            kernel.mark_byzantine(pid)


class _Moment:
    """One instant on a script's timeline; each verb appends events."""

    def __init__(self, script: FaultScript, time: float) -> None:
        self._script = script
        self._time = time

    # -- crash / recover ------------------------------------------------
    def crash_process(self, pid: int) -> "_CrashedProcess":
        self._script.add(self._time, CrashProcess(pid))
        return _CrashedProcess(self._script, pid, self._time)

    def recover_process(self, pid: int) -> FaultScript:
        return self._script.add(self._time, RecoverProcess(pid))

    def crash_memory(self, mid: int) -> "_CrashedMemory":
        self._script.add(self._time, CrashMemory(mid))
        return _CrashedMemory(self._script, mid, self._time)

    def recover_memory(self, mid: int, wipe: bool = False) -> FaultScript:
        return self._script.add(self._time, RecoverMemory(mid, wipe=wipe))

    # -- partitions ------------------------------------------------------
    def partition(self, *groups: Iterable[int]) -> "_Partitioned":
        if len(groups) < 2:
            raise ConfigurationError("a partition needs at least two groups")
        self._script.add(self._time, Partition(groups))
        return _Partitioned(self._script, self._time)

    def heal(self) -> FaultScript:
        return self._script.add(self._time, Heal())

    # -- link chaos ------------------------------------------------------
    def _link(
        self,
        src: int,
        dst: int,
        fault: LinkFault,
        until: Optional[float],
        symmetric: bool,
    ) -> FaultScript:
        pairs = [(src, dst)] + ([(dst, src)] if symmetric else [])
        for a, b in pairs:
            self._script.add(self._time, SetLinkFault(a, b, fault))
            if until is not None:
                if until <= self._time:
                    raise ConfigurationError("link fault must expire after it starts")
                # expire exactly this filter: overlapping faults on the
                # same link each carry their own expiry
                self._script.add(until, ClearLinkFault(a, b, fault))
        return self._script

    def delay_link(
        self,
        src: int,
        dst: int,
        factor: float = 1.0,
        extra: float = 0.0,
        until: Optional[float] = None,
        symmetric: bool = False,
    ) -> FaultScript:
        """Inflate flight time on ``src -> dst``: ``delay*factor + extra``."""
        return self._link(
            src, dst, LinkFault(delay_factor=factor, extra_delay=extra), until, symmetric
        )

    def drop_link(
        self,
        src: int,
        dst: int,
        prob: float = 1.0,
        until: Optional[float] = None,
        symmetric: bool = False,
    ) -> FaultScript:
        """Lose each message on ``src -> dst`` with probability *prob*."""
        return self._link(src, dst, LinkFault(drop_prob=prob), until, symmetric)

    def duplicate_link(
        self,
        src: int,
        dst: int,
        prob: float = 1.0,
        until: Optional[float] = None,
        symmetric: bool = False,
    ) -> FaultScript:
        """Deliver a second copy of each message with probability *prob*."""
        return self._link(src, dst, LinkFault(duplicate_prob=prob), until, symmetric)

    # -- permission chaos ------------------------------------------------
    def permission_storm(
        self,
        pid: int,
        region: str,
        shots: int = 4,
        spacing: float = 1.0,
        mids: Optional[Iterable[int]] = None,
        permission: Optional[Permission] = None,
    ) -> FaultScript:
        """Fire *shots* adversarial ``changePermission`` bursts from *pid*
        against *region*, one every *spacing* time units, on every memory
        (or just *mids*).  ``permission=None`` requests the exclusive-grab
        shape for *pid* — legal under PMP's policy, so each shot genuinely
        steals the region and forces the leader back through its prepare
        phase."""
        if shots < 1:
            raise ConfigurationError("a storm needs at least one shot")
        if spacing < 0:
            raise ConfigurationError("storm spacing must be >= 0")
        mids_tuple = None if mids is None else tuple(mids)
        for shot in range(shots):
            self._script.add(
                self._time + shot * spacing,
                PermissionChange(pid, region, mids=mids_tuple, permission=permission),
            )
        return self._script


class _Follow:
    """Follow-up handle: adds recovery sugar, passes everything else back
    to the script so chains keep flowing (``...crash_process(0).at(9)...``)."""

    def __init__(self, script: FaultScript) -> None:
        self._script = script

    def __getattr__(self, name):
        return getattr(self._script, name)


class _CrashedProcess(_Follow):
    def __init__(self, script: FaultScript, pid: int, crashed_at: float) -> None:
        super().__init__(script)
        self._pid = pid
        self._crashed_at = crashed_at

    def recover(self, at: float) -> FaultScript:
        """Schedule this process's recovery at virtual time *at*."""
        if at <= self._crashed_at:
            raise ConfigurationError("recovery must follow the crash")
        return self._script.add(at, RecoverProcess(self._pid))


class _CrashedMemory(_Follow):
    def __init__(self, script: FaultScript, mid: int, crashed_at: float) -> None:
        super().__init__(script)
        self._mid = mid
        self._crashed_at = crashed_at

    def recover(self, at: float, wipe: bool = False) -> FaultScript:
        """Schedule this memory's revival at *at* (optionally wiped)."""
        if at <= self._crashed_at:
            raise ConfigurationError("recovery must follow the crash")
        return self._script.add(at, RecoverMemory(self._mid, wipe=wipe))


class _Partitioned(_Follow):
    def __init__(self, script: FaultScript, partitioned_at: float) -> None:
        super().__init__(script)
        self._partitioned_at = partitioned_at

    def heal(self, at: float) -> FaultScript:
        """Schedule the partition's heal at virtual time *at*."""
        if at <= self._partitioned_at:
            raise ConfigurationError("the heal must follow the partition")
        return self._script.add(at, Heal())
