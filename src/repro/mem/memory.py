"""One shared memory: registers + per-region permission state + crash flag.

The memory applies operations atomically at their arrival instant (the
simulation kernel delivers one request at a time), which yields atomic
registers per memory; the replicated-register layer in
:mod:`repro.registers` weakens this to the paper's regular registers when a
logical register spans several memories.

A crashed memory never responds: the kernel drops requests addressed to it,
so callers' operations simply never complete — indistinguishable from
slowness, as the model requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.mem.layout import MemoryLayout
from repro.mem.operations import (
    BatchOp,
    ChangePermissionOp,
    MemoryOp,
    ProbeOp,
    ReadOp,
    ReadSnapshotOp,
    SnapshotOp,
    WriteOp,
)
from repro.mem.permissions import Permission
from repro.types import (
    BOTTOM,
    ChainAbort,
    MemoryId,
    OpResult,
    OpStatus,
    ProcessId,
    RegionId,
    RegisterKey,
)

_ACK = OpStatus.ACK
_NAK = OpStatus.NAK

# Writes and refusals carry no value: share one immutable result each
# instead of allocating per operation.
_ACK_RESULT = OpResult(_ACK)
_NAK_RESULT = OpResult(_NAK)


@dataclass
class OpCounts:
    """Operation counters kept per memory (used by metrics and tests)."""

    reads: int = 0
    writes: int = 0
    snapshots: int = 0
    permission_changes: int = 0
    probes: int = 0
    batches: int = 0
    naks: int = 0


class Memory:
    """A single fail-prone shared memory (one of the paper's ``mu_i``)."""

    def __init__(self, mid: MemoryId, layout: MemoryLayout) -> None:
        self.mid = mid
        self.layout = layout
        self.registers: Dict[RegisterKey, Any] = {}
        self.permissions: Dict[RegionId, Permission] = {
            spec.region_id: spec.initial_permission for spec in layout.regions
        }
        self.crashed = False
        self.counts = OpCounts()
        # Flat handler table indexed by the operation's ``kind`` tag
        # (see repro.mem.operations); order must match the OP_* numbering.
        self._op_handlers = (self._read, self._write, self._snapshot,
                             self._change_permission, self._probe,
                             self._read_snapshot, self._batch)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash this memory; subsequent operations hang (kernel drops them)."""
        self.crashed = True

    def recover(self, wipe: bool = False) -> None:
        """Revive this memory; operations resolve again from now on.

        Without *wipe* the regions come back intact — registers and
        permission state exactly as they were at the crash (the memory was
        merely unreachable).  With *wipe* the revival models replacing the
        hardware: registers are cleared and every region's permission is
        reset to its initial declaration.
        """
        self.crashed = False
        if wipe:
            self.registers.clear()
            self.permissions = {
                spec.region_id: spec.initial_permission for spec in self.layout.regions
            }

    def add_region(self, spec) -> None:
        """Install a region registered after boot (elastic reconfiguration).

        The layout object is shared by every memory, so the kernel adds
        the spec there once and calls this per memory to install the
        boot permission.  Idempotent per region id — a crashed memory's
        permission state is hardware state, present when it revives, and
        a coordinator retrying after its own crash must not reset a
        permission the first attempt already moved.
        """
        self.permissions.setdefault(spec.region_id, spec.initial_permission)

    # ------------------------------------------------------------------
    # operation processing
    # ------------------------------------------------------------------
    def apply(self, pid: ProcessId, op: MemoryOp) -> OpResult:
        """Apply *op* on behalf of *pid* and return its result.

        Permission failures return ``nak`` rather than raising — a Byzantine
        process is free to *try* anything; the memory is the enforcement
        point (the paper's small trusted component).
        """
        kind = getattr(op, "kind", None)
        if kind.__class__ is not int or not 0 <= kind < len(self._op_handlers):
            raise TypeError(f"unknown memory operation {op!r}")
        return self._op_handlers[kind](pid, op)

    def _spec_and_permission(self, region_id: RegionId):
        spec = self.layout.by_id(region_id)
        if spec is None:
            return None, None
        return spec, self.permissions[region_id]

    def _read(self, pid: ProcessId, op: ReadOp) -> OpResult:
        self.counts.reads += 1
        spec, perm = self._spec_and_permission(op.region)
        if spec is None or not spec.contains(op.key) or not perm.can_read(pid):
            self.counts.naks += 1
            return _NAK_RESULT
        return OpResult(_ACK, self.registers.get(op.key, BOTTOM))

    def _write(self, pid: ProcessId, op: WriteOp) -> OpResult:
        self.counts.writes += 1
        spec, perm = self._spec_and_permission(op.region)
        if spec is None or not spec.contains(op.key) or not perm.can_write(pid):
            self.counts.naks += 1
            return _NAK_RESULT
        self.registers[op.key] = op.value
        return _ACK_RESULT

    def _snapshot(self, pid: ProcessId, op: SnapshotOp) -> OpResult:
        self.counts.snapshots += 1
        spec, perm = self._spec_and_permission(op.region)
        if spec is None or not perm.can_read(pid):
            self.counts.naks += 1
            return _NAK_RESULT
        prefix = op.prefix
        if not spec.contains(prefix):
            self.counts.naks += 1
            return _NAK_RESULT
        view = {
            key: value
            for key, value in self.registers.items()
            if key[: len(prefix)] == prefix
        }
        return OpResult(_ACK, view)

    def _probe(self, pid: ProcessId, op: ProbeOp) -> OpResult:
        self.counts.probes += 1
        spec, perm = self._spec_and_permission(op.region)
        if spec is None:
            self.counts.naks += 1
            return _NAK_RESULT
        held = perm.can_write(pid) if op.access == "write" else perm.can_read(pid)
        if not held:
            self.counts.naks += 1
            return _NAK_RESULT
        return _ACK_RESULT

    def _read_snapshot(self, pid: ProcessId, op: ReadSnapshotOp) -> OpResult:
        self.counts.snapshots += 1
        spec, perm = self._spec_and_permission(op.region)
        if spec is None or not perm.can_read(pid):
            self.counts.naks += 1
            return _NAK_RESULT
        prefix = op.prefix
        if not spec.contains(prefix):
            self.counts.naks += 1
            return _NAK_RESULT
        floor = op.floor
        cut = len(prefix)
        view = {}
        for key, value in self.registers.items():
            if key[:cut] != prefix:
                continue
            if floor is not None and len(key) > cut:
                index = key[cut]
                if isinstance(index, int) and index < floor:
                    continue
            view[key] = value
        return OpResult(_ACK, view)

    def _batch(self, pid: ProcessId, op: BatchOp) -> OpResult:
        """Apply a work-request chain: sub-ops in order, abort on first NAK.

        The whole chain executes atomically at its arrival instant — the
        kernel delivers one request at a time, so no other operation can
        interleave between two sub-ops of the same chain.  A NAK (e.g. the
        region's permission was revoked between the chain being posted and
        arriving) aborts the unapplied tail and reports the failing index,
        matching how a QP error flushes the remaining work requests.
        """
        self.counts.batches += 1
        handlers = self._op_handlers
        values = []
        for index, sub in enumerate(op.ops):
            result = handlers[sub.kind](pid, sub)
            if not result.ok:
                return OpResult(_NAK, ChainAbort(index, tuple(values)))
            values.append(result.value)
        return OpResult(_ACK, tuple(values))

    def _change_permission(self, pid: ProcessId, op: ChangePermissionOp) -> OpResult:
        self.counts.permission_changes += 1
        spec, perm = self._spec_and_permission(op.region)
        if spec is None:
            self.counts.naks += 1
            return _NAK_RESULT
        if not spec.legal_change(pid, perm, op.new_permission):
            # Illegal change: a no-op per the model.  NAK status is
            # informational; the permission state is untouched.
            self.counts.naks += 1
            return _NAK_RESULT
        self.permissions[op.region] = op.new_permission
        return _ACK_RESULT

    # ------------------------------------------------------------------
    # introspection helpers (tests, debugging)
    # ------------------------------------------------------------------
    def peek(self, key: RegisterKey) -> Any:
        """Read a register without permission checks (test helper only)."""
        return self.registers.get(tuple(key), BOTTOM)

    def permission_of(self, region_id: RegionId) -> Permission:
        return self.permissions[region_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"<Memory mu{int(self.mid) + 1} {state} {len(self.registers)} regs>"
