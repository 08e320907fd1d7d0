"""One shared memory: registers + per-region permission state + crash flag.

The memory applies operations atomically at their arrival instant (the
simulation kernel delivers one request at a time), which yields atomic
registers per memory; the replicated-register layer in
:mod:`repro.registers` weakens this to the paper's regular registers when a
logical register spans several memories.

A crashed memory never responds: the kernel drops requests addressed to it,
so callers' operations simply never complete — indistinguishable from
slowness, as the model requires.

Store layout.  Registers live in one store per region, opened by the
first operation that names the region (the layout guarantees regions
never overlap, so a key belongs to exactly one).  A store carries the
region's spec beside ``cells``, a plain insertion-ordered dict that holds
every value, plus a slot index over the keys whose component right after
the region prefix is an ``int`` — two parallel lists, the sorted slot
numbers and their keys — and the list of the remaining ("named") keys.
An operation therefore costs what its own region holds, never what the
rest of the memory stores, and a floor-filtered :class:`ReadSnapshotOp`
over the whole region costs what it returns: the named registers plus
``keys[bisect_left(order, floor):]``.  A prefix longer than the region's
is served by filtering that region's cells.

Two ordering rules the views keep:

* a :class:`SnapshotOp` view (and ``ReadSnapshotOp(floor=None)``)
  iterates in **write order** — first write of each key, overwrites keep
  their place.  The takeover reads (Protected Memory Paxos, Aligned
  Paxos, the replicated log) share one fold, which reads the whole view
  before deciding and depends on no order;
* a floor-filtered view served from the index iterates named registers
  first, then slots ascending.  Its consumers (the quorum read's merges)
  are strict-max folds over ballots that embed the writer pid, so no
  order can change their result; nothing else may depend on it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.mem.layout import MemoryLayout
from repro.mem.operations import (
    BatchOp,
    ChangePermissionOp,
    MemoryOp,
    ProbeOp,
    ReadOp,
    WriteOp,
)
from repro.mem.permissions import Permission
from repro.mem.regions import RegionSpec
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


class _RegionStore:
    """One region of one memory: its spec and registers (module docstring)."""

    __slots__ = ("spec", "cut", "cells", "order", "keys", "named")

    def __init__(self, spec: RegionSpec) -> None:
        self.spec = spec
        #: ``key[cut]`` is the component right after the region prefix
        self.cut = len(spec.prefix)
        self.cells: Dict[RegisterKey, Any] = {}
        self.order: List[int] = []
        self.keys: List[RegisterKey] = []
        self.named: List[RegisterKey] = []

    def index(self, key: RegisterKey) -> None:
        """Index *key*, which is about to enter ``cells`` for the first time."""
        cut = self.cut
        if len(key) > cut:
            slot = key[cut]
            if isinstance(slot, int):
                order = self.order
                if not order or slot >= order[-1]:  # logs grow at the end
                    order.append(slot)
                    self.keys.append(key)
                else:
                    at = bisect_right(order, slot)
                    order.insert(at, slot)
                    self.keys.insert(at, key)
                return
        self.named.append(key)

    def unindex(self, key: RegisterKey) -> None:
        """Forget *key*, which has just left ``cells``."""
        if key in self.named:
            self.named.remove(key)
            return
        at = self.keys.index(key, bisect_left(self.order, key[self.cut]))
        del self.order[at]
        del self.keys[at]

    def view(
        self, prefix: RegisterKey, floor: Any = None
    ) -> Optional[Dict[RegisterKey, Any]]:
        """The registers extending *prefix*, less the slots below *floor*;
        None when *prefix* lies outside the region."""
        cells = self.cells
        if prefix == self.spec.prefix:  # the whole region, ``contains`` for free
            if floor is None:
                return dict(cells)
            view = {key: cells[key] for key in self.named}
            for key in self.keys[bisect_left(self.order, floor):]:
                view[key] = cells[key]
            return view
        if not self.spec.contains(prefix):
            return None
        cut = len(prefix)
        view = {}
        for key, value in cells.items():
            if key[:cut] != prefix:
                continue
            if floor is not None and len(key) > cut:
                index = key[cut]
                if isinstance(index, int) and index < floor:
                    continue
            view[key] = value
        return view


class Memory:
    """A single fail-prone shared memory (one of the paper's ``mu_i``)."""

    def __init__(self, mid: MemoryId, layout: MemoryLayout) -> None:
        self.mid = mid
        self.layout = layout
        # A protocol grid builds tens of thousands of memories, so a fresh
        # one holds only what it must: no store (each region's is opened by
        # its first operation), no bound handler table (``_OP_HANDLERS`` is
        # shared), and the boot permissions as one copy of the map the
        # layout keeps.
        self._stores: Dict[RegionId, _RegionStore] = {}
        self.permissions: Dict[RegionId, Permission] = dict(layout.boot_permissions)
        self.crashed = False
        self.counts = OpCounts()

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
            self._stores.clear()
            self.permissions = dict(self.layout.boot_permissions)

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
        if kind.__class__ is not int or not 0 <= kind < len(_OP_HANDLERS):
            raise TypeError(f"unknown memory operation {op!r}")
        return _OP_HANDLERS[kind](self, pid, op)

    def _open(self, region_id: RegionId) -> Optional[_RegionStore]:
        """The store of a region no operation has touched yet, or None for
        a region the layout does not know."""
        spec = self.layout.by_id(region_id)
        if spec is None:
            return None
        store = self._stores[region_id] = _RegionStore(spec)
        return store

    # Every handler resolves its region with one lookup — the store carries
    # the spec beside the cells — and then evaluates each check the model
    # names: the region exists, it contains the key, the caller may access.

    def _read(self, pid: ProcessId, op: ReadOp) -> OpResult:
        self.counts.reads += 1
        region = op.region
        store = self._stores.get(region) or self._open(region)
        key = op.key
        if (
            store is None
            or not store.spec.contains(key)
            or not self.permissions[region].can_read(pid)
        ):
            self.counts.naks += 1
            return _NAK_RESULT
        return OpResult(_ACK, store.cells.get(key, BOTTOM))

    def _write(self, pid: ProcessId, op: WriteOp) -> OpResult:
        self.counts.writes += 1
        region = op.region
        store = self._stores.get(region) or self._open(region)
        key = op.key
        if (
            store is None
            or not store.spec.contains(key)
            or not self.permissions[region].can_write(pid)
        ):
            self.counts.naks += 1
            return _NAK_RESULT
        cells = store.cells
        if key not in cells:  # tested here: a call per write shows in the probe
            store.index(key)
        cells[key] = op.value
        return _ACK_RESULT

    def _snapshot(self, pid: ProcessId, op) -> OpResult:
        """Serve a :class:`SnapshotOp` (whose ``floor`` is always None) or a
        :class:`ReadSnapshotOp`."""
        self.counts.snapshots += 1
        region = op.region
        store = self._stores.get(region) or self._open(region)
        if store is None or not self.permissions[region].can_read(pid):
            self.counts.naks += 1
            return _NAK_RESULT
        view = store.view(op.prefix, op.floor)
        if view is None:
            self.counts.naks += 1
            return _NAK_RESULT
        return OpResult(_ACK, view)

    def _probe(self, pid: ProcessId, op: ProbeOp) -> OpResult:
        self.counts.probes += 1
        region = op.region
        store = self._stores.get(region) or self._open(region)
        if store is None:
            self.counts.naks += 1
            return _NAK_RESULT
        perm = self.permissions[region]
        held = perm.can_write(pid) if op.access == "write" else perm.can_read(pid)
        if not held:
            self.counts.naks += 1
            return _NAK_RESULT
        return _ACK_RESULT

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
        values = []
        for index, sub in enumerate(op.ops):
            result = _OP_HANDLERS[sub.kind](self, pid, sub)
            if not result.ok:
                return OpResult(_NAK, ChainAbort(index, tuple(values)))
            values.append(result.value)
        return OpResult(_ACK, tuple(values))

    def _change_permission(self, pid: ProcessId, op: ChangePermissionOp) -> OpResult:
        self.counts.permission_changes += 1
        region = op.region
        store = self._stores.get(region) or self._open(region)
        if store is None:
            self.counts.naks += 1
            return _NAK_RESULT
        if not store.spec.legal_change(pid, self.permissions[region], op.new_permission):
            # Illegal change: a no-op per the model.  NAK status is
            # informational; the permission state is untouched.
            self.counts.naks += 1
            return _NAK_RESULT
        self.permissions[region] = op.new_permission
        return _ACK_RESULT

    # ------------------------------------------------------------------
    # introspection helpers (tests, debugging)
    # ------------------------------------------------------------------
    @property
    def registers(self) -> Mapping[RegisterKey, Any]:
        """A read-only merged copy of every region's registers.

        Introspection only: writing goes through :meth:`apply` (or
        :meth:`poke` / :meth:`drop` in tests), never through this view.
        """
        return MappingProxyType(dict(self.items()))

    def items(self) -> Iterator[Tuple[RegisterKey, Any]]:
        """Every ``(key, value)`` stored, region by region."""
        for store in self._stores.values():
            yield from store.cells.items()

    def _store_of(self, key: RegisterKey) -> Optional[_RegionStore]:
        spec = self.layout.region_for(key)
        if spec is None:
            return None
        return self._stores.get(spec.region_id) or self._open(spec.region_id)

    def peek(self, key: RegisterKey) -> Any:
        """Read a register without permission checks (test helper only)."""
        key = tuple(key)
        store = self._store_of(key)
        return BOTTOM if store is None else store.cells.get(key, BOTTOM)

    def poke(self, key: RegisterKey, value: Any) -> None:
        """Plant a register without permission checks (test helper only)."""
        key = tuple(key)
        store = self._store_of(key)
        if store is None:
            raise KeyError(f"no region of the layout contains {key!r}")
        if key not in store.cells:
            store.index(key)
        store.cells[key] = value

    def drop(self, key: RegisterKey) -> None:
        """Erase a register without permission checks (test helper only)."""
        key = tuple(key)
        store = self._store_of(key)
        if store is None or key not in store.cells:
            raise KeyError(key)
        del store.cells[key]
        store.unindex(key)

    def permission_of(self, region_id: RegionId) -> Permission:
        return self.permissions[region_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"<Memory mu{int(self.mid) + 1} {state} {len(self.registers)} regs>"


# Flat handler table of plain functions, indexed by the operation's ``kind``
# tag (see repro.mem.operations) and called with the memory first; order
# must match the OP_* numbering.
_OP_HANDLERS = (
    Memory._read,               # OP_READ
    Memory._write,              # OP_WRITE
    Memory._snapshot,           # OP_SNAPSHOT
    Memory._change_permission,  # OP_CHANGE_PERMISSION
    Memory._probe,              # OP_PROBE
    Memory._snapshot,           # OP_READ_SNAPSHOT
    Memory._batch,              # OP_BATCH
)
