"""A replicated key-value store over the replicated log.

The state machine applies ``KVCommand`` entries in slot order; reads go
through the log too (they are commands), so every replica answers queries
from the same committed prefix — the standard linearizable-SMR recipe.

Slots may carry a single command or a :class:`~repro.smr.log.Batch` of
commands; a batch is applied in order, and commands that carry a
``(client, request_id)`` identity are applied at most once — a client
retry that slips into a later slot re-returns the original result instead
of re-executing.
"""

from __future__ import annotations

from array import array
from itertools import groupby
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.smr.log import Batch


class KVCommand:
    """One state-machine command: put/get/delete.

    A hand-written ``__slots__`` value object (one is allocated per client
    request on the workload hot path).  ``identity`` — the at-most-once
    dedup token, or None for anonymous commands — is precomputed at
    construction: it is read on every routing, apply and completion step.
    Treat instances as immutable.
    """

    __slots__ = ("op", "key", "value", "client", "request_id", "identity")
    #: fields the crypto canonical encoder signs (identity is derived)
    _signable_fields_ = ("op", "key", "value", "client", "request_id")

    def __init__(
        self,
        op: str,  # "put" | "get" | "delete"
        key: str,
        value: Any = None,
        client: Optional[int] = None,
        request_id: Optional[int] = None,
    ) -> None:
        if op not in ("put", "get", "delete"):
            raise ValueError(f"unknown KV op {op!r}")
        self.op = op
        self.key = key
        self.value = value
        self.client = client
        self.request_id = request_id
        self.identity: Optional[Tuple[Any, Any]] = (
            (client, request_id)
            if client is not None and request_id is not None
            else None
        )

    def _fields(self) -> Tuple[Any, ...]:
        return (self.op, self.key, self.value, self.client, self.request_id)

    def __eq__(self, other: Any) -> bool:
        if type(other) is not KVCommand:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KVCommand(op={self.op!r}, key={self.key!r}, value={self.value!r}, "
            f"client={self.client!r}, request_id={self.request_id!r})"
        )


class AppliedLog:
    """A replica's applied history: one ``(slot, command, result)`` row per
    applied command, stored as three columns.

    A row holds no object of its own: its slot is an entry of the
    ``array('q')`` :attr:`slots`, its command and result are references in
    :attr:`commands` and :attr:`results` (the commands are the ones the log
    committed, shared with every other replica).  A tuple per row would be
    a garbage-collector-tracked object per applied command; the columns
    cost about 24 bytes a row and nothing the collector scans.

    Reads behave as on the list of row tuples this replaces: ``len``,
    iteration, integer indexing and slicing (fresh tuples), ``==`` against
    a list of tuples or another log, ``append``, integer item assignment
    and ``del`` (any index or slice).  Rows are appended in slot order, so
    a batched slot's commands are one contiguous run of rows
    (:meth:`slot_runs`).
    """

    __slots__ = ("slots", "commands", "results")

    def __init__(self) -> None:
        self.slots = array("q")
        self.commands: List[Any] = []
        self.results: List[Any] = []

    def add(self, slot: int, command: Any, result: Any) -> None:
        """Store one applied command, given field by field, as the newest row."""
        self.slots.append(slot)
        self.commands.append(command)
        self.results.append(result)

    def append(self, row: Tuple[int, Any, Any]) -> None:
        self.add(*row)

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self) -> Iterator[Tuple[int, Any, Any]]:
        return zip(self.slots, self.commands, self.results)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(self.slots[index], self.commands[index], self.results[index]))
        return (self.slots[index], self.commands[index], self.results[index])

    def __setitem__(self, index: int, row: Tuple[int, Any, Any]) -> None:
        if isinstance(index, slice):
            raise TypeError("AppliedLog rows are assigned one index at a time")
        self.slots[index], self.commands[index], self.results[index] = row

    def __delitem__(self, index) -> None:
        del self.slots[index]
        del self.commands[index]
        del self.results[index]

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, AppliedLog):
            return (
                self.slots == other.slots
                and self.commands == other.commands
                and self.results == other.results
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AppliedLog({list(self)!r})"

    def rows(self, start: int, stop: int) -> Tuple[List[Any], List[Any]]:
        """The commands and the results of rows ``start`` to ``stop - 1``."""
        return (self.commands[start:stop], self.results[start:stop])

    def slot_runs(self) -> Dict[int, Tuple[int, int]]:
        """slot -> ``(start, stop)``, the row range of its commands.

        One entry per slot, none per row.  Should a slot's rows ever be
        split by another slot's, its last run wins."""
        runs: Dict[int, Tuple[int, int]] = {}
        stop = 0
        for slot, rows in groupby(self.slots):
            start, stop = stop, stop + sum(1 for _ in rows)
            runs[slot] = (start, stop)
        return runs


class KVStateMachine:
    """Deterministic KV state machine; replicas converge by construction."""

    def __init__(self) -> None:
        self.data: Dict[str, Any] = {}
        self.applied = AppliedLog()
        #: (client, request_id) -> first result, for at-most-once retries
        self.seen: Dict[Tuple[Any, Any], Any] = {}
        self.duplicates = 0
        self.batches_applied = 0
        #: idle-heartbeat (empty) batches, kept separate so batch-fill
        #: statistics reflect only slots that carried commands
        self.empty_batches = 0

    def apply(self, slot: int, command: Any) -> Any:
        """Apply one committed log entry; returns the entry's result.

        A :class:`Batch` entry applies its commands in order and returns
        the list of per-command results (empty list for a no-op batch).
        """
        if isinstance(command, Batch):
            self.batches_applied += 1
            if len(command) == 0:
                self.empty_batches += 1
            return [self._apply_one(slot, inner) for inner in command]
        return self._apply_one(slot, command)

    def _apply_one(self, slot: int, command: Any) -> Any:
        if not isinstance(command, KVCommand):
            # Unknown commands (e.g. no-ops from leader change) are skipped
            # deterministically.
            self.applied.add(slot, command, None)
            return None
        token = command.identity
        if token is not None and token in self.seen:
            self.duplicates += 1
            result = self.seen[token]
            self.applied.add(slot, command, result)
            return result
        if command.op == "put":
            self.data[command.key] = command.value
            result = None
        elif command.op == "get":
            result = self.data.get(command.key)
        else:  # delete
            result = self.data.pop(command.key, None)
        if token is not None:
            self.seen[token] = result
        self.applied.add(slot, command, result)
        return result

    def get(self, key: str) -> Any:
        """Read one key from the applied state (no log traffic).

        This is the serving half of the non-consensus read paths: the
        *caller* is responsible for the freshness proof (a fence probe, a
        quorum watermark, or a session floor) before trusting the value.
        """
        return self.data.get(key)

    def snapshot(self) -> Dict[str, Any]:
        """Copy of the current store contents."""
        return dict(self.data)

    @property
    def applied_count(self) -> int:
        return len(self.applied)
