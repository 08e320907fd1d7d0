"""Causal spans: the unit of the observability layer.

A :class:`Span` is one timed interval of work attributed to one actor —
a task's lifetime, a message in flight, a memory operation (request leg
through response leg), a protocol phase, or a zero-length point event.
Spans form a tree: every span carries its parent's id and the id of the
*trace* (causal tree) it belongs to, so one client command's journey
through frontend, router, leader batch, consensus phases, per-memory ops
and reply pump reconstructs as a single tree.

Context propagation mirrors RDMA semantics: the context *rides the
operation* — an :class:`~repro.net.messages.Envelope` carries the open
message span; a one-sided memory op's span is keyed to its completion
token and closed by the response leg.  A span that never closes (message
into a partition, op on a crashed memory) is itself a finding: the flight
recorder dumps open spans alongside recent finished ones.

An *open* span is a mutable ``__slots__`` :class:`Span` object (handles,
``env.ctx`` and the runtime's open table hold it).  A *finished* span is
not an object at all: it is one row of the :class:`SpanLog`'s parallel
columns, and every read — iteration, indexing, ``runtime.spans`` —
rebuilds a fresh :class:`Span` from the row.  A rebuilt span guarantees
*equal fields* (all nine, attrs in their original key order, ``None`` and
``{}`` told apart, times as ``float``), never identity: two reads of the
same row are two objects, and mutating one changes nothing in the log.

Everything that creates spans lives in
:class:`~repro.obs.runtime.ObsRuntime` and is only reachable when a
runtime is attached (``kernel.obs is not None``): detached, no span is
ever constructed and no row is ever written.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Optional

#: span kinds (the analyzer prices transport kinds in the paper's units)
K_TASK = "task"
K_MSG = "msg"
K_MEMOP = "memop"
K_PHASE = "phase"
K_POINT = "point"


class Span:
    """One timed interval of attributed work in a causal tree."""

    __slots__ = (
        "span_id",
        "parent_id",
        "trace_id",
        "name",
        "kind",
        "actor",
        "start",
        "end",
        "attrs",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        trace_id: int,
        name: str,
        kind: str,
        actor: str,
        start: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.kind = kind
        self.actor = actor
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly rendering (the JSONL sink's record shape)."""
        record: Dict[str, Any] = {
            "span": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
            "name": self.name,
            "kind": self.kind,
            "actor": self.actor,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            record["attrs"] = {k: repr(v) for k, v in self.attrs.items()}
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        when = (
            f"[{self.start:g}..]" if self.end is None else f"[{self.start:g}..{self.end:g}]"
        )
        return f"<Span#{self.span_id} {self.kind}:{self.name} {self.actor} {when}>"


class SpanLog:
    """The finished spans: a ring of the newest *capacity*, one row each.

    A row is one entry in each of nine parallel columns — ``array('q')``
    for span / parent (0 = none; ids start at 1) / trace id, ``array('d')``
    for start / end, lists of references to *shared* strings for name /
    kind / actor, and the attrs flattened to one keys-then-values tuple —
    so a finished span costs the garbage collector nothing to traverse
    (a tuple of atoms is untracked after its first collection) where a
    resident :class:`Span` with its attrs dict cost it two objects per span
    on every full collection.  :attr:`dropped` counts the rows the ring
    has overwritten (or, at capacity 0, never stored).

    Reads rebuild :class:`Span` objects: ``len``, iteration (oldest
    retained first), integer indexing and slicing all work as they did on
    the ``deque`` of spans this replaces.
    """

    __slots__ = (
        "capacity",
        "dropped",
        "_head",
        "_ids",
        "_parents",
        "_traces",
        "_starts",
        "_ends",
        "_names",
        "_kinds",
        "_actors",
        "_attrs",
    )

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.dropped = 0
        #: row of the oldest retained span (moves only once the ring is full)
        self._head = 0
        self._ids = array("q")
        self._parents = array("q")
        self._traces = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._names: List[str] = []
        self._kinds: List[str] = []
        self._actors: List[str] = []
        self._attrs: List[Optional[tuple]] = []

    def append(self, span: Span) -> None:
        """Store finished *span* as the newest row."""
        attrs = span.attrs
        if attrs is not None:
            attrs = (*attrs, *attrs.values())
        ids = self._ids
        if len(ids) < self.capacity:
            ids.append(span.span_id)
            self._parents.append(span.parent_id or 0)
            self._traces.append(span.trace_id)
            self._starts.append(span.start)
            self._ends.append(span.end)
            self._names.append(span.name)
            self._kinds.append(span.kind)
            self._actors.append(span.actor)
            self._attrs.append(attrs)
            return
        self.dropped += 1
        if not self.capacity:
            return
        row = self._head
        self._head = (row + 1) % self.capacity
        ids[row] = span.span_id
        self._parents[row] = span.parent_id or 0
        self._traces[row] = span.trace_id
        self._starts[row] = span.start
        self._ends[row] = span.end
        self._names[row] = span.name
        self._kinds[row] = span.kind
        self._actors[row] = span.actor
        self._attrs[row] = attrs

    def _rebuild(self, row: int) -> Span:
        flat = self._attrs[row]
        if flat is None:
            attrs = None
        else:
            half = len(flat) >> 1
            attrs = dict(zip(flat[:half], flat[half:]))
        span = Span(
            self._ids[row],
            self._parents[row] or None,
            self._traces[row],
            self._names[row],
            self._kinds[row],
            self._actors[row],
            self._starts[row],
            attrs,
        )
        span.end = self._ends[row]
        return span

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Span]:
        rebuild = self._rebuild
        head = self._head
        for row in range(head, len(self._ids)):
            yield rebuild(row)
        for row in range(head):
            yield rebuild(row)

    def __getitem__(self, index):
        size = len(self._ids)
        picked = range(size)[index]  # negative, out-of-range and slices
        if isinstance(index, slice):
            return [self._rebuild((self._head + i) % size) for i in picked]
        return self._rebuild((self._head + picked) % size)


def span_tree(spans, trace_id: int) -> Dict[Optional[int], list]:
    """Index *spans* of one trace as ``parent_id -> [children]`` (start order)."""
    children: Dict[Optional[int], list] = {}
    for span in spans:
        if span.trace_id == trace_id:
            children.setdefault(span.parent_id, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))
    return children


def render_tree(spans, trace_id: int) -> str:
    """ASCII rendering of one trace's span tree (examples, debugging)."""
    children = span_tree(spans, trace_id)
    by_id = {s.span_id: s for group in children.values() for s in group}
    roots = [s for s in children.get(None, []) if s.span_id in by_id]
    # Spans whose parent is outside the collected set render as roots too.
    roots += [
        s
        for group in children.values()
        for s in group
        if s.parent_id is not None and s.parent_id not in by_id
    ]
    lines = []

    def walk(span: Span, depth: int) -> None:
        when = "open" if span.end is None else f"{span.start:g}..{span.end:g}"
        lines.append(f"{'  ' * depth}{span.kind}:{span.name} ({span.actor}) [{when}]")
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in sorted(roots, key=lambda s: (s.start, s.span_id)):
        walk(root, 0)
    return "\n".join(lines)
