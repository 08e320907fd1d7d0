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

An *open* span is a mutable ``__slots__`` :class:`Span` object (``env.ctx``,
a task's context and the runtime's open table hold it; an open phase is
its own handle).  A *finished* span is not an object at all: it is one
row of the :class:`SpanLog` — entries in flat id, time and reference
columns — and every read (iteration, indexing, ``runtime.spans``)
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
from typing import Any, Dict, Iterator, Optional

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
    """The finished spans: the newest *capacity* of them, one row each.

    A row holds no object of its own.  It is three entries of ``_ids``
    (span, parent with 0 for none, trace), two of ``_times`` (start, end)
    and a run in ``_refs``: the row's *head*, then references to its attr
    values.  A head is the tuple ``(name, kind, actor, attr keys)``,
    interned in ``_heads`` so every row of the same shape shares one (564
    in a 48 000-operation KV run: the table grows with the distinct task
    labels and span names, not with the spans); its keys are ``None`` for
    no attrs and ``()`` for empty ones.  ``_offs`` says where each row's
    run starts, counted from ``_base``, the number of references
    compaction has already cut.  Appending a span thus leaves nothing the
    garbage collector tracks: one tracked object kept per row would add a
    young collection every 700 spans (CPython's default gen-0 threshold).

    The log holds up to ``capacity + capacity // 4`` rows; at that point
    the oldest are cut in one slice per column, down to *capacity*, and no
    row is rewritten.  Reads see only the newest *capacity*: ``len``,
    iteration (oldest first), integer indexing and slicing behave as on a
    ``deque(maxlen=capacity)`` of spans, each read rebuilding a fresh
    :class:`Span`.  :attr:`dropped` counts the spans appended but no longer
    readable.
    """

    __slots__ = (
        "capacity", "_limit", "_cut", "_base", "_ids", "_times", "_offs", "_refs", "_heads"
    )

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._limit = capacity + capacity // 4
        #: rows compaction has cut
        self._cut = 0
        self._base = 0
        self._ids = array("q")
        self._times = array("d")
        self._offs = array("q")
        self._refs: list = []
        self._heads: Dict[tuple, tuple] = {}

    def add(self, span_id, parent_id, trace_id, name, kind, actor, start, end, attrs) -> None:
        """Store one finished span, given field by field, as the newest row."""
        refs = self._refs
        offs = self._offs
        offs.append(len(refs) + self._base)
        ids = self._ids
        ids.append(span_id)
        ids.append(parent_id or 0)
        ids.append(trace_id)
        times = self._times
        times.append(start)
        times.append(end)
        if attrs is None:
            head = (name, kind, actor, None)
            refs.append(self._heads.setdefault(head, head))
        else:
            head = (name, kind, actor, tuple(attrs))
            refs += (self._heads.setdefault(head, head), *attrs.values())
        if len(offs) > self._limit:
            self._compact()

    def append(self, span: Span) -> None:
        """Store finished *span* as the newest row."""
        self.add(
            span.span_id, span.parent_id, span.trace_id, span.name, span.kind,
            span.actor, span.start, span.end, span.attrs,
        )

    def _compact(self) -> None:
        offs = self._offs
        cut = len(offs) - self.capacity
        refs = offs[cut] - self._base if self.capacity else len(self._refs)
        self._base += refs
        self._cut += cut
        del self._refs[:refs], offs[:cut], self._ids[: 3 * cut], self._times[: 2 * cut]

    @property
    def dropped(self) -> int:
        """Spans appended that the log no longer reads back."""
        return self._cut + len(self._offs) - len(self)

    def _rebuild(self, row: int) -> Span:
        at = self._offs[row] - self._base
        refs = self._refs
        name, kind, actor, keys = refs[at]
        attrs = None if keys is None else dict(zip(keys, refs[at + 1 : at + 1 + len(keys)]))
        span_id, parent_id, trace_id = self._ids[3 * row : 3 * row + 3]
        start, end = self._times[2 * row : 2 * row + 2]
        span = Span(span_id, parent_id or None, trace_id, name, kind, actor, start, attrs)
        span.end = end
        return span

    def __len__(self) -> int:
        return min(len(self._offs), self.capacity)

    def __iter__(self) -> Iterator[Span]:
        return map(self._rebuild, range(len(self._offs) - len(self), len(self._offs)))

    def __getitem__(self, index):
        first = len(self._offs) - len(self)
        picked = range(first, len(self._offs))[index]  # negative, out-of-range and slices
        if isinstance(index, slice):
            return [self._rebuild(row) for row in picked]
        return self._rebuild(picked)


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
