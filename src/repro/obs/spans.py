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

Spans are plain ``__slots__`` value objects; everything that creates them
lives in :class:`~repro.obs.runtime.ObsRuntime` and is only reachable when
a runtime is attached (``kernel.obs is not None``): detached, no span
is ever constructed.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

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
