"""Crash-dump flight recorder: the last N spans, dumped on a tripwire.

Safety monitors (`strict_safety` agreement/staleness checks, FaultScript
assertions) raise the moment a violation is detected — which is exactly
when the evidence of *how* the run got there is about to be lost.  The
flight recorder reads the newest ``capacity`` rows of the runtime's
finished-span log (it keeps no ring of its own) and, when tripped,
snapshots them together with every still-open span (in-flight messages,
hung memory ops, live phases) — the open set is usually the interesting
part of a stuck or diverged run.

The runtime registers :meth:`trip` with the metrics ledger's violation
hooks, so an ``AgreementViolation`` or ``StalenessViolation`` under
``strict_safety`` dumps automatically before the exception unwinds.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.spans import Span


class FlightRecorder:
    """The tail of the span log plus trip-time dumping."""

    def __init__(self, capacity: int = 512, path: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        #: where :meth:`trip` writes the dump (None: in-memory only)
        self.path = path
        #: the runtime's finished-span log; "recent" is its tail
        self._log: Sequence[Span] = ()
        #: dumps produced so far, newest last (kept for tests/inspection)
        self.dumps: List[Dict[str, Any]] = []
        #: supplier of currently-open spans, wired by the runtime
        self._open_supplier = None
        #: supplier of extra trip-time context (metrics registry snapshot,
        #: SLO/burn-rate state) merged into the dump — self-containment
        self._context_supplier = None

    @property
    def ring(self) -> Sequence[Span]:
        """The newest :attr:`capacity` finished spans (a read-only view)."""
        return self._log[-self.capacity :]

    def wire(self, log, open_supplier, context_supplier=None) -> None:
        """Install the runtime's finished-span *log* and live-span supplier
        (called on attach).

        *context_supplier*, when given, is called at trip time and must
        return a dict of extra top-level dump entries (the runtime passes
        its metrics-registry and SLO snapshots), so a dump explains the
        run's state without the run.
        """
        self._log = log
        self._open_supplier = open_supplier
        self._context_supplier = context_supplier

    def trip(self, reason: str, now: float) -> Dict[str, Any]:
        """Snapshot the log's tail + open spans; write to :attr:`path` if set."""
        open_spans = [] if self._open_supplier is None else list(self._open_supplier())
        dump = {
            "reason": reason,
            "time": now,
            "recent": [span.to_dict() for span in self.ring],
            "open": [span.to_dict() for span in open_spans],
        }
        if self._context_supplier is not None:
            dump.update(self._context_supplier())
        self.dumps.append(dump)
        if self.path is not None:
            with open(self.path, "w", encoding="utf-8") as handle:
                json.dump(dump, handle, indent=1)
        return dump

    @property
    def last_dump(self) -> Optional[Dict[str, Any]]:
        return self.dumps[-1] if self.dumps else None
