"""The metrics ledger: everything a run records about itself.

Delay accounting follows the paper's complexity metric (Section 3,
"Complexity of algorithms"): under the nominal latency model a message costs
one virtual time unit and a memory operation two (request + response), and
computation is instantaneous — so a process's decision time minus its
proposal time *is* its decision delay count.  ``delays_of`` exposes exactly
that difference.

The ledger is also the safety monitor: every ``decide`` is checked against
previous decisions, and agreement violations are recorded (and raised when
``strict_safety`` is on, the default).  Benchmarks that *demonstrate*
violations — the Theorem 6.1 refutation harness — run with strict safety
off and read the violation log instead.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import AgreementViolation, StalenessViolation
from repro.types import ProcessId

#: default per-shard latency-window bound (samples retained per window)
DEFAULT_LATENCY_WINDOW = 4096


def _counter() -> Counter:
    """An empty ``Counter`` without ``Counter.__init__``, whose Python-level
    ``update(None)`` makes nothing ``dict.__new__`` does not.  A ledger
    holds six and is built per kernel."""
    return Counter.__new__(Counter)


class LatencyWindow:
    """A bounded ring of ``(completed_at, latency)`` samples.

    Long-running services complete millions of requests; an unbounded
    sample list is a slow memory leak, so each window retains at most
    ``bound`` samples while ``total`` keeps counting everything ever
    appended.

    The ring is two ``array('d')`` columns, completion times and
    latencies: a sample is two floats, not a tuple the garbage collector
    tracks.  Global sample ``g`` lives at position ``g % bound``, so once
    the ring is full the oldest retained sample sits at ``total % bound``.
    Iteration yields fresh ``(completed_at, latency)`` tuples, oldest
    first.
    """

    __slots__ = ("_times", "_latencies", "total", "bound")

    def __init__(self, bound: int = DEFAULT_LATENCY_WINDOW) -> None:
        if bound < 1:
            raise ValueError("latency window bound must be >= 1")
        self._times = array("d")
        self._latencies = array("d")
        self.total = 0
        self.bound = bound

    def append(self, completed_at: float, latency: float) -> None:
        if self.total < self.bound:
            self._times.append(completed_at)
            self._latencies.append(latency)
        else:
            at = self.total % self.bound
            self._times[at] = completed_at
            self._latencies[at] = latency
        self.total += 1

    def _oldest_first(self, column: array) -> array:
        """*column* rotated so the oldest retained sample comes first."""
        at = self.total % self.bound if self.total > self.bound else 0
        return column[at:] + column[:at] if at else column

    def __iter__(self):
        return zip(self._oldest_first(self._times), self._oldest_first(self._latencies))

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LatencyWindow {len(self)}/{self.bound} retained, {self.total} total>"

    def latencies(self) -> List[float]:
        """The retained latency values, oldest first."""
        return self._oldest_first(self._latencies).tolist()


@dataclass
class DecisionRecord:
    """One process's irrevocable decision."""

    pid: ProcessId
    value: Any
    decided_at: float
    proposed_at: Optional[float]
    #: how many values this process had signed when it decided — the
    #: paper's "one signature" fast-path claim is measured against this
    signatures_at_decision: int = 0

    @property
    def delays(self) -> Optional[float]:
        """Decision latency in network delays (nominal latency model)."""
        if self.proposed_at is None:
            return None
        return self.decided_at - self.proposed_at


@dataclass
class FaultRecord:
    """One executed fault event on the run's timeline.

    ``kind`` is the controller's vocabulary (``crash_proc``,
    ``recover_proc``, ``crash_mem``, ``recover_mem``, ``partition``,
    ``heal``, ``link_chaos``, ``link_clear``, ``perm_change``); ``subject``
    names the affected process/memory/link, and ``detail`` carries
    kind-specific extras (e.g. the requested permission shape and whether
    the memory ACKed it).
    """

    time: float
    kind: str
    subject: str
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass
class MetricsLedger:
    """Counters and records accumulated by one simulation."""

    strict_safety: bool = True
    decisions: Dict[ProcessId, DecisionRecord] = field(default_factory=dict)
    #: multi-shot decisions: instance -> pid -> record
    instance_decisions: Dict[Any, Dict[ProcessId, DecisionRecord]] = field(
        default_factory=dict
    )
    proposals: Dict[ProcessId, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    messages_sent: Counter = field(default_factory=_counter)
    mem_ops: Counter = field(default_factory=_counter)
    signatures: Counter = field(default_factory=_counter)
    #: processes whose decisions are exempt from the agreement check
    #: (declared Byzantine by the fault script)
    byzantine: set = field(default_factory=set)
    #: every fault event the failure controller executed, in time order —
    #: benchmarks join this against decision/commit times to plot recovery
    #: latency under a scripted churn schedule
    fault_timeline: List[FaultRecord] = field(default_factory=list)
    #: every reconfiguration step the elastic coordinator executed
    #: (``cfg_commit``, ``fence``, ``migrate``, ``seal``, ``activate``, ...)
    #: — the epoch timeline benchmarks join against throughput and p99
    reconfig_timeline: List[FaultRecord] = field(default_factory=list)
    #: every SLO state transition the obs SLO plane recorded
    #: (``slo_breach`` / ``slo_recover``, subject = objective name, detail
    #: carries the burn rates) — deterministic in virtual time, so chaos
    #: scenarios can assert exact breach instants
    slo_timeline: List[FaultRecord] = field(default_factory=list)
    #: shard -> committed commands, fed by the shard leader's apply path;
    #: the autoscaler differentiates this into per-shard commit rates
    shard_commits: Counter = field(default_factory=_counter)
    #: shard -> bounded (completed_at, latency) ring over ALL completions —
    #: the SLO plane's burn windows and the benchmarks' before/after series
    shard_latencies: Dict[int, LatencyWindow] = field(default_factory=dict)
    #: shard -> bounded (completed_at, latency) ring over reads only —
    #: the read-path benchmarks' p50/p99 source
    shard_read_latencies: Dict[int, LatencyWindow] = field(default_factory=dict)
    #: (shard, mode) -> reads served by that path (leader/quorum/local/consensus)
    reads_served: Counter = field(default_factory=_counter)
    #: (shard, mode) -> reads a path refused (fence lost, quorum unassembled,
    #: region fenced away mid-reconfig) and handed to the consensus fallback
    read_fallbacks: Counter = field(default_factory=_counter)
    #: every detected stale read — the acceptance criterion is that this
    #: stays EMPTY: a revocation storm or epoch cutover must force a
    #: fallback, never a stale answer
    stale_reads: List[str] = field(default_factory=list)
    #: the attached observability runtime (set by ``repro.obs.attach``), or
    #: None.  It is told of every safety violation BEFORE strict_safety
    #: raises — its ``trip`` dump, taken while the evidence
    #: is still live — and receives every timeline record as a point span.
    obs: Optional[Any] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_proposal(self, pid: ProcessId, now: float) -> None:
        """Remember when *pid* first proposed (baseline for delay counts)."""
        self.proposals.setdefault(pid, now)

    def record_decision(
        self, pid: ProcessId, value: Any, now: float, instance: Any = None
    ) -> None:
        """Record a decision and enforce irrevocability + agreement.

        ``instance`` separates decisions of multi-shot protocols (one per
        replicated-log slot); agreement is checked within each instance.
        ``instance=None`` is the default single-shot decision slot.
        Decisions of Byzantine processes are logged but never checked — the
        agreement property quantifies over correct processes only.
        """
        book = (
            self.decisions
            if instance is None
            else self.instance_decisions.setdefault(instance, {})
        )
        previous = book.get(pid)
        if previous is not None:
            if previous.value != value and pid not in self.byzantine:
                self._violation(
                    f"process p{int(pid)+1} decided {previous.value!r} then "
                    f"{value!r} (instance={instance!r})"
                )
            return
        record = DecisionRecord(
            pid=pid,
            value=value,
            decided_at=now,
            proposed_at=self.proposals.get(pid),
            signatures_at_decision=self.signatures[pid],
        )
        book[pid] = record
        self._check_agreement(book, record, instance)

    def _check_agreement(self, book, record: DecisionRecord, instance: Any) -> None:
        if record.pid in self.byzantine:
            return
        for other in book.values():
            if other.pid in self.byzantine or other.pid == record.pid:
                continue
            if other.value != record.value:
                self._violation(
                    f"agreement violated (instance={instance!r}): "
                    f"p{int(other.pid)+1} decided {other.value!r} but "
                    f"p{int(record.pid)+1} decided {record.value!r}"
                )

    def _violation(self, description: str) -> None:
        self.violations.append(description)
        if self.obs is not None:
            self.obs.trip(description)
        if self.strict_safety:
            raise AgreementViolation(description)

    def _append(
        self, timeline: List[FaultRecord], time: float, kind: str, subject: str, detail
    ) -> None:
        """The one write path of all three timelines: the record, plus —
        when a runtime is attached — the same fact as a point span, so
        faults, reconfig steps and SLO transitions show up in traces,
        diffs and ``run_hash`` without a second call at the site."""
        timeline.append(FaultRecord(time, kind, subject, detail))
        if self.obs is not None:
            self.obs.point(kind, subject=subject, **detail)

    def record_fault(self, time: float, kind: str, subject: str, **detail: Any) -> None:
        """Append one executed fault event to the timeline."""
        self._append(self.fault_timeline, time, kind, subject, detail)

    def record_reconfig(self, time: float, kind: str, subject: str, **detail: Any) -> None:
        """Append one reconfiguration step to the epoch timeline."""
        self._append(self.reconfig_timeline, time, kind, subject, detail)

    def reconfigs_of(self, kind: str) -> List[FaultRecord]:
        """All reconfiguration records of one *kind*, in execution order."""
        return [record for record in self.reconfig_timeline if record.kind == kind]

    def record_slo(self, time: float, kind: str, subject: str, **detail: Any) -> None:
        """Append one SLO state transition to the timeline."""
        self._append(self.slo_timeline, time, kind, subject, detail)

    def count_shard_commit(self, shard: int, commands: int = 1) -> None:
        """Credit *commands* committed entries to *shard* (leader apply)."""
        self.shard_commits[shard] += commands

    def _window(self, book: Dict[int, LatencyWindow], shard: int) -> LatencyWindow:
        window = book.get(shard)
        if window is None:
            window = book[shard] = LatencyWindow()
        return window

    def record_shard_latency(
        self, shard: int, now: float, latency: float, kind: str = "write"
    ) -> None:
        """Record one completed request's round-trip latency for *shard*.

        ``kind`` splits the read path from the command path: reads are
        additionally recorded in ``shard_read_latencies`` so read p50/p99
        can be reported without re-classifying the combined stream.
        """
        self._window(self.shard_latencies, shard).append(now, latency)
        if kind == "read":
            self._window(self.shard_read_latencies, shard).append(now, latency)

    # ------------------------------------------------------------------
    # read-path accounting
    # ------------------------------------------------------------------
    def count_read(self, shard: int, mode: str) -> None:
        """Credit one read served to *shard* via *mode*."""
        self.reads_served[shard, mode] += 1

    def count_read_fallback(self, shard: int, mode: str) -> None:
        """One read *mode* refused to answer and fell back to consensus."""
        self.read_fallbacks[shard, mode] += 1

    def record_stale_read(self, description: str) -> None:
        """A read returned state older than its session floor — a bug.

        Like agreement violations: recorded always, raised under
        ``strict_safety`` so the offending run fails loudly.
        """
        self.stale_reads.append(description)
        if self.obs is not None:
            self.obs.trip(description)
        if self.strict_safety:
            raise StalenessViolation(description)

    @property
    def staleness_violations(self) -> int:
        """The must-stay-zero counter the read-path acceptance gates on."""
        return len(self.stale_reads)

    def total_reads_served(self, mode: Optional[str] = None) -> int:
        return sum(
            count
            for (_shard, m), count in self.reads_served.items()
            if mode is None or m == mode
        )

    def total_read_fallbacks(self) -> int:
        return sum(self.read_fallbacks.values())

    def faults_of(self, kind: str) -> List[FaultRecord]:
        """All timeline entries of one fault *kind*, in execution order."""
        return [record for record in self.fault_timeline if record.kind == kind]

    def downtime_spans(self, subject: str) -> List[tuple]:
        """``(down_at, up_at)`` spans for one subject (``up_at`` None while
        still down at the end of the run) — the x-axis of recovery plots."""
        spans: List[tuple] = []
        down: Optional[float] = None
        for record in self.fault_timeline:
            if record.subject != subject:
                continue
            if record.kind in ("crash_proc", "crash_mem") and down is None:
                down = record.time
            elif record.kind in ("recover_proc", "recover_mem") and down is not None:
                spans.append((down, record.time))
                down = None
        if down is not None:
            spans.append((down, None))
        return spans

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def count_message(self, pid: ProcessId) -> None:
        self.messages_sent[pid] += 1

    def count_mem_op(self, pid: ProcessId, kind: str) -> None:
        self.mem_ops[pid, kind] += 1

    def count_signature(self, pid: ProcessId) -> None:
        self.signatures[pid] += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def decided_values(self, exclude_byzantine: bool = True) -> set:
        """The set of values decided by (correct) processes."""
        return {
            rec.value
            for rec in self.decisions.values()
            if not (exclude_byzantine and rec.pid in self.byzantine)
        }

    def delays_of(self, pid: ProcessId) -> Optional[float]:
        """Decision delay of *pid* in the paper's delay units, or None."""
        record = self.decisions.get(pid)
        return None if record is None else record.delays

    def earliest_decision_delay(self) -> Optional[float]:
        """Delay of the earliest decision — the paper's "k-deciding" k."""
        delays = [
            rec.delays
            for rec in self.decisions.values()
            if rec.delays is not None and rec.pid not in self.byzantine
        ]
        return min(delays) if delays else None

    def total_signatures(self) -> int:
        return sum(self.signatures.values())

    def total_messages(self) -> int:
        return sum(self.messages_sent.values())

    def total_mem_ops(self) -> int:
        return sum(self.mem_ops.values())
