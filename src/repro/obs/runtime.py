"""The observability runtime: span recording wired into the kernel.

An :class:`ObsRuntime` is *attached* to a kernel (:func:`attach`); until
then ``kernel.obs`` is ``None`` and every kernel-side hook is one
attribute load and one branch, with no label or kwargs built.  Attached,
the runtime receives the kernel's causal hook calls and turns them into
the span tree:

* every task gets a ``task`` span; spawned tasks parent under the
  spawner's current context;
* every message gets a ``msg`` span riding the envelope (``env.ctx``);
  delivery closes it, and the receiving task *adopts* the message span as
  its context — the cross-process causal hop;
* every memory operation gets a ``memop`` span keyed by its completion
  token: the response leg closes it, a crashed memory leaves
  it open — exactly the RDMA "context rides the op" analogue;
* protocols open ``phase`` spans through :meth:`phase` (via
  ``env.obs``), nesting subsequent work under them; the open phase is a
  :class:`PhaseHandle`, a :class:`Span` that is its own handle;
* proposals/decisions land as ``point`` events, remembering the trace a
  decision belongs to for the critical-path analyzer; so does every
  record the metrics ledger appends to its fault / reconfig / SLO
  timelines (name = the record's kind, ``subject`` + detail as attrs),
  and every message or memory op the kernel drops (``mem_drop``,
  ``partition_drop``, ``chaos_drop``).

Only *open* spans are objects.  Closing one writes it as a row of
:attr:`ObsRuntime.finished`, a :class:`~repro.obs.spans.SpanLog` of flat
columns — the newest ``max_spans`` readable, the rest counted in
``dropped`` — and the ``Span`` itself is let go.  A span that opens and
closes inside one call (points, fan-out verdicts, the ledger's forwarded
records) goes straight to the log as a row; it becomes a ``Span`` only
when a sink is attached.  ``runtime.spans``, iteration and indexing
rebuild equal ``Span`` objects on demand, so the analyzers, ``run_hash``,
the flight recorder (which reads the log's tail) and the sinks see the
stream they always saw, while a finished row allocates nothing the
garbage collector tracks.

The runtime also owns the metrics registry (with a virtual-time sampling
ticker), the per-task wall-clock profiler, the flight recorder (tripped by
ledger violations), and the streaming sinks.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.flight import FlightRecorder
from repro.obs.profiler import TaskProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import K_MEMOP, K_MSG, K_PHASE, K_POINT, K_TASK, Span, SpanLog
from repro.types import memory_name

#: default bound on retained finished spans (ring: newest kept)
DEFAULT_MAX_SPANS = 200_000


class PhaseHandle(Span):
    """An open phase span, returned by :meth:`ObsRuntime.phase` as its own
    handle.

    ``finish()`` closes the span and restores the task's previous context
    (unless a message adoption already moved it — the newer causal link
    wins).  Idempotent: double-finish is a no-op.

    A task that keeps several phases open at once (a shard leader with two
    slots in flight) cannot nest them: it ``suspend()``s each one after
    posting its work — the span stays open, the task's context goes back
    to what it was — and ``resume()``s it to settle, so every slot stays
    its own subtree instead of parenting under its older neighbour.
    """

    __slots__ = ("_runtime", "_task", "_prev")

    def finish(self, **attrs: Any) -> None:
        if self.end is not None:
            return
        if attrs:
            if self.attrs is None:
                self.attrs = {}
            self.attrs.update(attrs)
        if self._task.ctx is self:
            self._task.ctx = self._prev
        runtime = self._runtime
        runtime._finish(self, runtime.kernel.now)

    def suspend(self) -> None:
        """Step the task out of this phase without closing it."""
        if self._task.ctx is self:
            self._task.ctx = self._prev

    def resume(self) -> None:
        """Step the task back into this (still open) phase; ``finish()``
        then restores the context that was current here."""
        task = self._task
        if self.end is None and task.ctx is not self:
            self._prev = task.ctx
            task.ctx = self


class ObsRuntime:
    """Span recorder + metrics registry + profiler + flight recorder."""

    def __init__(
        self,
        kernel,
        max_spans: int = DEFAULT_MAX_SPANS,
        profile: bool = True,
        flight_capacity: int = 512,
        flight_path: Optional[str] = None,
        series_bound: Optional[int] = None,
    ) -> None:
        self.kernel = kernel
        #: finished spans as rows, newest ``max_spans`` kept (see SpanLog)
        self.finished = SpanLog(max_spans)
        self.registry = (
            MetricsRegistry() if series_bound is None else MetricsRegistry(series_bound)
        )
        self.profiler: Optional[TaskProfiler] = TaskProfiler() if profile else None
        #: SLO tracker installed by :meth:`track_slo`, or None
        self.slo: Optional[Any] = None
        self.flight = FlightRecorder(flight_capacity, flight_path)
        self.flight.wire(self.finished, self.open_spans, self._flight_context)
        self.sinks: List[Any] = []
        self.current_task = None
        #: (pid, instance) -> (decided_at, trace_id) for the analyzer
        self.decide_points: Dict[Tuple[Any, Any], Tuple[float, Optional[int]]] = {}
        self._open: Dict[int, Span] = {}
        self._task_spans: Dict[int, Span] = {}
        self._op_spans: Dict[Any, Span] = {}
        #: topic -> "msg:" + topic, built once per topic
        self._msg_names: Dict[str, str] = {}
        #: memory id -> its name, built once per memory
        self._mem_names: Dict[Any, str] = {}
        self._next_span = 0
        self._next_trace = 0
        self._t0 = 0.0
        self._sample_interval: Optional[float] = None
        self._sample_until: Optional[float] = None

    # ------------------------------------------------------------------
    # span plumbing
    # ------------------------------------------------------------------
    def _start(
        self,
        name: str,
        kind: str,
        actor: str,
        parent: Optional[Span],
        attrs: Optional[Dict[str, Any]],
        now: float,
        cls: type = Span,
    ) -> Span:
        """Open a span (a *cls*) and enter it in the open table."""
        self._next_span = span_id = self._next_span + 1
        if parent is None:
            self._next_trace = trace_id = self._next_trace + 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = cls(span_id, parent_id, trace_id, name, kind, actor, now, attrs)
        self._open[span_id] = span
        return span

    def _finish(self, span: Span, now: float) -> None:
        span.end = now
        self._open.pop(span.span_id, None)
        self.finished.add(
            span.span_id, span.parent_id, span.trace_id, span.name, span.kind,
            span.actor, span.start, now, span.attrs,
        )
        if self.sinks:
            for sink in self.sinks:
                sink.emit(span)

    def _instant(self, name: str, actor: str, parent: Optional[Span], attrs, now: float) -> int:
        """Write a point span that opens and closes now straight to the log
        (a :class:`Span` is built only for the sinks); returns its trace."""
        self._next_span = span_id = self._next_span + 1
        if parent is None:
            self._next_trace = trace_id = self._next_trace + 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self.finished.add(span_id, parent_id, trace_id, name, K_POINT, actor, now, now, attrs)
        if self.sinks:
            span = Span(span_id, parent_id, trace_id, name, K_POINT, actor, now, attrs)
            span.end = now
            for sink in self.sinks:
                sink.emit(span)
        return trace_id

    @property
    def dropped(self) -> int:
        """Finished spans the log no longer holds."""
        return self.finished.dropped

    @property
    def spans(self) -> List[Span]:
        """Finished spans, oldest retained first."""
        return list(self.finished)

    def open_spans(self) -> List[Span]:
        """Spans started but never closed (in flight, hung, or live)."""
        return list(self._open.values())

    def add_sink(self, sink) -> None:
        # Sinks that can render registry instruments (Perfetto counter
        # tracks) but were built without a registry get this runtime's.
        if getattr(sink, "registry", False) is None:
            sink.registry = self.registry
        self.sinks.append(sink)

    def close(self) -> None:
        """Flush and close every sink (call once at end of run)."""
        for sink in self.sinks:
            sink.close()
        self.sinks = []

    # ------------------------------------------------------------------
    # kernel hooks (all behind ``kernel.obs is not None``)
    # ------------------------------------------------------------------
    def task_spawned(self, task) -> None:
        span = self._start(task.name, K_TASK, task.label, task.ctx, None, self.kernel.now)
        self._task_spans[task.task_id] = span
        task.ctx = span

    def task_killed(self, task, now: float) -> None:
        """Close a crashed process's task span (attr marks the kill)."""
        span = self._task_spans.pop(task.task_id, None)
        if span is not None and span.end is None:
            span.attrs = {**(span.attrs or {}), "killed": True}
            self._finish(span, now)

    def enter_task(self, task) -> None:
        self.current_task = task
        if self.profiler is not None:
            self._t0 = perf_counter()

    def exit_task(self, task, now: float) -> None:
        if self.profiler is not None:
            self.profiler.add(task.task_id, task.label, perf_counter() - self._t0, now)
        self.current_task = None
        if task.done:
            span = self._task_spans.pop(task.task_id, None)
            if span is not None:
                self._finish(span, now)

    def msg_sent(self, task, env, now: float) -> Span:
        """Open the transport span that rides the envelope (``env.ctx``)."""
        topic = env.topic
        name = self._msg_names.get(topic)
        if name is None:
            name = self._msg_names[topic] = "msg:" + topic
        return self._start(
            name,
            K_MSG,
            task.label,
            task.ctx,
            {"src": env.src, "dst": env.dst, "msg_id": env.msg_id},
            now,
        )

    def msg_delivered(self, env, now: float) -> None:
        span = env.ctx
        if span is not None and span.end is None:
            self._finish(span, now)

    def op_started(self, task, key, mid, op, now: float) -> None:
        """Open a memop span for one fan-out leg, keyed by (task, token,
        index).  A fused chain gets ONE span (single-completion semantics)
        annotated with its sub-op count; a segmented chain gets one span
        per work request, under one key."""
        mem = self._mem_names.get(mid)
        if mem is None:
            mem = self._mem_names[mid] = memory_name(mid)
        attrs = {"mem": mem}
        sub_ops = getattr(op, "ops", None)
        if sub_ops is not None:
            attrs["ops"] = len(sub_ops)
        # The shared flow id (task.token) lets sinks link every issued leg
        # to the single-completion verdict.
        attrs["flow"] = f"{key[0]}.{key[1]}"
        span = self._start(
            type(op).__name__,
            K_MEMOP,
            task.label,
            task.ctx,
            attrs,
            now,
        )
        self._op_spans[key] = span

    def fanout_verdict(self, task, state, now: float) -> None:
        """Record the single-completion verdict of an op fan-out.

        Fired by the kernel the moment a fan-out's quorum rule is
        satisfied (before the task wakes).  The point span carries the
        same ``flow`` id as the issued legs, closing the causal link
        issue -> verdict in trace viewers, and parents under the context
        the fan-out was posted from (``state.ctx``): a parked issuer's
        context cannot have moved, a posted fan-out's issuer has gone on
        to other work.
        """
        self._instant(
            "fanout.verdict",
            task.label,
            state.ctx,
            {
                "flow": f"{task.task_id}.{state.token}",
                "acked": state.acked,
                "naked": state.naked,
                "done": state.done,
            },
            now,
        )

    def op_resolved(self, key, now: float, status: str) -> None:
        span = self._op_spans.pop(key, None)
        if span is not None:
            span.attrs["status"] = status
            self._finish(span, now)

    # ------------------------------------------------------------------
    # protocol-facing API (via ``env.obs``)
    # ------------------------------------------------------------------
    def phase(self, name: str, **attrs: Any) -> Optional[PhaseHandle]:
        """Open a phase span under the current task's context."""
        task = self.current_task
        return None if task is None else self._phase(task, name, task.ctx, attrs)

    def phase_under(self, name: str, parent, **attrs: Any) -> Optional[PhaseHandle]:
        """Open a phase span under an explicit *parent* context.

        This is how causality crosses a queue handoff that no message or
        memory op carries: the enqueuer's context is stashed with the
        item, and the consuming task (e.g. a shard leader draining its
        batch) opens its work span under it — so a client's ``put`` trace
        continues into the consensus instance that commits it.  Falls
        back to the current task's context when *parent* is ``None``.
        """
        task = self.current_task
        if task is None:
            return None
        return self._phase(task, name, task.ctx if parent is None else parent, attrs)

    def _phase(self, task, name: str, parent, attrs) -> PhaseHandle:
        phase = self._start(
            name, K_PHASE, task.label, parent, attrs or None, self.kernel.now, PhaseHandle
        )
        phase._runtime = self
        phase._task = task
        phase._prev = task.ctx
        task.ctx = phase
        return phase

    def point(self, name: str, **attrs: Any) -> int:
        """Record an instantaneous event under the current context; returns
        the id of the trace it joined."""
        task = self.current_task
        if task is None:
            return self._instant(name, "kernel", None, attrs or None, self.kernel.now)
        return self._instant(name, task.label, task.ctx, attrs or None, self.kernel.now)

    def enclosing_phases(self, task) -> List[str]:
        """Names of the open phase spans enclosing *task*'s context.

        Innermost first.  The walk follows ``parent_id`` links through the
        open-span table, so it stops at the first finished ancestor —
        what-if phase matching (``ScalePhase``) deliberately sees only
        phases that are still in progress at pricing time.
        """
        names: List[str] = []
        span = task.ctx
        depth = 0
        while span is not None and depth < 64:
            if span.kind == K_PHASE and span.end is None:
                names.append(span.name)
            parent = span.parent_id
            span = None if parent is None else self._open.get(parent)
            depth += 1
        return names

    def proposed(self, pid, now: float) -> None:
        self.point("propose", pid=int(pid))

    def decided(self, pid, value, instance, now: float) -> None:
        trace_id = self.point("decide", pid=int(pid), value=value, instance=instance)
        self.decide_points[(pid, instance)] = (now, trace_id)

    # ------------------------------------------------------------------
    # metrics sampling (virtual-time ticker)
    # ------------------------------------------------------------------
    def start_sampling(self, interval: float, until: Optional[float] = None) -> None:
        """Sample standard gauges every *interval* virtual units.

        The ticker rechains through ``kernel.call_at``; pass *until* (or
        run the kernel with its own ``until``) so the chain terminates.
        """
        if interval <= 0:
            raise ValueError("sampling interval must be > 0")
        self._sample_interval = interval
        self._sample_until = until
        self._tick()

    @property
    def sampling(self) -> bool:
        """True once :meth:`start_sampling` armed the ticker."""
        return self._sample_interval is not None

    def _tick(self) -> None:
        kernel = self.kernel
        self.sample_now()
        if self.slo is not None:
            self.slo.evaluate(kernel.now)
        interval = self._sample_interval
        if interval is None:
            return
        next_at = kernel.now + interval
        if self._sample_until is not None and next_at > self._sample_until:
            return
        kernel.call_at(next_at, self._tick)

    def sample_now(self) -> None:
        """Take one sample of every standard gauge at the current instant."""
        kernel = self.kernel
        now = kernel.now
        gauge = self.registry.gauge
        gauge("kernel.queue_depth").sample(now, len(kernel.queue))
        network = kernel.network
        for pid in range(kernel.config.n_processes):
            gauge("net.inbox", pid=pid).sample(now, network.pending_count(pid))
        for memory in kernel.memories:
            gauge("mem.naks", mem=int(memory.mid)).sample(now, memory.counts.naks)
        ledger = kernel.metrics
        gauge("reads.fallbacks").sample(now, ledger.total_read_fallbacks())
        gauge("reconfig.steps").sample(now, len(ledger.reconfig_timeline))
        moved = 0
        for record in ledger.reconfig_timeline:
            if record.kind == "migrate":
                moved += record.detail.get("keys", 0)
        gauge("reconfig.keys_moved").sample(now, moved)

    # ------------------------------------------------------------------
    # SLO plane (see repro.obs.slo)
    # ------------------------------------------------------------------
    def track_slo(self, objectives, interval: Optional[float] = None, until: Optional[float] = None):
        """Install an SLO tracker evaluating *objectives* on the ticker.

        Objectives are :class:`repro.obs.slo.Objective` declarations;
        evaluation happens on every sampling tick (burn rates are
        windowed in *virtual* time, so the ticker must be running — pass
        *interval* to arm it here, or call :meth:`start_sampling`
        yourself).  Returns the tracker (also at :attr:`slo`).
        """
        from repro.obs.slo import SloTracker

        if self.slo is None:
            self.slo = SloTracker(self, objectives)
        else:
            self.slo.add(objectives)
        if interval is not None and not self.sampling:
            self.start_sampling(interval, until=until)
        return self.slo

    # ------------------------------------------------------------------
    # violation tripwire (called by the metrics ledger this is attached to)
    # ------------------------------------------------------------------
    def on_violation(self, description: str) -> None:
        self.flight.trip(description, self.kernel.now)

    def _flight_context(self) -> Dict[str, Any]:
        """Registry + SLO state included in flight-recorder dumps, so a
        violation dump is self-contained (no live runtime needed)."""
        context: Dict[str, Any] = {"metrics": self.registry.snapshot()}
        if self.slo is not None:
            context["slo"] = self.slo.snapshot()
        return context


def attach(
    kernel,
    *,
    max_spans: int = DEFAULT_MAX_SPANS,
    profile: bool = True,
    flight_capacity: int = 512,
    flight_path: Optional[str] = None,
    series_bound: Optional[int] = None,
) -> ObsRuntime:
    """Attach an observability runtime to *kernel* and return it.

    Until this is called, ``kernel.obs`` is ``None`` and observability
    costs one pointer check per kernel hook.
    """
    if kernel.obs is not None:
        return kernel.obs
    runtime = ObsRuntime(
        kernel,
        max_spans=max_spans,
        profile=profile,
        flight_capacity=flight_capacity,
        flight_path=flight_path,
        series_bound=series_bound,
    )
    kernel.obs = runtime
    kernel.metrics.obs = runtime
    return runtime


def detach(kernel) -> None:
    """Detach the runtime (closing its sinks); hooks go quiescent again."""
    runtime = kernel.obs
    if runtime is None:
        return
    runtime.close()
    kernel.metrics.obs = None
    kernel.obs = None
