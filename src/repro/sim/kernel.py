"""The simulation kernel: tasks, effects, virtual time, failures.

One :class:`Kernel` simulates one M&M system: ``n`` processes (each running
one or more generator *tasks*), ``m`` memories, a message network, a
signature authority and a metrics ledger.  The kernel is single-threaded and
deterministic: all scheduling flows through a time-ordered event queue with
FIFO tie-breaking, and all randomness through one seeded ``Random``.

Timing semantics (paper Section 3, "Complexity of algorithms"):

* computation is instantaneous — a resumed task runs through any number of
  non-blocking effects (sends, memory-op invocations, spawns) at the same
  virtual instant until it parks on a wait/recv/sleep;
* a message takes ``latency.message_delay`` (nominal: 1 unit);
* a memory operation takes a request leg plus a response leg (nominal: 2).

Failure semantics:

* a crashed process never runs again (its tasks are killed, its inbox is
  dropped) — until a scripted *recovery* removes the crash flag and the
  registered recovery hooks re-spawn fresh protocol tasks, which rebuild
  their state from the memory regions;
* a crashed memory silently swallows requests — the operation simply
  never completes, indistinguishable from slowness; a recovered memory
  answers again, with its regions intact or wiped (see ``recover_memory``);
* the crash sets are *time-varying state*, consulted on every delivery and
  resume — nothing may cache "p is faulty" across instants;
* partitions sever link-level reachability (checked per delivery), and
  per-link chaos filters inflate/drop/duplicate messages on the send path
  (see :mod:`repro.sim.faults` — all of it scheduled as typed ``EV_FAULT``
  queue entries executed by the kernel's :class:`FailureController`);
* a Byzantine process runs whatever strategy generator was installed, but
  the memories still enforce permissions and the signature authority still
  only gives it its own key.

Hot-path structure
------------------

The kernel is also the inner loop of every experiment, so the scheduling
machinery is built around flat dispatch tables instead of type scans and
closures:

* every queue entry is a typed tuple ``(time, seq, kind, a, b, c)`` (see
  :mod:`repro.sim.event_queue`); ``run`` dispatches through
  ``_ev_handlers[kind]`` — no per-event lambda is ever allocated;
* every effect carries an integer ``kind`` tag (see
  :mod:`repro.sim.effects`); ``_resume`` dispatches through
  ``_fx_handlers[kind]`` — no isinstance chain;
* both tables (like the fault controller's and the memories' operation
  tables) are tuples of plain functions set on the class and called with
  the kernel first, so a fresh kernel binds no handler: the paper's
  tables build thousands of single-shot kernels, and the explorer one
  per schedule;
* the memory-operation path — posting, pricing, landing and resolving
  every fan-out leg — lives in :mod:`repro.sim.memops` as such functions:
  its entries fill the ``EV_FAN_*`` and ``FX_OP_FANOUT`` slots, and
  ``run`` calls its two event handlers inline like ``resume``;
* ``rng`` and ``authority`` are built on the first draw or signature,
  from ``config.seed``, so the stream and the keys are those an eager
  build would give, and a run that never draws or signs never pays for
  them.  Not through ``__getattr__``: on CPython 3.11 a class that
  defines it gets no specialised attribute load at all, and every event
  handler reads kernel attributes (nor through ``cached_property``, see
  :class:`_first_use`);
* a task woken at the current instant (message delivered, quorum reached,
  gate signalled) is resumed through the queue's *ready lane* rather than
  a second heap round-trip;
* every timed wait is armed through ``_arm``: a task keeps one armed timer
  entry in the heap, and a later deadline waits on the task until that
  entry pops, so a retry timer whose reply came first costs no event;
* the nominal latency model's constant delays are cached so the common
  case skips per-message method dispatch;
* ``self.obs`` is the one observer slot: the causal observability layer
  (:mod:`repro.obs`) hooks task, message, memory-op, decision and drop
  sites behind ``self.obs is not None`` — detached (the default), every
  hook is one attribute load and one branch, and no label or kwargs are
  built; attached, spans ride envelopes (``env.ctx``) and memory-op
  completion tokens across the scheduler.  Counts, timelines and safety
  checks live in the always-on :class:`MetricsLedger`, which forwards
  its timeline records to the same slot.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Set

from repro.crypto.signatures import SignatureAuthority
from repro.errors import LivelockError, SimulationError
from repro.mem.layout import MemoryLayout
from repro.mem.memory import Memory
from repro.metrics.ledger import MetricsLedger
from repro.net.messages import Envelope
from repro.net.network import Network, RecvWaiter
from repro.sim.effects import (
    PARKED,
    GateWaitEffect,
    RecvEffect,
    SendEffect,
    SleepEffect,
    SpawnEffect,
)
from repro.sim.event_queue import (
    EV_CALL,
    EV_DELIVER,
    EV_FAN_ARRIVE,
    EV_FAN_RESOLVE,
    EV_FAULT,
    EV_RECV_TIMEOUT,
    EV_RESUME,
    EV_WAKE,
    EventQueue,
)
from repro.sim.faults import FailureController
from repro.sim.latency import LatencyModel, NominalLatency
from repro.sim.memops import (
    FUSED,
    SEGMENTED,
    _ev_fan_arrive,
    _ev_fan_resolve,
    _fx_op_fanout,
)
from repro.types import MemoryId, ProcessId, memory_name, process_name

#: Ω failure-detector oracle: maps virtual time to the current leader pid.
OmegaFn = Callable[[float], int]


@dataclass
class SimConfig:
    """Static configuration of one simulation."""

    n_processes: int
    n_memories: int = 0
    latency: LatencyModel = field(default_factory=NominalLatency)
    seed: int = 0
    strict_safety: bool = True
    #: how a BatchOp chain reaches its memory.  ``"fused"``: one request,
    #: applied atomically at its arrival, priced request + k·issue +
    #: response (doorbell batching: only the last WR signals).
    #: ``"segmented"``: one signalled round trip per work request, each
    #: applied at its own arrival, the next posted when the previous
    #: completes — the classic per-op issue.  Same protocol code, same
    #: ChainAbort on the first NAK; only the price and the interleaving
    #: other processes' ops may take between two sub-ops differ.
    chain_delivery: str = FUSED
    #: cap on same-instant effects one task may run (runaway detector)
    max_inline_steps: int = 100_000
    #: Ω oracle; default: p1 is always the leader
    omega: Optional[OmegaFn] = None
    #: the disk model of Section 3 has no links: sending raises
    links_enabled: bool = True

    def __post_init__(self) -> None:
        if self.n_processes < 1:
            raise ValueError("need at least one process")
        if self.n_memories < 0:
            raise ValueError("n_memories must be >= 0")
        if self.chain_delivery not in (FUSED, SEGMENTED):
            raise ValueError(f"unknown chain_delivery {self.chain_delivery!r}")


class _first_use:
    """A method whose result becomes an instance attribute on first read.

    ``functools.cached_property`` without its one cost here: it stores
    through ``instance.__dict__``, which on CPython 3.11 moves the
    instance's attributes out of their inline slots, and every attribute
    load specialised for those slots falls back to a dict lookup.
    ``setattr`` stores into the slots.  Not being a data descriptor, the
    stored value shadows this one from then on.
    """

    def __init__(self, build: Callable[[Any], Any]) -> None:
        self._build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, instance: Any, owner: Optional[type] = None) -> Any:
        if instance is None:
            return self
        value = self._build(instance)
        setattr(instance, self._name, value)
        return value


class Task:
    """One generator running on one process."""

    __slots__ = (
        "task_id",
        "pid",
        "name",
        "gen",
        "started",
        "done",
        "result",
        "daemon",
        "pending_token",
        "_token_counter",
        "timer_at",
        "deferred",
        "ctx",
        "_label",
    )

    def __init__(
        self,
        task_id: int,
        pid: ProcessId,
        name: str,
        gen: Generator,
        daemon: bool,
        ctx: Any = None,
    ):
        self.task_id = task_id
        self.pid = pid
        self.name = name
        self.gen = gen
        self.started = False
        self.done = False
        self.result: Any = None
        self.daemon = daemon
        self.pending_token: Optional[int] = None
        self._token_counter = 0
        #: time of this task's armed timer entry in the heap, or None
        self.timer_at: Optional[float] = None
        #: ``(time, seq, kind, token, value)`` of a timer parked behind
        #: the armed entry, pushed when that entry pops (see ``_arm``)
        self.deferred: Optional[tuple] = None
        #: causal trace context (a repro.obs Span) new child spans parent
        #: under; None whenever observability is detached
        self.ctx = ctx
        self._label: Optional[str] = None

    def new_token(self) -> int:
        self._token_counter += 1
        self.pending_token = self._token_counter
        return self._token_counter

    @property
    def label(self) -> str:
        """``"<process>/<task name>"``, built on first use: every span of
        this task shares the one string, and a detached run never asks."""
        label = self._label
        if label is None:
            label = self._label = f"{process_name(self.pid)}/{self.name}"
        return label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("parked" if self.pending_token else "ready")
        return f"<Task {self.label} {state}>"


class Kernel:
    """Deterministic discrete-event simulator of one M&M system."""

    def __init__(self, config: SimConfig, layout: Optional[MemoryLayout] = None):
        self.config = config
        self.now = 0.0
        self.queue = EventQueue()
        #: attached observability runtime (repro.obs), or None — the
        #: zero-cost default every hook below checks first
        self.obs: Optional[Any] = None
        #: pluggable scheduler (see repro.sim.schedule / repro.check), or
        #: None — the default, which keeps run() on the closed hot loop.
        #: Costs one ``is None`` check per run() call, never per event.
        self.scheduler: Optional[Any] = None
        self.metrics = MetricsLedger(strict_safety=config.strict_safety)
        self.network = Network(config.n_processes)
        self.layout = layout or MemoryLayout([])
        self.memories: List[Memory] = [
            Memory(MemoryId(mid), self.layout) for mid in range(config.n_memories)
        ]
        self.crashed_processes: Set[ProcessId] = set()
        self.byzantine_processes: Set[ProcessId] = set()
        self.tasks: List[Task] = []
        self._next_task_id = 0
        self.omega: OmegaFn = config.omega or (lambda now: 0)
        # Constant delays of the latency model, or None when the model is
        # dynamic.  NominalLatency declares all three as 1.0, letting the
        # common case skip the method + RNG dispatch per message/leg.
        latency = config.latency
        self._msg_delay: Optional[float] = latency.constant_message_delay
        self._req_delay: Optional[float] = latency.constant_request_delay
        self._resp_delay: Optional[float] = latency.constant_response_delay
        self._issue_delay: Optional[float] = latency.constant_issue_delay
        latency.bind(self)
        # Static config and ledger references hoisted off the per-event path.
        # links_enabled and chain_delivery are NOT hoisted: callers toggle
        # both on the config post-init (e.g. the disk-model cluster).
        self._max_inline_steps = config.max_inline_steps
        self._msg_counter = self.metrics.messages_sent
        self._mem_op_counter = self.metrics.mem_ops
        self.failures = FailureController(self)

    @_first_use
    def rng(self) -> random.Random:
        """The one seeded ``Random`` every delay, backoff and chaos draw uses."""
        return random.Random(self.config.seed)

    @_first_use
    def authority(self) -> SignatureAuthority:
        """The signature authority: per-process keys derived from the seed."""
        return SignatureAuthority(seed=self.config.seed)

    def set_latency(self, latency) -> None:
        """Swap the latency model, invalidating the cached constants.

        The constructor caches the model's ``constant_*`` delays so the
        hot path can skip method dispatch; installing a model after
        construction (what-if counterfactuals wrapping the baseline in a
        :class:`~repro.obs.whatif.LatencyOverride`) must re-derive them or
        the kernel would silently keep pricing with the old model.  Also
        re-runs :meth:`LatencyModel.bind` so state-dependent models pick
        up this kernel.
        """
        self.config.latency = latency
        self._msg_delay = latency.constant_message_delay
        self._req_delay = latency.constant_request_delay
        self._resp_delay = latency.constant_response_delay
        self._issue_delay = latency.constant_issue_delay
        latency.bind(self)

    # ------------------------------------------------------------------
    # task management
    # ------------------------------------------------------------------
    def spawn(
        self,
        pid: ProcessId,
        name: str,
        gen: Generator,
        daemon: bool = False,
        ctx: Any = None,
    ) -> Task:
        """Register *gen* as a task of process *pid*; first step runs at ``now``.

        *ctx* seeds the task's causal trace context (tasks spawned by a
        running task inherit the spawner's — see ``_fx_spawn``).
        """
        self._next_task_id += 1
        task = Task(self._next_task_id, ProcessId(pid), name, gen, daemon, ctx)
        self.tasks.append(task)
        if self.obs is not None:
            self.obs.task_spawned(task)
        self.queue.push(self.now, EV_RESUME, task, None)
        return task

    def call_at(self, time: float, fn: Callable[[], None]) -> None:
        """Run *fn* at virtual *time* (ad-hoc timers, test probes)."""
        self.queue.push(max(float(time), self.now), EV_CALL, fn)

    def schedule_fault(self, time: float, event) -> None:
        """Arm one typed fault event (see :mod:`repro.sim.faults`) at
        virtual *time* — the closure-free replacement for ``call_at``-based
        fault timers: the queue entry carries the event object itself."""
        self.queue.push(max(float(time), self.now), EV_FAULT, event)

    def inject(self, envelope: Envelope, arrival: float) -> None:
        """Schedule an externally produced *envelope* for delivery at
        *arrival* — the parallel fabric's entry point into a worker kernel.

        Conservative synchronization requires ``arrival >= now``: the
        coordinator only injects at a barrier every cell has reached, and
        cross-cell delay is at least the fabric lookahead, so a violation
        here means the lookahead contract was broken, not a race to paper
        over.
        """
        if arrival < self.now:
            raise ValueError(
                f"injection at t={arrival} is in this kernel's past (now={self.now})"
            )
        self.network.injected += 1
        self.queue.push(float(arrival), EV_DELIVER, envelope)

    def register_regions(self, specs) -> None:
        """Register new memory regions at runtime (elastic reconfiguration).

        Mirrors RDMA memory registration: the shared layout grows and the
        region's boot permission is installed on every memory — crashed
        ones included, since a region's permission state is hardware
        state that is simply present when the memory revives.  Idempotent
        per region id, so a coordinator re-running an epoch after a crash
        neither duplicates regions nor resets permissions its first
        attempt already moved.
        """
        for spec in specs:
            if self.layout.by_id(spec.region_id) is None:
                self.layout.add(spec)
            for memory in self.memories:
                memory.add_region(spec)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def crash_process(self, pid: ProcessId) -> None:
        """Crash *pid* now: its tasks are killed, its inbox dropped.

        Killing (rather than merely never resuming) the tasks is what makes
        recovery sound: a stale timer for a pre-crash task must never fire
        into the process's next incarnation.
        """
        pid = ProcessId(pid)
        if pid in self.crashed_processes:
            return
        self.crashed_processes.add(pid)
        for task in self.tasks:
            if task.pid == pid:
                self.kill_task(task)
        self.network.drop_process(pid)
        self.metrics.record_fault(self.now, "crash_proc", process_name(pid))
        self.failures.notify_crash(pid)

    def kill_task(self, task: Task) -> None:
        """Kill *task*: it never resumes, so close its task span (marked
        ``killed``) here — it will never reach ``exit_task``."""
        if not task.done:
            task.done = True
            if self.obs is not None:
                self.obs.task_killed(task, self.now)

    def recover_process(self, pid: ProcessId) -> None:
        """Recover *pid* now: delivery resumes and the failure controller's
        recovery hooks re-spawn its protocol tasks (with state rebuilt from
        the memory regions — the cluster runners register those hooks)."""
        pid = ProcessId(pid)
        if pid not in self.crashed_processes:
            return
        self.crashed_processes.discard(pid)
        self.metrics.record_fault(self.now, "recover_proc", process_name(pid))
        self.failures.notify_recover(pid)

    def crash_memory(self, mid: MemoryId) -> None:
        """Crash memory *mid* now: subsequent operations on it hang."""
        memory = self.memories[mid]
        if not memory.crashed:
            memory.crash()
            self.metrics.record_fault(self.now, "crash_mem", memory_name(mid))

    def recover_memory(self, mid: MemoryId, wipe: bool = False) -> None:
        """Revive memory *mid* now, regions intact (or wiped to boot state)."""
        memory = self.memories[mid]
        if memory.crashed:
            memory.recover(wipe=wipe)
            self.metrics.record_fault(
                self.now, "recover_mem", memory_name(mid), wipe=wipe
            )

    def mark_byzantine(self, pid: ProcessId) -> None:
        """Exempt *pid* from agreement accounting (its strategy is installed
        by the cluster runner)."""
        pid = ProcessId(pid)
        self.byzantine_processes.add(pid)
        self.metrics.byzantine.add(pid)

    def is_faulty(self, pid: ProcessId) -> bool:
        return pid in self.crashed_processes or pid in self.byzantine_processes

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Process events until the queue drains, *until* passes, or
        *stop_when* returns True.  Returns the final virtual time.

        This IS the hot loop: dispatch for the frequent event kinds is
        inlined as an integer ``if``/``elif`` chain (cheaper than a table
        call), with the rare kinds falling through to ``_ev_handlers``.
        The queue's two lanes are drained ready-first through local
        bindings; counters are maintained inline.

        With a pluggable scheduler attached the call is delegated to the
        open-frontier loop instead — same semantics for the default pick,
        but every same-instant entry becomes a choice point.
        """
        if self.scheduler is not None:
            return self._run_scheduled(until, max_events, stop_when)
        processed = 0
        queue = self.queue
        ready = queue._ready
        heap = queue._heap
        pop_ready = ready.popleft
        handlers = self._ev_handlers
        resume = self._resume
        deliver = self._deliver
        timer_fired = self._timer_fired
        fan_arrive = _ev_fan_arrive
        fan_resolve = _ev_fan_resolve
        try:
            while ready or heap:
                if stop_when is not None and stop_when():
                    break
                if ready:
                    # Same-instant fast path: tasks woken by the event that
                    # just ran resume now, before anything more off the heap.
                    if until is not None and self.now > until:
                        break
                    kind, a, b, c, _seq = pop_ready()
                else:
                    time = heap[0][0]
                    if until is not None and time > until:
                        break
                    time, _seq, kind, a, b, c = heappop(heap)
                    if time < self.now:
                        raise SimulationError(
                            f"time went backwards: {time} < {self.now}"
                        )
                    self.now = time
                if kind == EV_RESUME:
                    resume(a, b)
                elif kind == EV_DELIVER:
                    deliver(a)
                elif kind == EV_WAKE:
                    # Timer-driven wake (sleep, wait/gate timeout): hand
                    # the armed slot on (timers travel the heap only, so
                    # ``time`` is this entry's), then token-checked and
                    # folded straight into the resume — no second entry.
                    if a.timer_at == time:
                        timer_fired(a)
                    if a.pending_token == b and not a.done:
                        resume(a, c)
                elif kind == EV_FAN_ARRIVE:
                    fan_arrive(self, a, b, c)
                elif kind == EV_FAN_RESOLVE:
                    fan_resolve(self, a, b, c)
                else:
                    handlers[kind](self, a, b, c)
                processed += 1
                if max_events is not None and processed > max_events:
                    self._raise_livelock(max_events)
        finally:
            # Counter maintained in bulk: one attribute RMW per run() call
            # instead of one per event.
            queue.popped += processed
        return self.now

    def _run_scheduled(
        self,
        until: Optional[float],
        max_events: Optional[int],
        stop_when: Optional[Callable[[], bool]],
    ) -> float:
        """The open-frontier run loop behind ``kernel.scheduler``.

        Each step materialises the frontier (ready lane in FIFO order,
        then heap entries at the current instant in seq order) and asks
        the scheduler which entry fires — or which fault injection to
        execute instead.  Firing ``frontier[0]`` at every step reproduces
        the default loop's schedule bit-for-bit; any other pick is a legal
        same-instant reordering the default loop simply never chooses.
        Dispatch goes through ``_ev_handlers`` (not the inlined chain), so
        instrumented/patched handlers take effect under exploration.
        """
        from repro.sim.schedule import build_frontier

        queue = self.queue
        ready = queue._ready
        heap = queue._heap
        scheduler = self.scheduler
        handlers = self._ev_handlers
        processed = 0
        try:
            while ready or heap:
                if stop_when is not None and stop_when():
                    break
                if ready:
                    if until is not None and self.now > until:
                        break
                else:
                    time = heap[0][0]
                    if until is not None and time > until:
                        break
                    if time < self.now:
                        raise SimulationError(
                            f"time went backwards: {time} < {self.now}"
                        )
                    self.now = time
                frontier = build_frontier(queue, self.now)
                choice = scheduler.pick(self, self.now, frontier)
                if choice.__class__ is int:
                    entry = frontier[choice]
                    if entry.lane == "ready":
                        queue.take_ready(entry.index)
                    else:
                        queue.remove_heap_entry(entry.raw)
                    handlers[entry.kind](self, entry.a, entry.b, entry.c)
                    processed += 1
                    if max_events is not None and processed > max_events:
                        self._raise_livelock(max_events)
                else:
                    # An Injection: fire its fault events at this instant
                    # (delayed ones are armed as ordinary EV_FAULT entries).
                    for delay, event in choice.events:
                        if delay <= 0.0:
                            self.failures.execute(event)
                        else:
                            self.schedule_fault(self.now + delay, event)
        finally:
            queue.popped += processed
        return self.now

    def _raise_livelock(self, max_events: int) -> None:
        """Diagnose and raise a :class:`LivelockError`: queue-depth
        snapshot by event kind, parked-task census, and (when obs is
        attached) the runtime's trip dump of every open span."""
        from collections import Counter

        queue = self.queue
        kinds: Counter = Counter()
        for entry in queue._heap:
            kinds[entry[2]] += 1
        for entry in queue._ready:
            kinds[entry[0]] += 1
        from repro.sim.schedule import EV_NAMES

        pending = ", ".join(
            f"{EV_NAMES[kind]}={count}"
            for kind, count in sorted(kinds.items(), key=lambda kv: -kv[1])
        )
        parked = sum(
            1 for t in self.tasks if not t.done and t.pending_token is not None
        )
        flight_dump = None
        detail = ""
        if self.obs is not None:
            flight_dump = self.obs.trip(f"livelock: max_events={max_events}")
            detail = f"; flight dump captured ({len(flight_dump['open'])} open spans)"
        raise LivelockError(
            f"exceeded max_events={max_events} at t={self.now:g}: "
            f"{len(queue._heap)} heap + {len(queue._ready)} ready entries "
            f"pending ({pending or 'none'}), {parked} tasks parked{detail}",
            flight_dump=flight_dump,
        )

    def run_until_decided(
        self,
        pids: Optional[Set[ProcessId]] = None,
        deadline: float = 10_000.0,
    ) -> bool:
        """Run until every pid in *pids* (default: all correct) decided.

        Returns True when the goal was reached before *deadline*.
        """
        if pids is None:
            pids = {
                ProcessId(p)
                for p in range(self.config.n_processes)
                if not self.is_faulty(ProcessId(p))
            }

        decided = self.metrics.decisions.keys()

        def goal() -> bool:
            return pids <= decided

        self.run(until=deadline, stop_when=goal)
        return goal()

    # ------------------------------------------------------------------
    # event handlers (dispatch table: EV_* numbering)
    # ------------------------------------------------------------------
    def _ev_call(self, fn, _b, _c) -> None:
        fn()

    def _ev_resume(self, task, value, _c) -> None:
        self._resume(task, value)

    def _ev_wake(self, task, token, value) -> None:
        # A timer-driven wake (sleep, wait/gate timeout): token-checked and
        # folded straight into the resume — no second queue entry.
        if task.timer_at == self.now:
            self._timer_fired(task)
        if task.pending_token == token and not task.done:
            self._resume(task, value)

    def _ev_deliver(self, env, _b, _c) -> None:
        self._deliver(env)

    def _ev_fault(self, event, _b, _c) -> None:
        self.failures.execute(event)

    def _ev_recv_timeout(self, task, token, _c) -> None:
        # Heap context (ready lane empty): unpark and resume directly.
        if task.timer_at == self.now:
            self._timer_fired(task)
        if task.pending_token == token:
            self.network.unpark(task.pid, token, task)
            if not task.done and task.pid not in self.crashed_processes:
                task.pending_token = None
                self._resume(task, None)

    # ------------------------------------------------------------------
    # task stepping
    # ------------------------------------------------------------------
    def _resume(self, task: Task, value: Any) -> None:
        if task.done or task.pid in self.crashed_processes:
            return
        task.pending_token = None
        if not task.started:
            task.started = True
            value = None
        obs = self.obs
        if obs is not None:
            obs.enter_task(task)
        gen_send = task.gen.send
        handlers = self._fx_handlers
        n_fx = len(handlers)
        max_steps = self._max_inline_steps
        steps = 0
        while True:
            try:
                effect = gen_send(value)
            except StopIteration as stop:
                task.done = True
                task.result = stop.value
                if obs is not None:
                    obs.exit_task(task, self.now)
                return
            steps += 1
            if steps > max_steps:
                raise SimulationError(
                    f"task {task.label} ran {steps} effects at t={self.now} "
                    "without parking (runaway loop?)"
                )
            try:
                kind = effect.kind
            except AttributeError:
                kind = None
            if kind.__class__ is not int or not 0 <= kind < n_fx:
                raise SimulationError(
                    f"task {task.label} yielded non-effect {effect!r}"
                )
            value = handlers[kind](self, task, effect)
            if value is PARKED:
                if obs is not None:
                    obs.exit_task(task, self.now)
                return

    def _wake(self, task: Task, token: int, value: Any) -> None:
        """Resume *task* at the current instant if *token* is still pending.

        The resume goes through the queue's ready lane: it runs as soon as
        the event that triggered the wake finishes, ahead of any further
        heap entry, and never allocates a closure or a heap slot.
        """
        if task.done or task.pending_token != token:
            return
        if task.pid in self.crashed_processes:
            return
        task.pending_token = None
        self.queue.push_ready(EV_RESUME, task, value)

    def _arm(self, task: Task, delay: float, kind: int, token: int, value: Any) -> None:
        """Arm the timer of the wait *token* that *task* just parked on:
        event *kind* fires with *value* after *delay*.

        A task keeps one armed timer entry in the heap.  A deadline
        strictly after it is not pushed but recorded on the task, with the
        seq it takes now, and ``_timer_fired`` pushes it when the armed
        entry pops if its wait is still pending.  A deadline at or before
        the armed one is pushed beside it and the later entry stays armed,
        so one long resend timer carries the next request's timer past
        short sleeps.  Every live entry keeps its ``(time, seq)`` and is
        in the heap before the clock reaches it; a timer whose wait ended
        first is never pushed.
        """
        if delay != delay or delay < 0:  # NaN or negative
            raise SimulationError(
                f"task {task.label} parked with timeout {delay!r} at "
                f"t={self.now}: a wait's duration must be >= 0"
            )
        at = self.now + delay
        queue = self.queue
        queue._seq += 1
        armed = task.timer_at
        if armed is not None and at > armed:
            task.deferred = (at, queue._seq, kind, token, value)
            return
        heappush(queue._heap, (at, queue._seq, kind, task, token, value))
        queue.pushed += 1
        if armed is None:
            task.timer_at = at

    def _timer_fired(self, task: Task) -> None:
        """A timer entry of *task* popped at its armed instant: push the
        deferred wait's entry if that wait is still pending, else free the
        armed slot.  Any of the task's entries at that instant may be the
        one to call this first — the deferred deadline lies strictly
        later, so it is pushed before the clock reaches it either way."""
        record = task.deferred
        if record is not None:
            task.deferred = None
            at, seq, kind, token, value = record
            if task.pending_token == token:
                queue = self.queue
                heappush(queue._heap, (at, seq, kind, task, token, value))
                queue.pushed += 1
                task.timer_at = at
                return
        task.timer_at = None

    def signal_gate(self, gate) -> None:
        """Open *gate*, waking its parked waiters at the current instant
        (each through the ready lane, see ``_wake``)."""
        waiters = gate.set()
        if waiters:
            wake = self._wake
            for task, token in waiters:
                wake(task, token, True)

    def pulse_gate(self, gate) -> None:
        """Wake *gate*'s current waiters and leave it closed (an edge,
        not a latch: later waiters block until the next signal)."""
        self.signal_gate(gate)
        gate.clear()

    # ------------------------------------------------------------------
    # effect handlers (dispatch table: FX_* numbering)
    # ------------------------------------------------------------------
    def _fx_send(self, task: Task, effect: SendEffect) -> None:
        if not self.config.links_enabled:
            raise SimulationError(
                f"{task.label} sent a message in the link-free disk model"
            )
        dst = effect.dst
        env = Envelope(task.pid, dst, effect.topic, effect.payload, self.now)
        if self.obs is not None:
            # The open msg span rides the envelope; delivery closes it and
            # the receiver adopts it as its causal context.
            env.ctx = self.obs.msg_sent(task, env, self.now)
        self._msg_counter[task.pid] += 1
        delay = self._msg_delay
        if delay is None:
            delay = self.config.latency.message_delay(task.pid, dst, self.now, self.rng)
        network = self.network
        if network.link_faults:
            fault = network.link_faults.get((task.pid, dst))
            if fault is not None:
                if fault.drop_prob and self.rng.random() < fault.drop_prob:
                    network.chaos_dropped += 1
                    if self.obs is not None:
                        self.obs.point("chaos_drop", dst=process_name(dst))
                    return None  # the send completes; the message is lost
                delay = delay * fault.delay_factor + fault.extra_delay
                if fault.duplicate_prob and self.rng.random() < fault.duplicate_prob:
                    # A fresh envelope (new msg id): the duplicate must pass
                    # the network's exactly-once guard to test idempotence.
                    twin = Envelope(task.pid, dst, effect.topic, effect.payload, self.now)
                    self.queue.push(self.now + delay + 1.0, EV_DELIVER, twin)
        self.queue.push(self.now + delay, EV_DELIVER, env)
        return None

    def _deliver(self, env: Envelope) -> None:
        if env.dst in self.crashed_processes:
            return
        obs = self.obs
        blocked = self.network.blocked
        if blocked and (env.src, env.dst) in blocked:
            # Reachability is time-varying state checked per delivery: a
            # message sent before the partition but landing during it is
            # lost, exactly like a packet on a just-severed link.
            self.network.partition_dropped += 1
            if obs is not None:
                obs.point(
                    "partition_drop", src=process_name(env.src),
                    dst=process_name(env.dst), topic=env.topic,
                )
            return
        if obs is not None and env.ctx is not None:
            obs.msg_delivered(env, self.now)
        waiter = self.network.deliver(env)
        if waiter is not None:
            task = waiter.task
            # _deliver only runs off the heap, where the ready lane is
            # empty by construction — resuming directly here is order-
            # identical to a ready-lane round trip, minus the round trip.
            if (
                task.pending_token == waiter.token
                and not task.done
                and task.pid not in self.crashed_processes
            ):
                task.pending_token = None
                if obs is not None and env.ctx is not None:
                    task.ctx = env.ctx
                self._resume(task, env)

    def _fx_recv(self, task: Task, effect: RecvEffect):
        env = self.network.try_consume(task.pid, effect.topic, effect.match)
        if env is not None:
            if self.obs is not None and env.ctx is not None:
                task.ctx = env.ctx
            return env
        token = task.new_token()
        self.network.park(
            RecvWaiter(
                pid=task.pid,
                token=token,
                topic=effect.topic,
                match=effect.match,
                task=task,
            )
        )
        if effect.timeout is not None:
            self._arm(task, effect.timeout, EV_RECV_TIMEOUT, token, None)
        return PARKED

    def _fx_sleep(self, task: Task, effect: SleepEffect):
        self._arm(task, effect.duration, EV_WAKE, task.new_token(), None)
        return PARKED

    def _fx_gate_wait(self, task: Task, effect: GateWaitEffect):
        gate = effect.gate
        if gate.is_set:
            self.queue.push_ready(EV_RESUME, task, True)
            return PARKED
        token = task.new_token()
        gate.park(task, token)
        if effect.timeout is not None:
            self._arm(task, effect.timeout, EV_WAKE, token, False)
        return PARKED

    def _fx_spawn(self, task: Task, effect: SpawnEffect):
        return self.spawn(
            task.pid, effect.name, effect.gen, daemon=effect.daemon, ctx=task.ctx
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def fifo_memory_ops(self) -> bool:
        """True when every memory-op delay is a model constant, so two
        operations posted to one memory in order also arrive — and apply —
        in that order (the FIFO queue-pair property).  Fused read chains
        that adopt a watermark and the entries it covers from ONE snapshot
        rely on this; under jittered/adversarial models it is False and
        callers fall back to sequential rounds."""
        if (
            self._req_delay is not None
            and self._resp_delay is not None
            and self._issue_delay is not None
        ):
            return True
        # Dynamic models may still promise order preservation explicitly
        # (e.g. a what-if override scaling a constant base per component).
        return self.config.latency.fifo_memory_ops

    def correct_processes(self) -> List[ProcessId]:
        return [
            ProcessId(p)
            for p in range(self.config.n_processes)
            if not self.is_faulty(ProcessId(p))
        ]

    def memory(self, mid: int) -> Memory:
        return self.memories[mid]


# Flat dispatch tables of plain functions, indexed by event kind / effect
# kind and called with the kernel first.  One pair per class, not per
# kernel: a fresh kernel binds no handler.  Order must match the EV_* /
# FX_* numbering exactly.
Kernel._ev_handlers = (
    Kernel._ev_call,          # EV_CALL
    Kernel._ev_resume,        # EV_RESUME
    Kernel._ev_wake,          # EV_WAKE
    Kernel._ev_deliver,       # EV_DELIVER
    Kernel._ev_recv_timeout,  # EV_RECV_TIMEOUT
    Kernel._ev_fault,         # EV_FAULT
    _ev_fan_arrive,           # EV_FAN_ARRIVE
    _ev_fan_resolve,          # EV_FAN_RESOLVE
)
Kernel._fx_handlers = (
    Kernel._fx_send,       # FX_SEND
    Kernel._fx_recv,       # FX_RECV
    Kernel._fx_sleep,      # FX_SLEEP
    Kernel._fx_gate_wait,  # FX_GATE_WAIT
    Kernel._fx_spawn,      # FX_SPAWN
    _fx_op_fanout,         # FX_OP_FANOUT
)


def run_hash(kernel: Kernel) -> str:
    """Deterministic identity of a finished run.

    Hashes the span tree (ids, parents, names, exact virtual times and
    attrs) when an obs runtime is attached, and always the ledger's
    decisions/counters plus the kernel's event-queue totals — two replays
    of the same scenario must agree on every one of these.  A span log
    that overflowed retains only its newest spans, so the number that
    scrolled out is part of the digest: a truncated stream never hashes
    like a complete one.
    """
    digest = hashlib.sha256()
    obs = kernel.obs
    if obs is not None:
        if obs.dropped:
            digest.update(f"dropped={obs.dropped}".encode())
        for span in list(obs.finished) + obs.open_spans():
            attrs = () if span.attrs is None else tuple(
                sorted(span.attrs.items(), key=lambda kv: kv[0])
            )
            digest.update(
                repr(
                    (
                        span.span_id,
                        span.parent_id,
                        span.trace_id,
                        span.name,
                        span.kind,
                        span.actor,
                        span.start,
                        span.end,
                        attrs,
                    )
                ).encode()
            )
    ledger = kernel.metrics
    for pid in sorted(ledger.decisions):
        record = ledger.decisions[pid]
        digest.update(f"D p{int(pid)} {record.value!r} @{record.decided_at}".encode())
    for instance, book in sorted(
        ledger.instance_decisions.items(), key=lambda kv: repr(kv[0])
    ):
        for pid in sorted(book):
            record = book[pid]
            digest.update(
                f"I {instance!r} p{int(pid)} {record.value!r} @{record.decided_at}".encode()
            )
    digest.update(
        (
            f"msgs={sorted(ledger.messages_sent.items())} "
            f"ops={sorted(ledger.mem_ops.items())} "
            f"pushed={kernel.queue.pushed} popped={kernel.queue.popped} "
            f"now={kernel.now}"
        ).encode()
    )
    return digest.hexdigest()
