"""Parallel simulation: partitioned cells under conservative time barriers.

The single-threaded kernel caps every benchmark, but the workloads it
carries are mostly *embarrassingly partitionable*: shards are independent
consensus groups, and the only cross-shard coupling is client traffic.
This module exploits that by composing **cells** — each cell is one
complete, UNMODIFIED :class:`~repro.sim.kernel.Kernel` hosting a service
(or a set of bare client tasks) with its own processes, memories, RNG
stream and virtual clock — under a coordinator that keeps their clocks
consistent with conservative (null-message/lookahead) synchronization:

* Cross-cell traffic travels on a **fabric** overlay, never through a
  kernel's own network: a task calls ``port.post(dst_cell, dst_pid,
  topic, payload)``, which buffers the message in the source cell's
  outbox with an arrival time at least ``lookahead`` in the future.
* Each round, the coordinator computes the global time floor ``t_min``
  (the earliest pending event across all cells) and lets every cell run
  freely to the **barrier horizon** ``B = t_min + lookahead``.  Any
  message posted during the round was sent at some ``s >= t_min`` and
  so arrives at ``s + delay >= B`` — no cell can have executed past an
  injection point, which is the whole conservative-correctness argument.
* At the barrier, outboxes are merged **deterministically** — sorted by
  ``(arrival, src_cell, dst_cell, chan_seq)`` — and injected into the
  destination kernels via :meth:`Kernel.inject`.  Barriers, injection
  sets and injection order are all pure functions of the cells' own
  (worker-independent) executions, so per-cell traces are bit-identical
  for ANY worker count, including W=1 against the plain sequential loop.

Two execution modes share the barrier protocol:

* ``inline`` — one OS process; workers are accounting buckets.  Per
  round, each worker's wall-clock slice is measured, and the result
  reports a **critical-path projection**: what the round structure would
  yield with truly concurrent workers (``total_busy / (sum of per-round
  max worker slices + coordinator overhead)``).  This is the honest
  number on a single-core container, and the default for benchmarks.
* ``fork`` — real OS processes (Linux ``fork`` start method), one per
  worker, each building only its assigned cells and exchanging outboxes
  with the coordinator over pipes.  Same barriers, same merge key, same
  hashes; used to validate that the protocol survives real parallelism.

Cells are described by **factories** (``factory(port) -> Cell``) rather
than pre-built kernels so fork workers can construct their partition in
their own address space; in inline mode the factories run eagerly at
coordinator construction.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.messages import Envelope
from repro.types import ProcessId

INF = float("inf")


class Cell:
    """One partition of a parallel simulation.

    Wraps an unmodified kernel plus the partition-level metadata the
    coordinator needs: a *goal* (checked only at barriers, so it is
    evaluated at the same virtual instants for every worker count) and
    an optional *summarize* hook whose (picklable) result rides back to
    the coordinator from fork workers.
    """

    __slots__ = ("id", "kernel", "goal", "label", "summarize", "port")

    def __init__(
        self,
        cell_id: int,
        kernel,
        goal: Optional[Callable[[], bool]] = None,
        label: Optional[str] = None,
        summarize: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.id = int(cell_id)
        self.kernel = kernel
        self.goal = goal
        self.label = label or f"cell-{cell_id}"
        self.summarize = summarize
        self.port: Optional[FabricPort] = None

    def next_time(self) -> float:
        """Earliest pending instant, or +inf when drained."""
        pending = self.kernel.queue.next_time()
        if pending is None:
            return INF
        if pending == -INF:  # ready-lane entry: runs at the cell's now
            return self.kernel.now
        return pending

    def goal_met(self) -> bool:
        return True if self.goal is None else bool(self.goal())


class FabricPort:
    """A cell's handle for posting messages across the fabric.

    ``post`` is a plain synchronous call made from inside a running cell
    task (it costs no kernel event in the source cell); the message sits
    in the outbox until the coordinator drains it at the barrier.  Every
    ``(src_cell, dst_cell)`` channel carries its own sequence counter —
    the final tie-breaker of the deterministic merge, and the uniqueness
    component of the injected envelope's ``msg_id``.
    """

    __slots__ = ("cell_id", "lookahead", "outbox", "posted", "_seq", "_kernel")

    def __init__(self, cell_id: int, lookahead: float) -> None:
        self.cell_id = int(cell_id)
        self.lookahead = float(lookahead)
        self.outbox: List[Tuple] = []
        self.posted = 0
        self._seq: Dict[int, int] = {}
        self._kernel = None

    def bind(self, kernel) -> None:
        self._kernel = kernel

    def post(self, dst_cell: int, dst_pid: int, topic: str, payload: Any) -> None:
        """Queue *payload* for delivery to ``(dst_cell, dst_pid)``.

        The arrival time is exactly ``now + lookahead`` — a constant,
        never drawn from any RNG: per-cell RNG streams differ between
        layouts, and any dependence on them would make the merged
        schedule vary with the worker count.
        """
        if self._kernel is None:
            raise RuntimeError("fabric port used before its cell was built")
        now = self._kernel.now
        seq = self._seq.get(dst_cell, 0) + 1
        self._seq[dst_cell] = seq
        self.outbox.append(
            (now + self.lookahead, self.cell_id, int(dst_cell), seq,
             int(dst_pid), topic, payload, now)
        )
        self.posted += 1

    def drain(self) -> List[Tuple]:
        entries, self.outbox = self.outbox, []
        return entries


def inject_entry(kernel, entry: Tuple) -> None:
    """Materialize one fabric entry as an envelope in *kernel*.

    The envelope's ``src`` is set to the destination pid: cross-cell
    messages are outside any cell's partition/chaos scenario, and the
    failure plane only ever severs ``(src, dst)`` pairs with
    ``src != dst``, so a self-sourced envelope can never be dropped by a
    partition the destination cell happens to be simulating.  The
    ``msg_id`` tuple is globally unique per channel sequence, so the
    network's duplicate-delivery guard accepts it; it never feeds trace
    hashes (see ``repro.obs.whatif.run_hash``), keeping determinism
    independent of allocation order.
    """
    arrival, src_cell, dst_cell, seq, dst_pid, topic, payload, sent_at = entry
    envelope = Envelope(
        ProcessId(dst_pid),
        ProcessId(dst_pid),
        topic,
        payload,
        sent_at,
        msg_id=("x", src_cell, dst_cell, seq),
    )
    kernel.inject(envelope, arrival)


#: deterministic merge key: arrival instant, then source cell, then
#: destination cell, then per-channel sequence — a total order that is a
#: pure function of the (worker-independent) cell executions.
def merge_key(entry: Tuple) -> Tuple:
    return (entry[0], entry[1], entry[2], entry[3])


class ParallelRunResult:
    """Outcome and accounting of one :meth:`ParallelKernel.run`."""

    __slots__ = (
        "goal_met", "rounds", "virtual_time", "wall", "workers", "mode",
        "worker_busy", "critical_path", "total_busy", "coordinator_wall",
        "projected_speedup", "messages_crossed", "lookahead",
    )

    def __init__(self, **kw: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, kw.get(name))

    def as_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelRunResult(W={self.workers}, rounds={self.rounds}, "
            f"t={self.virtual_time}, projected={self.projected_speedup:.2f}x)"
        )


class ParallelKernel:
    """Coordinator of a partitioned simulation.

    *factories* is a sequence of ``factory(port) -> Cell`` callables, one
    per cell; cell ids are the factory indices.  *workers* buckets cells
    via :class:`~repro.shard.partitioner.WorkerAssignment` (LPT packing,
    ring-reweightable).

    *lookahead* is the fabric's cross-cell delay and the barrier slack.
    When None it is derived as the minimum of the cells' latency models'
    ``lookahead()`` — "keyed off the latency model's minimum
    cross-partition delay".
    """

    def __init__(
        self,
        factories: Sequence[Callable[[FabricPort], Cell]],
        workers: int = 1,
        mode: str = "inline",
        lookahead: Optional[float] = None,
    ) -> None:
        if not factories:
            raise ValueError("need at least one cell factory")
        if mode not in ("inline", "fork"):
            raise ValueError(f"unknown mode {mode!r}; pick 'inline' or 'fork'")
        self.factories = list(factories)
        self.mode = mode
        self.n_cells = len(self.factories)
        from repro.shard.partitioner import WorkerAssignment

        self.assignment = WorkerAssignment(range(self.n_cells), workers)
        self.workers = self.assignment.n_workers
        self._lookahead_arg = lookahead
        self.lookahead = lookahead if lookahead is not None else 2.0
        self.cells: List[Cell] = []
        self.ports: List[FabricPort] = []
        self.result: Optional[ParallelRunResult] = None
        if mode == "inline":
            self.cells, self.ports = self._build_cells(range(self.n_cells))
            if lookahead is None:
                self.lookahead = min(
                    cell.kernel.config.latency.lookahead() for cell in self.cells
                )
                for port in self.ports:
                    port.lookahead = self.lookahead

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def _build_cells(
        self, cell_ids: Sequence[int]
    ) -> Tuple[List[Cell], List[FabricPort]]:
        cells: List[Cell] = []
        ports: List[FabricPort] = []
        for cell_id in cell_ids:
            port = FabricPort(cell_id, self.lookahead)
            cell = self.factories[cell_id](port)
            if cell.id != cell_id:
                raise ValueError(
                    f"factory {cell_id} built cell id {cell.id}; ids must match"
                )
            cell.port = port
            port.bind(cell.kernel)
            cells.append(cell)
            ports.append(port)
        return cells, ports

    # ------------------------------------------------------------------
    # the conservative barrier loop
    # ------------------------------------------------------------------
    def run(
        self,
        deadline: Optional[float] = None,
        max_rounds: Optional[int] = None,
    ) -> ParallelRunResult:
        """Run all cells to their goals (or *deadline*), barrier by barrier.

        Deadline semantics match ``Kernel.run(until=deadline)``: events
        at times ``<= deadline`` execute, later ones do not.  Goals are
        evaluated only at barriers, so the stop point is identical for
        every worker count.
        """
        if (
            deadline is None
            and self.mode == "inline"
            and all(cell.goal is None for cell in self.cells)
        ):
            raise ValueError("need a deadline or at least one cell goal")
        if self.mode == "fork":
            return self._run_fork(deadline, max_rounds)
        self._has_goal = any(cell.goal is not None for cell in self.cells)
        return self._run_inline(deadline, max_rounds)

    def _barrier_plan(
        self, next_times: List[float], goals: List[bool], deadline: Optional[float]
    ) -> Tuple[bool, float, float]:
        """``(done, t_min, barrier)`` for one round — shared by both modes
        so they produce identical barrier sequences."""
        t_min = min(next_times)
        # goal-less cells report goal_met()=True, so "all goals met" is
        # only a stop condition when some cell actually has a goal;
        # otherwise the run is bounded by the deadline or quiescence
        if self._has_goal and all(goals):
            return True, t_min, t_min
        if t_min == INF:
            return True, t_min, t_min
        if deadline is not None and t_min > deadline:
            return True, t_min, t_min
        return False, t_min, t_min + self.lookahead

    def _run_inline(
        self, deadline: Optional[float], max_rounds: Optional[int]
    ) -> ParallelRunResult:
        started = time.perf_counter()
        cells, ports = self.cells, self.ports
        buckets = [
            [cells[cell_id] for cell_id in self.assignment.workers[w]]
            for w in range(self.workers)
        ]
        worker_busy = [0.0] * self.workers
        critical_path = 0.0
        total_busy = 0.0
        coordinator = 0.0
        rounds = 0
        crossed = 0
        goal_met = False
        t_min = 0.0
        # Same round shape as fork mode: the coordinator only drains,
        # sorts and plans; injections execute inside the destination
        # worker's timed slice at the top of the next round (that is
        # where the work lands with real concurrent workers, so the
        # critical-path accounting must charge it there too).  Pending
        # arrivals are folded into the time floor exactly as fork does —
        # equivalent to planning after injection, since an injection only
        # ever adds an event at its arrival time.
        pending: List[Tuple] = []
        while True:
            tick = time.perf_counter()
            done, t_min, barrier = self._barrier_plan(
                [cell.next_time() for cell in cells]
                + [entry[0] for entry in pending],
                [cell.goal_met() for cell in cells],
                deadline,
            )
            coordinator += time.perf_counter() - tick
            if done:
                goal_met = all(cell.goal_met() for cell in cells)
                break
            if max_rounds is not None and rounds >= max_rounds:
                break
            by_worker: List[List[Tuple]] = [[] for _ in range(self.workers)]
            for entry in pending:
                by_worker[self.assignment.worker_of[entry[2]]].append(entry)
            crossed += len(pending)
            pending = []
            round_slices = []
            for worker, bucket in enumerate(buckets):
                slice_start = time.perf_counter()
                for entry in by_worker[worker]:
                    inject_entry(cells[entry[2]].kernel, entry)
                for cell in bucket:
                    kernel = cell.kernel
                    queue = kernel.queue
                    kernel.run(
                        until=deadline,
                        stop_when=lambda q=queue, b=barrier: q.idle_before(b),
                    )
                slice_wall = time.perf_counter() - slice_start
                worker_busy[worker] += slice_wall
                round_slices.append(slice_wall)
            critical_path += max(round_slices) if round_slices else 0.0
            total_busy += sum(round_slices)
            tick = time.perf_counter()
            for port in ports:
                pending.extend(port.drain())
            pending.sort(key=merge_key)
            coordinator += time.perf_counter() - tick
            rounds += 1
        # leftover cross-cell messages are injected (not run) so final
        # queue state and counters match fork mode's finish path
        crossed += len(pending)
        for entry in pending:
            inject_entry(cells[entry[2]].kernel, entry)
        wall = time.perf_counter() - started
        parallel_wall = critical_path + coordinator
        projected = (total_busy + coordinator) / parallel_wall if parallel_wall > 0 else 1.0
        self.result = ParallelRunResult(
            goal_met=goal_met,
            rounds=rounds,
            virtual_time=t_min if t_min != INF else max(
                (cell.kernel.now for cell in cells), default=0.0
            ),
            wall=wall,
            workers=self.workers,
            mode="inline",
            worker_busy=worker_busy,
            critical_path=critical_path,
            total_busy=total_busy,
            coordinator_wall=coordinator,
            projected_speedup=projected,
            messages_crossed=crossed,
            lookahead=self.lookahead,
        )
        return self.result

    # ------------------------------------------------------------------
    # fork mode (real OS processes)
    # ------------------------------------------------------------------
    def _run_fork(
        self, deadline: Optional[float], max_rounds: Optional[int]
    ) -> ParallelRunResult:
        import multiprocessing as mp

        context = mp.get_context("fork")
        started = time.perf_counter()
        procs = []
        pipes = []
        for worker in range(self.workers):
            parent_end, child_end = context.Pipe()
            proc = context.Process(
                target=self._fork_worker,
                args=(worker, child_end, deadline),
                daemon=True,
            )
            proc.start()
            child_end.close()
            procs.append(proc)
            pipes.append(parent_end)
        try:
            # handshake: each worker builds its cells, reports its local
            # minimum lookahead and initial cell states
            states: Dict[int, Tuple[float, bool]] = {}
            lookaheads = []
            self._has_goal = False
            for pipe in pipes:
                tag, local_lookahead, has_goal, cell_states = pipe.recv()
                assert tag == "ready", tag
                lookaheads.append(local_lookahead)
                self._has_goal = self._has_goal or has_goal
                for cell_id, next_time, goal in cell_states:
                    states[cell_id] = (next_time, goal)
            if self._lookahead_arg is None:
                self.lookahead = min(lookaheads)
            for pipe in pipes:
                pipe.send(("lookahead", self.lookahead))
            rounds = 0
            crossed = 0
            goal_met = False
            t_min = 0.0
            worker_busy = [0.0] * self.workers
            pending: List[Tuple] = []
            while True:
                # Children report next_time BEFORE this round's injections
                # land, so fold the pending arrivals into the floor — an
                # injection only ever adds an event at its arrival time,
                # which makes this exactly the post-injection t_min the
                # inline loop computes.
                done, t_min, barrier = self._barrier_plan(
                    [state[0] for state in states.values()]
                    + [entry[0] for entry in pending],
                    [state[1] for state in states.values()],
                    deadline,
                )
                if done:
                    goal_met = all(state[1] for state in states.values())
                    break
                if max_rounds is not None and rounds >= max_rounds:
                    break
                # ship this round's injections (already globally sorted)
                # and the barrier; collect each worker's outbox and new
                # cell states
                by_worker: Dict[int, List[Tuple]] = {w: [] for w in range(self.workers)}
                for entry in pending:
                    by_worker[self.assignment.worker_of[entry[2]]].append(entry)
                crossed += len(pending)
                for worker, pipe in enumerate(pipes):
                    pipe.send(("round", barrier, by_worker[worker]))
                pending = []
                for worker, pipe in enumerate(pipes):
                    tag, outbox, cell_states, busy = pipe.recv()
                    assert tag == "ran", tag
                    pending.extend(outbox)
                    worker_busy[worker] += busy
                    for cell_id, next_time, goal in cell_states:
                        states[cell_id] = (next_time, goal)
                pending.sort(key=merge_key)
                rounds += 1
            # leftover injections ride the finish message so fork-mode
            # injection counters match the inline loop (which injects
            # before its final goal check) even though nothing runs after
            summaries: Dict[int, Dict[str, Any]] = {}
            leftover: Dict[int, List[Tuple]] = {w: [] for w in range(self.workers)}
            for entry in pending:
                leftover[self.assignment.worker_of[entry[2]]].append(entry)
            crossed += len(pending)
            for worker, pipe in enumerate(pipes):
                pipe.send(("finish", leftover[worker]))
            for pipe in pipes:
                tag, worker_summaries = pipe.recv()
                assert tag == "summary", tag
                summaries.update(worker_summaries)
            self._fork_summaries = summaries
        finally:
            for pipe in pipes:
                pipe.close()
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():  # pragma: no cover - hang guard
                    proc.terminate()
        wall = time.perf_counter() - started
        self.result = ParallelRunResult(
            goal_met=goal_met,
            rounds=rounds,
            virtual_time=t_min if t_min != INF else 0.0,
            wall=wall,
            workers=self.workers,
            mode="fork",
            worker_busy=worker_busy,
            critical_path=None,
            total_busy=sum(worker_busy),
            coordinator_wall=None,
            projected_speedup=None,
            messages_crossed=crossed,
            lookahead=self.lookahead,
        )
        return self.result

    def _fork_worker(self, worker: int, pipe, deadline: Optional[float]) -> None:
        """Child body: build this worker's cells, serve barrier rounds."""
        cell_ids = list(self.assignment.workers[worker])
        cells, ports = self._build_cells(cell_ids)
        by_id = {cell.id: cell for cell in cells}
        local_lookahead = min(
            cell.kernel.config.latency.lookahead() for cell in cells
        ) if self._lookahead_arg is None else self.lookahead
        pipe.send((
            "ready",
            local_lookahead,
            any(cell.goal is not None for cell in cells),
            [(cell.id, cell.next_time(), cell.goal_met()) for cell in cells],
        ))
        tag, lookahead = pipe.recv()
        assert tag == "lookahead", tag
        for port in ports:
            port.lookahead = lookahead
        while True:
            message = pipe.recv()
            if message[0] == "finish":
                for entry in message[1]:
                    inject_entry(by_id[entry[2]].kernel, entry)
                pipe.send(("summary", {cell.id: cell_summary(cell) for cell in cells}))
                return
            _tag, barrier, injections = message
            for entry in injections:
                inject_entry(by_id[entry[2]].kernel, entry)
            busy_start = time.perf_counter()
            for cell in cells:
                queue = cell.kernel.queue
                cell.kernel.run(
                    until=deadline,
                    stop_when=lambda q=queue, b=barrier: q.idle_before(b),
                )
            busy = time.perf_counter() - busy_start
            outbox: List[Tuple] = []
            for port in ports:
                outbox.extend(port.drain())
            pipe.send((
                "ran",
                outbox,
                [(cell.id, cell.next_time(), cell.goal_met()) for cell in cells],
                busy,
            ))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def summaries(self) -> Dict[int, Dict[str, Any]]:
        """Per-cell determinism digests (inline: live; fork: shipped back)."""
        if self.mode == "fork":
            return dict(getattr(self, "_fork_summaries", {}))
        return {cell.id: cell_summary(cell) for cell in self.cells}

    def run_report(self) -> Dict[str, Any]:
        """One aggregated report across all cells plus the run accounting."""
        summaries = self.summaries()
        totals = {
            "events": sum(s["events"] for s in summaries.values()),
            "sim_events": sum(s["sim_events"] for s in summaries.values()),
            "messages": sum(s["messages"] for s in summaries.values()),
            "crossed": 0 if self.result is None else self.result.messages_crossed,
        }
        report: Dict[str, Any] = {
            "cells": summaries,
            "totals": totals,
            "combined_hash": combined_hash(summaries),
        }
        if self.result is not None:
            report["run"] = self.result.as_dict()
        return report


def cell_summary(cell: Cell) -> Dict[str, Any]:
    """The picklable per-cell digest the determinism contract compares."""
    from repro.obs.whatif import run_hash

    kernel = cell.kernel
    metrics = kernel.metrics
    messages = metrics.total_messages()
    op_legs = 2 * metrics.total_mem_ops()
    return {
        "cell": cell.id,
        "label": cell.label,
        "now": kernel.now,
        "events": kernel.queue.popped,
        "messages": messages,
        "sim_events": messages + op_legs,
        "injected": kernel.network.injected,
        "posted": 0 if cell.port is None else cell.port.posted,
        "run_hash": run_hash(kernel),
        "summary": None if cell.summarize is None else cell.summarize(),
    }


def combined_hash(summaries: Dict[int, Dict[str, Any]]) -> str:
    """One hash over every cell's ``run_hash``, in cell-id order."""
    import hashlib

    digest = hashlib.sha256()
    for cell_id in sorted(summaries):
        digest.update(f"{cell_id}:{summaries[cell_id]['run_hash']};".encode())
    return digest.hexdigest()
