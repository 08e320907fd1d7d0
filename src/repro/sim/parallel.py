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

There is one barrier loop.  It drives a list of **workers**, each one
bucket of cells (cell ``c`` goes to worker ``c % W``): per round it calls
``start(barrier, injections)`` on every worker, then ``collect()`` on
every worker for ``(outbox, cell states, busy)``, and a final call
injects the leftover entries and returns the per-cell summaries.  The
two modes differ only in where a bucket runs:

* ``inline`` — in the coordinator's own process; ``start`` runs the
  round and ``collect`` hands its reply back.  The default for
  benchmarks.
* ``fork`` — in one forked OS process (Linux ``fork`` start method) per
  worker, which builds only its own cells and answers the same calls
  over a pipe, so the workers of one round run concurrently.

Either way the result reports a **critical-path projection**: what the
round structure would yield with truly concurrent workers
(``(total_busy + coordinator) / (sum of per-round max worker busy +
coordinator)``), from worker busy times measured where the work ran.

Cells are described by **factories** (``factory(port) -> Cell``) rather
than pre-built kernels so fork workers can construct their partition in
their own address space; in inline mode the factories run eagerly at
coordinator construction.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.messages import Envelope
from repro.sim.kernel import run_hash
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
    the final tie-breaker of the deterministic merge.
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
    partition the destination cell happens to be simulating.  Each
    entry becomes a fresh envelope, which the network's per-envelope
    duplicate-delivery guard always accepts.
    """
    arrival, _src_cell, _dst_cell, _seq, dst_pid, topic, payload, sent_at = entry
    envelope = Envelope(ProcessId(dst_pid), ProcessId(dst_pid), topic, payload, sent_at)
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

    def __repr__(self) -> str:
        return (
            f"ParallelRunResult(W={self.workers}, rounds={self.rounds}, "
            f"t={self.virtual_time}, projected={self.projected_speedup:.2f}x)"
        )


class _Bucket:
    """One worker's cells, and the body of a barrier round over them:
    inject, run each cell to the barrier, drain the ports, report states.

    Cell states map a cell id to ``(next_time, goal_met, now)``.
    """

    def __init__(self, cells: List[Cell]) -> None:
        self.cells = cells
        self.by_id = {cell.id: cell for cell in cells}
        self.deadline: Optional[float] = None
        self._reply: Optional[Tuple] = None

    def hello(self, derive: bool) -> Tuple[Optional[float], bool, Dict]:
        """``(lookahead, has_goal, states)``; the lookahead is the cells'
        smallest latency-model ``lookahead()`` when *derive*, else None."""
        lookahead = min(
            cell.kernel.config.latency.lookahead() for cell in self.cells
        ) if derive else None
        has_goal = any(cell.goal is not None for cell in self.cells)
        return lookahead, has_goal, self._states()

    def begin(self, lookahead: float, deadline: Optional[float]) -> None:
        for cell in self.cells:
            cell.port.lookahead = lookahead
        self.deadline = deadline

    def run_round(self, barrier: float, injections: List[Tuple]) -> Tuple:
        started = time.perf_counter()
        self._inject(injections)
        for cell in self.cells:
            queue = cell.kernel.queue
            cell.kernel.run(
                until=self.deadline,
                stop_when=lambda q=queue, b=barrier: q.idle_before(b),
            )
        outbox: List[Tuple] = []
        for cell in self.cells:
            outbox.extend(cell.port.drain())
        states = self._states()
        return outbox, states, time.perf_counter() - started

    def start(self, barrier: float, injections: List[Tuple]) -> None:
        self._reply = self.run_round(barrier, injections)

    def collect(self) -> Tuple:
        return self._reply

    def finish(self, injections: List[Tuple]) -> Dict[int, Dict[str, Any]]:
        self._inject(injections)
        return {cell.id: cell_summary(cell) for cell in self.cells}

    def close(self) -> None:
        pass

    def _inject(self, injections: List[Tuple]) -> None:
        for entry in injections:
            inject_entry(self.by_id[entry[2]].kernel, entry)

    def _states(self) -> Dict[int, Tuple[float, bool, float]]:
        return {
            cell.id: (cell.next_time(), cell.goal_met(), cell.kernel.now)
            for cell in self.cells
        }


class _ForkWorker:
    """A :class:`_Bucket` living in a forked child, answering the same
    calls over a pipe; ``start`` only sends, so the children of one round
    run concurrently until ``collect`` reads their replies."""

    def __init__(self, context, engine: "ParallelKernel", cell_ids: range) -> None:
        self.pipe, child_end = context.Pipe()
        self.proc = context.Process(
            target=_serve, args=(child_end, engine, cell_ids), daemon=True
        )
        self.proc.start()
        child_end.close()
        self.finished = False

    def _call(self, name: str, *args: Any) -> Any:
        self.pipe.send((name, args))
        return self.pipe.recv()

    def hello(self, derive: bool) -> Tuple[Optional[float], bool, Dict]:
        return self._call("hello", derive)

    def begin(self, lookahead: float, deadline: Optional[float]) -> None:
        self._call("begin", lookahead, deadline)

    def start(self, barrier: float, injections: List[Tuple]) -> None:
        self.pipe.send(("run_round", (barrier, injections)))

    def collect(self) -> Tuple:
        return self.pipe.recv()

    def finish(self, injections: List[Tuple]) -> Dict[int, Dict[str, Any]]:
        self.finished = True
        return self._call("finish", injections)

    def close(self) -> None:
        self.pipe.close()
        if not self.finished:
            # an abandoned run: later-forked siblings hold copies of this
            # pipe's coordinator end, so the child would never see EOF
            self.proc.terminate()
        self.proc.join(timeout=30)


def _serve(pipe, engine: "ParallelKernel", cell_ids: range) -> None:
    """Fork child body: build this worker's cells, answer calls until
    ``finish``."""
    bucket = _Bucket(engine._build_cells(cell_ids))
    while True:
        name, args = pipe.recv()
        pipe.send(getattr(bucket, name)(*args))
        if name == "finish":
            return


class ParallelKernel:
    """Coordinator of a partitioned simulation.

    *factories* is a sequence of ``factory(port) -> Cell`` callables, one
    per cell; cell ids are the factory indices.  Cell ``c`` runs on
    worker ``c % W``, with ``W = min(workers, n_cells)``.

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
        if workers < 1:
            raise ValueError("need at least one worker")
        if mode not in ("inline", "fork"):
            raise ValueError(f"unknown mode {mode!r}; pick 'inline' or 'fork'")
        self.factories = list(factories)
        self.mode = mode
        self.n_cells = len(self.factories)
        self.workers = min(workers, self.n_cells)
        self._lookahead_arg = lookahead
        self.lookahead = lookahead if lookahead is not None else 2.0
        self.cells: List[Cell] = []
        self.result: Optional[ParallelRunResult] = None
        self._summaries: Dict[int, Dict[str, Any]] = {}
        if mode == "inline":
            self.cells = self._build_cells(range(self.n_cells))
            self._buckets = [
                _Bucket(self.cells[worker::self.workers])
                for worker in range(self.workers)
            ]

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def _build_cells(self, cell_ids: Sequence[int]) -> List[Cell]:
        cells: List[Cell] = []
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
        return cells

    def _start_workers(self) -> List[Any]:
        if self.mode == "inline":
            return self._buckets
        import multiprocessing as mp

        context = mp.get_context("fork")
        return [
            _ForkWorker(context, self, range(worker, self.n_cells, self.workers))
            for worker in range(self.workers)
        ]

    def _route(self, entries: List[Tuple]) -> List[List[Tuple]]:
        """Split merged fabric entries by destination worker, keeping order."""
        by_worker: List[List[Tuple]] = [[] for _ in range(self.workers)]
        for entry in entries:
            by_worker[entry[2] % self.workers].append(entry)
        return by_worker

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
        started = time.perf_counter()
        workers = self._start_workers()
        try:
            # handshake: every worker reports its cells' states and,
            # unless the caller fixed one, its smallest lookahead
            derive = self._lookahead_arg is None
            states: Dict[int, Tuple[float, bool, float]] = {}
            lookaheads = []
            has_goal = False
            for worker in workers:
                lookahead, worker_has_goal, cell_states = worker.hello(derive)
                lookaheads.append(lookahead)
                has_goal = has_goal or worker_has_goal
                states.update(cell_states)
            if deadline is None and not has_goal:
                raise ValueError("need a deadline or at least one cell goal")
            if derive:
                self.lookahead = min(lookaheads)
            for worker in workers:
                worker.begin(self.lookahead, deadline)

            worker_busy = [0.0] * self.workers
            critical_path = 0.0
            coordinator = 0.0
            rounds = 0
            crossed = 0
            goal_met = False
            # Injections execute inside the destination worker's busy
            # time at the top of the next round (where the work lands
            # with concurrent workers), so the floor folds in the pending
            # arrivals: an injection only ever adds an event at its
            # arrival time, making this the post-injection t_min.
            pending: List[Tuple] = []
            while True:
                tick = time.perf_counter()
                t_min = min(
                    min(state[0] for state in states.values()),
                    min((entry[0] for entry in pending), default=INF),
                )
                goals = [state[1] for state in states.values()]
                # goal-less cells report goal_met()=True, so "all goals
                # met" is only a stop condition when some cell actually
                # has a goal; otherwise the run is bounded by the
                # deadline or quiescence
                if (
                    (has_goal and all(goals))
                    or t_min == INF
                    or (deadline is not None and t_min > deadline)
                ):
                    goal_met = all(goals)
                    break
                if max_rounds is not None and rounds >= max_rounds:
                    break
                injections = self._route(pending)
                crossed += len(pending)
                coordinator += time.perf_counter() - tick
                barrier = t_min + self.lookahead
                for worker, entries in zip(workers, injections):
                    worker.start(barrier, entries)
                replies = [worker.collect() for worker in workers]
                tick = time.perf_counter()
                pending = []
                for index, (outbox, cell_states, busy) in enumerate(replies):
                    pending.extend(outbox)
                    states.update(cell_states)
                    worker_busy[index] += busy
                critical_path += max(reply[2] for reply in replies)
                pending.sort(key=merge_key)
                coordinator += time.perf_counter() - tick
                rounds += 1
            # leftover cross-cell messages are injected (not run), so the
            # final queues and injection counters hold them
            crossed += len(pending)
            self._summaries = {}
            for worker, entries in zip(workers, self._route(pending)):
                self._summaries.update(worker.finish(entries))
        finally:
            for worker in workers:
                worker.close()
        total_busy = sum(worker_busy)
        parallel_wall = critical_path + coordinator
        self.result = ParallelRunResult(
            goal_met=goal_met,
            rounds=rounds,
            virtual_time=t_min if t_min != INF else max(
                state[2] for state in states.values()
            ),
            wall=time.perf_counter() - started,
            workers=self.workers,
            mode=self.mode,
            worker_busy=worker_busy,
            critical_path=critical_path,
            total_busy=total_busy,
            coordinator_wall=coordinator,
            projected_speedup=(
                (total_busy + coordinator) / parallel_wall if parallel_wall > 0 else 1.0
            ),
            messages_crossed=crossed,
            lookahead=self.lookahead,
        )
        return self.result

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def summaries(self) -> Dict[int, Dict[str, Any]]:
        """Per-cell determinism digests, as the last run's final call
        returned them (empty before the first run)."""
        return dict(self._summaries)

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
