"""The six seeded workloads of the end-to-end benchmark.

Every function here runs ONE repetition of one workload inside a fresh
child process (``run.py --child``) and returns a plain dict of raw
measurements; ``run.py`` aggregates repetitions into the reported
metrics.  The benchmark drives ``repro`` strictly from outside: services,
clusters and clients are built through the public constructors, the only
timed region is the public run call, and everything reported is read
from public counters afterwards.

``--seed`` feeds the workload generator only.  The closed-loop clients
draw their operations and keys from the kernel's seeded RNG (that is the
library's workload generator), so the seed is handed to the service as
its RNG seed; consensus inputs and cell seeds are derived from it.  The
fault and reconfiguration timeline of ``kv_chaos_elastic`` is fixed.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    AlignedPaxos,
    ClosedLoopClient,
    Cluster,
    ClusterConfig,
    DiskPaxos,
    ElasticConfig,
    ElasticKV,
    FastPaxos,
    FastRobust,
    FaultScript,
    JitteredSynchrony,
    MergeShard,
    MessagePaxos,
    OperationMix,
    ProtectedMemoryPaxos,
    RobustBackup,
    ShardConfig,
    ShardedKV,
    SplitShard,
    UniformKeys,
    YCSB_A,
    ZipfianKeys,
)
from repro.obs.runtime import attach
from repro.shard.gateway import (
    CellRouter,
    RemoteClient,
    build_client_cell,
    kv_state_digest,
    service_cell_factory,
)
from repro.sim.parallel import Cell, ParallelKernel

#: virtual deadline of the KV runs — far past any healthy run, so hitting
#: it means operations were lost (they then count as failed)
KV_DEADLINE = 10.0**7
#: kv_chaos_elastic gets a tight one: a client stranded by a fault idles
#: the kernel through millions of retry timers before a loose deadline
CHAOS_DEADLINE = 60_000.0
CONSENSUS_DEADLINE = 30_000.0

#: the single-shot grid: (name, protocol, processes, memories, instances
#: at full scale, expected decision delay).  Counts give every protocol
#: roughly the same wall share (~0.4 s each on the reference host).  The
#: first seven delays are the paper's common-case counts; Robust Backup
#: has no fast path and its figure is the recorded slow-path value.
CONSENSUS_GRID = (
    ("pmp", ProtectedMemoryPaxos, 3, 3, 2400, 2.0),
    ("pmp_n2", ProtectedMemoryPaxos, 2, 3, 2800, 2.0),
    ("aligned", AlignedPaxos, 3, 3, 1000, 2.0),
    ("fast_paxos", FastPaxos, 3, 0, 1100, 2.0),
    ("disk_paxos", DiskPaxos, 3, 3, 1600, 4.0),
    ("message_paxos", MessagePaxos, 3, 0, 1100, 4.0),
    ("fast_robust", FastRobust, 3, 3, 120, 2.0),
    ("robust_backup", RobustBackup, 3, 3, 48, 40.5),
)

_READ_OPS = ("ReadOp", "SnapshotOp", "ReadSnapshotOp")


class Run:
    """What one repetition needs from its caller: the inputs and a clock.

    ``timed`` wraps the public run call: wall time accumulates in
    ``wall_s`` and, on the traced repetition, cProfile is enabled for
    exactly the same region (no hook inside ``src/``).
    """

    def __init__(
        self,
        seed: int,
        scale: float = 1.0,
        profiler: Any = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.profiler = profiler
        self.deadline = deadline
        self.wall_s = 0.0
        #: construction time spent after the first run call started
        #: (consensus_single_shot builds a Cluster per instance)
        self.late_setup_s = 0.0
        self.first_run_at: Optional[float] = None

    def scaled(self, n: int) -> int:
        return max(1, int(round(n * self.scale)))

    def timed(self, fn: Callable[[], Any]) -> Any:
        profiler = self.profiler
        start = time.perf_counter()
        if self.first_run_at is None:
            self.first_run_at = start
        if profiler is not None:
            profiler.enable()
        try:
            return fn()
        finally:
            if profiler is not None:
                profiler.disable()
            self.wall_s += time.perf_counter() - start


def nearest_rank(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def worst_mean(ordered: List[float], share: float) -> float:
    """Mean of the slowest *share* of an already sorted, non-empty sample."""
    k = max(1, math.ceil(share * len(ordered)))
    return sum(ordered[-k:]) / k


def latency_summary(samples: List[float]) -> Dict[str, float]:
    """Percentiles for the reader, means for the gate: with whole-delay
    latencies a percentile or the maximum jumps by a whole delay from one
    seed to the next, a mean over the same requests moves smoothly."""
    ordered = sorted(samples)
    if not ordered:
        return {"count": 0, **dict.fromkeys(
            ("p50", "p99", "max", "mean", "worst_1pct", "worst_0.1pct"), 0.0
        )}
    return {
        "count": len(ordered),
        "p50": nearest_rank(ordered, 0.50),
        "p99": nearest_rank(ordered, 0.99),
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
        "worst_1pct": worst_mean(ordered, 0.01),
        "worst_0.1pct": worst_mean(ordered, 0.001),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# single-kernel KV workloads
# ----------------------------------------------------------------------
class _TapRecorder:
    """Forwards completions to the service's recorder and keeps each
    acknowledged command, so the benchmark can check afterwards that no
    acknowledged write was lost."""

    def __init__(self, inner, acked: List[Tuple[Any, float]]) -> None:
        self._inner = inner
        self._acked = acked

    def record(self, command, result, latency: float) -> None:
        self._acked.append((command, latency))
        self._inner.record(command, result, latency)


class _TappedClient:
    """A client as the service sees it, with the recorder tapped."""

    def __init__(self, client, acked: List[Tuple[Any, float]]) -> None:
        self._client = client
        self._acked = acked
        self.client_id = client.client_id
        self.n_ops = client.n_ops
        self.pid = client.pid

    def task(self, env, frontend, recorder):
        return self._client.task(env, frontend, _TapRecorder(recorder, self._acked))


def _closed_loop(n_clients: int, n_ops: int, keys, mix, pid=None) -> List[ClosedLoopClient]:
    return [
        ClosedLoopClient(client_id=i, n_ops=n_ops, keys=keys, mix=mix, pid=pid)
        for i in range(n_clients)
    ]


def _lost_acked_puts(service, acked: List[Tuple[Any, float]]) -> int:
    """Acknowledged puts the committed state no longer accounts for.

    Every acked put's identity must be in some replica's dedup table (the
    owner's; after an elastic move, the source's), and the value the
    key's current owner holds must be one an acked put wrote to it.
    """
    seen = set()
    for machine in service.machines.values():
        seen.update(machine.seen)
    stores = {shard: service.snapshot(shard) for shard in service.shards}
    written: Dict[str, set] = {}
    lost = 0
    for command, _latency in acked:
        if command.op != "put":
            continue
        written.setdefault(command.key, set()).add(command.value)
        if command.identity not in seen:
            lost += 1
    for key, values in written.items():
        owner = service.partitioner.shard_for(key)
        if stores[owner].get(key) not in values:
            lost += 1
    return lost


def _downtime(fault_timeline) -> float:
    """Summed virtual time processes, memories and links spent down."""
    down: Dict[str, float] = {}
    total = 0.0
    for record in fault_timeline:
        if record.kind in ("crash_proc", "crash_mem"):
            down.setdefault(record.subject, record.time)
        elif record.kind == "partition":
            down.setdefault("net", record.time)
        elif record.kind in ("recover_proc", "recover_mem", "heal"):
            since = down.pop(record.subject, None)
            if since is not None:
                total += record.time - since
    return total


def _run_kv(
    run: Run,
    build: Callable[[], ShardedKV],
    clients: List[ClosedLoopClient],
    deadline: float,
    attach_obs: bool = False,
) -> Dict[str, Any]:
    started = time.perf_counter()
    service = build()
    build_s = time.perf_counter() - started
    acked: List[Tuple[Any, float]] = []
    tapped = [_TappedClient(client, acked) for client in clients]
    obs = attach(service.kernel, profile=False) if attach_obs else None
    if run.deadline is not None:
        deadline = run.deadline
    report = run.timed(lambda: service.run_workload(tapped, deadline=deadline))

    kernel = service.kernel
    ledger = kernel.metrics
    network = kernel.network
    attempted = sum(client.n_ops for client in clients)
    completed = len(acked)
    reads = sum(1 for command, _latency in acked if command.op == "get")
    complete = report.ok and completed == attempted
    checks = {
        "ledger_violations": len(ledger.violations),
        "stale_reads": ledger.staleness_violations,
        "replica_divergence": len(service.replica_divergence()),
        # an unfinished run is already failed; its in-flight puts are not
        # acknowledged, so the lost-write check only reads complete runs
        "lost_acked_puts": _lost_acked_puts(service, acked) if complete else 0,
    }
    counts = {
        "net.messages_per_op": _ratio(ledger.total_messages(), completed),
        "net.dropped_per_op": _ratio(
            network.dropped + network.partition_dropped + network.chaos_dropped,
            completed,
        ),
        "mem.ops_per_op": _ratio(ledger.total_mem_ops(), completed),
        "smr.batch_fill": report.mean_batch_fill,
        "smr.batches_per_op": _ratio(report.committed_batches, completed),
        "shard.duplicates_per_op": _ratio(
            sum(stats.duplicates for stats in report.shards.values()), completed
        ),
        "shard.read_fallbacks_per_read": _ratio(ledger.total_read_fallbacks(), reads),
        "shard.reads_quorum_share": _ratio(ledger.total_reads_served("quorum"), reads),
        "crypto.signatures_per_op": _ratio(ledger.total_signatures(), completed),
        "failures.events": len(ledger.fault_timeline),
        "failures.downtime_delays": _downtime(ledger.fault_timeline),
    }
    if isinstance(service, ElasticKV):
        commits = ledger.reconfigs_of("cfg_commit")
        activations = ledger.reconfigs_of("activate")
        counts["reconfig.epochs"] = service.epoch.number
        counts["reconfig.moved_keys"] = sum(service.moved_by_epoch().values())
        counts["reconfig.cutover_window_max_delays"] = max(
            (a.time - c.time for c, a in zip(commits, activations)), default=0.0
        )
    if obs is not None:
        spans = len(obs.finished) + obs.dropped + len(obs.open_spans())
        counts["obs.spans_per_op"] = _ratio(spans, completed)
    return {
        "build_s": build_s,
        "attempted": attempted,
        "completed": completed,
        "reads": reads,
        "commits": sum(ledger.shard_commits.values()),
        "events": kernel.queue.popped,
        "messages": ledger.total_messages(),
        "mem_ops": ledger.total_mem_ops(),
        "virtual_elapsed": report.elapsed,
        "latency": latency_summary([latency for _command, latency in acked]),
        "checks": checks,
        "counts": counts,
        "fingerprint": kv_state_digest(service),
    }


def kv_write_heavy(run: Run, attach_obs: bool = False) -> Dict[str, Any]:
    return _run_kv(
        run,
        lambda: ShardedKV(
            ShardConfig(
                n_shards=4, n_processes=3, n_memories=3, batch_max=8,
                seed=run.seed, deadline=KV_DEADLINE,
            )
        ),
        _closed_loop(96, run.scaled(500), ZipfianKeys(256), YCSB_A),
        KV_DEADLINE,
        attach_obs=attach_obs,
    )


def kv_write_heavy_obs(run: Run) -> Dict[str, Any]:
    return kv_write_heavy(run, attach_obs=True)


def kv_quorum_read(run: Run) -> Dict[str, Any]:
    return _run_kv(
        run,
        lambda: ShardedKV(
            ShardConfig(
                n_shards=2, n_processes=3, n_memories=3, batch_max=4,
                read_mode="quorum", seed=run.seed, deadline=KV_DEADLINE,
            )
        ),
        _closed_loop(
            96, run.scaled(150), ZipfianKeys(256), OperationMix(read_fraction=0.95)
        ),
        KV_DEADLINE,
    )


def kv_chaos_elastic(run: Run) -> Dict[str, Any]:
    def build() -> ElasticKV:
        faults = (
            FaultScript()
            .at(300.0).crash_process(1).recover(at=500.0)
            .at(900.0).crash_memory(2).recover(at=1200.0)
            .at(1500.0).partition({0, 1}, {2}).heal(at=1650.0)
            .at(2100.0).crash_process(0).recover(at=2250.0)
        )
        service = ElasticKV(
            ElasticConfig(
                n_shards=2, n_processes=3, n_memories=3, batch_max=4,
                retry_timeout=25.0, latency=JitteredSynchrony(0.2),
                seed=run.seed, deadline=CHAOS_DEADLINE, faults=faults,
            )
        )
        service.schedule_reconfig(200.0, SplitShard())
        service.schedule_reconfig(700.0, SplitShard())
        service.schedule_reconfig(1800.0, MergeShard(1))
        return service

    # pinned to process 2, the one the script never crashes: a client on
    # a process that crashes never completes (see README, known issues)
    clients = _closed_loop(24, run.scaled(2000), ZipfianKeys(512), YCSB_A, pid=2)
    result = _run_kv(run, build, clients, CHAOS_DEADLINE)
    if run.scale >= 1.0 and run.deadline is None:
        # the whole timeline ran: both splits and the merge must have landed
        result["checks"]["epochs_missing"] = 3 - result["counts"]["reconfig.epochs"]
    return result


# ----------------------------------------------------------------------
# consensus_single_shot
# ----------------------------------------------------------------------
def consensus_single_shot(run: Run) -> Dict[str, Any]:
    deadline = CONSENSUS_DEADLINE if run.deadline is None else run.deadline
    attempted = completed = events = messages = mem_ops = reads = signatures = 0
    virtual_elapsed = construct_s = 0.0
    delays: List[float] = []
    # an instance fails unless it is decided, agreed, valid and exactly as
    # fast as expected; agreement and validity breaches are safety violations
    failures = {"undecided": 0, "agreement": 0, "validity": 0, "delay_mismatch": 0}
    decide_delays: Dict[str, float] = {}
    digest = hashlib.sha256()
    for name, protocol, n, m, count, expected in CONSENSUS_GRID:
        seen_delays = set()
        for index in range(run.scaled(count)):
            inputs = [f"s{run.seed}-{name}-{index}-p{p + 1}" for p in range(n)]
            started = time.perf_counter()
            cluster = Cluster(
                protocol(),
                ClusterConfig(
                    n_processes=n, n_memories=m, seed=run.seed + index,
                    deadline=deadline,
                ),
            )
            built = time.perf_counter()
            construct_s += built - started
            if run.first_run_at is not None:
                run.late_setup_s += built - started
            result = run.timed(lambda: cluster.run(inputs))
            attempted += 1
            delay = result.earliest_decision_delay
            ledger = result.metrics
            events += result.kernel.queue.popped
            messages += ledger.total_messages()
            mem_ops += ledger.total_mem_ops()
            reads += sum(
                n_ops for (_pid, kind), n_ops in ledger.mem_ops.items()
                if kind in _READ_OPS
            )
            signatures += ledger.total_signatures()
            virtual_elapsed += result.final_time
            if not result.all_decided or delay is None:
                failures["undecided"] += 1
                continue
            delays.append(delay)
            seen_delays.add(delay)
            digest.update(repr(sorted(result.decided_values)).encode())
            if not result.agreed:
                failures["agreement"] += 1
            elif not result.valid:
                failures["validity"] += 1
            elif delay != expected:
                failures["delay_mismatch"] += 1
            else:
                completed += 1
        decide_delays[name] = max(seen_delays, default=0.0)
    counts = {
        "net.messages_per_op": _ratio(messages, attempted),
        "mem.ops_per_op": _ratio(mem_ops, attempted),
        "crypto.signatures_per_op": _ratio(signatures, attempted),
    }
    for name, delay in decide_delays.items():
        counts[f"consensus.decide_delays.{name}"] = delay
    return {
        "build_s": construct_s,
        "attempted": attempted,
        "completed": completed,
        # the only reads a single-shot instance makes are one-sided memory
        # reads; every decided instance commits exactly one value
        "reads": reads,
        "commits": len(delays),
        "events": events,
        "messages": messages,
        "mem_ops": mem_ops,
        "virtual_elapsed": virtual_elapsed,
        "latency": latency_summary(delays),
        "checks": {
            "agreement_failures": failures["agreement"],
            "validity_failures": failures["validity"],
        },
        "failure_kinds": failures,
        "counts": counts,
        "fingerprint": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# kv_cells
# ----------------------------------------------------------------------
_SERVICE_CELLS = 4
_CLIENT_CELLS = 2
_CLIENTS_PER_CELL = 64
_CLIENT_PROCESSES = 16


class _PortTap:
    """A fabric port as a remote client sees it, remembering each
    distinct request posted (resends carry the same identity)."""

    def __init__(self, port) -> None:
        self._port = port
        self.cell_id = port.cell_id
        self.requests: Dict[Tuple[int, int], Tuple[str, str, Any]] = {}

    def post(self, dst_cell: int, dst_pid: int, topic: str, payload: Any) -> None:
        _tag, _cell, _pid, client_id, request_id, op, key, value = payload
        self.requests[(client_id, request_id)] = (op, key, value)
        self._port.post(dst_cell, dst_pid, topic, payload)


def _service_cell(cell_id: int, seed: int):
    def factory(port):
        made: List[ShardedKV] = []

        def make() -> ShardedKV:
            made.append(
                ShardedKV(
                    ShardConfig(
                        n_shards=2, n_processes=3, n_memories=3, batch_max=8,
                        seed=seed, deadline=KV_DEADLINE,
                    )
                )
            )
            return made[0]

        cell = service_cell_factory(cell_id, make)(port)
        base = cell.summarize

        def summarize() -> Dict[str, Any]:
            service = made[0]
            ledger = service.kernel.metrics
            network = service.kernel.network
            leaders = [
                service.machine(service.leader_of(shard), shard)
                for shard in service.shards
            ]
            store: Dict[str, Any] = {}
            for shard in service.shards:
                store.update(service.snapshot(shard))
            return {
                **base(),
                "violations": len(ledger.violations),
                "stale_reads": ledger.staleness_violations,
                "divergence": len(service.replica_divergence()),
                "mem_ops": ledger.total_mem_ops(),
                "dropped": network.dropped + network.partition_dropped
                + network.chaos_dropped,
                "batches": sum(
                    machine.batches_applied - machine.empty_batches
                    for machine in leaders
                ),
                "duplicates": sum(machine.duplicates for machine in leaders),
                "seen": [token for machine in leaders for token in machine.seen],
                "store": store,
            }

        cell.summarize = summarize
        return cell

    return factory


def _client_cell(cell_id: int, first_client: int, n_ops: int, seed: int, router):
    def factory(port):
        tap = _PortTap(port)
        clients = [
            RemoteClient(
                client_id=first_client + i, n_ops=n_ops, keys=UniformKeys(4096),
                mix=OperationMix(read_fraction=0.5), route=router.cell_for,
                pid=i % _CLIENT_PROCESSES,
                # resend-free: every request may land in one barrier round
                retry_timeout=50_000.0,
            )
            for i in range(_CLIENTS_PER_CELL)
        ]
        kernel, recorder = build_client_cell(
            tap, cell_id, clients, n_processes=_CLIENT_PROCESSES, seed=seed
        )
        total = n_ops * len(clients)
        return Cell(
            cell_id,
            kernel,
            goal=lambda: recorder.completed >= total,
            label=f"clients-{cell_id}",
            summarize=lambda: {
                "completed": recorder.completed,
                "latencies": list(recorder.latencies),
                "requests": tap.requests,
            },
        )

    return factory


def kv_cells(run: Run, mode: str = "inline", workers: int = 1) -> Dict[str, Any]:
    n_ops = run.scaled(150)
    router = CellRouter(list(range(_SERVICE_CELLS)))
    factories = [
        _service_cell(cell, seed=run.seed * 1000 + cell)
        for cell in range(_SERVICE_CELLS)
    ]
    for index in range(_CLIENT_CELLS):
        factories.append(
            _client_cell(
                _SERVICE_CELLS + index,
                first_client=index * _CLIENTS_PER_CELL,
                n_ops=n_ops,
                seed=run.seed * 1000 + 500 + index,
                router=router,
            )
        )
    started = time.perf_counter()
    # inline mode builds every cell here; fork mode builds them inside
    # the workers, so its build time lands in the run wall instead
    engine = ParallelKernel(factories, workers=workers, mode=mode)
    build_s = time.perf_counter() - started
    deadline = KV_DEADLINE if run.deadline is None else run.deadline
    result = run.timed(lambda: engine.run(deadline=deadline))
    report = engine.run_report()

    summaries = {cell: entry["summary"] for cell, entry in report["cells"].items()}
    services = [summaries[cell] for cell in range(_SERVICE_CELLS)]
    clients = [
        summaries[cell]
        for cell in range(_SERVICE_CELLS, _SERVICE_CELLS + _CLIENT_CELLS)
    ]
    attempted = n_ops * _CLIENTS_PER_CELL * _CLIENT_CELLS
    completed = sum(cell["completed"] for cell in clients)
    requests: Dict[Tuple[int, int], Tuple[str, str, Any]] = {}
    for cell in clients:
        requests.update(cell["requests"])
    complete = result.goal_met and completed == attempted
    lost = 0
    if complete:
        written: Dict[str, set] = {}
        seen = [set(map(tuple, cell["seen"])) for cell in services]
        for identity, (op, key, value) in requests.items():
            if op != "put":
                continue
            written.setdefault(key, set()).add(value)
            if identity not in seen[router.cell_for(key)]:
                lost += 1
        for key, values in written.items():
            if services[router.cell_for(key)]["store"].get(key) not in values:
                lost += 1
    latencies = [latency for cell in clients for latency in cell["latencies"]]
    # exact while every client finished; a truncated run may over-count by
    # the one request each unfinished client still had in flight
    reads = sum(1 for op, _key, _value in requests.values() if op == "get")
    commits = sum(sum(cell["commits"].values()) for cell in services)
    batches = sum(cell["batches"] for cell in services)
    totals = report["totals"]
    mem_ops = sum(cell["mem_ops"] for cell in services)
    host = {}
    if mode == "inline":
        host = {
            "sim.parallel.projected_speedup_x": result.projected_speedup,
            "sim.parallel.coordinator_share": _ratio(
                result.coordinator_wall, result.wall
            ),
        }
    return {
        "build_s": build_s,
        "attempted": attempted,
        "completed": completed,
        "reads": reads,
        "commits": commits,
        "events": totals["events"],
        "messages": totals["messages"],
        "mem_ops": mem_ops,
        "virtual_elapsed": result.virtual_time,
        "latency": latency_summary(latencies),
        "checks": {
            "ledger_violations": sum(cell["violations"] for cell in services),
            "stale_reads": sum(cell["stale_reads"] for cell in services),
            "replica_divergence": sum(cell["divergence"] for cell in services),
            "lost_acked_puts": lost,
        },
        "counts": {
            "net.messages_per_op": _ratio(totals["messages"], completed),
            "net.dropped_per_op": _ratio(
                sum(cell["dropped"] for cell in services), completed
            ),
            "mem.ops_per_op": _ratio(mem_ops, completed),
            "smr.batch_fill": _ratio(commits, batches),
            "smr.batches_per_op": _ratio(batches, completed),
            "shard.duplicates_per_op": _ratio(
                sum(cell["duplicates"] for cell in services), completed
            ),
            "sim.parallel.rounds": result.rounds,
            "sim.parallel.crossed_per_op": _ratio(result.messages_crossed, completed),
        },
        "host": host,
        "fingerprint": report["combined_hash"],
    }


def kv_cells_fork(run: Run) -> Dict[str, Any]:
    """``kv_cells`` on real worker processes, one per core — run once for
    the measured fork/inline wall ratio and the cross-mode hash check."""
    return kv_cells(run, mode="fork", workers=max(2, os.cpu_count() or 2))


WORKLOADS: Dict[str, Callable[[Run], Dict[str, Any]]] = {
    "kv_write_heavy": kv_write_heavy,
    "kv_quorum_read": kv_quorum_read,
    "kv_chaos_elastic": kv_chaos_elastic,
    "consensus_single_shot": consensus_single_shot,
    "kv_write_heavy_obs": kv_write_heavy_obs,
    "kv_cells": kv_cells,
    # run beside kv_cells by the parent; never reported on its own
    "kv_cells_fork": kv_cells_fork,
}
