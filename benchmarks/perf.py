"""Machine-readable kernel performance runner.

Measures the simulator's hot-path throughput on five workloads and emits
``BENCH_kernel.json`` — the perf trajectory every PR answers to:

* ``message_storm``   — pure kernel messaging: 4 processes ping-ponging
  20k messages (send → deliver → resume, no memory ops);
* ``mem_op_storm``    — pure kernel memory path: 10k sequential register
  writes (invoke → arrive → apply → resolve → resume);
* ``mem_op_batch_storm`` — the doorbell-batched A/B: the same 10k writes
  posted as 8-WR fused chains (one queue entry, one completion per
  chain); each run times the unbatched variant back-to-back (interleaved
  A/B) and the report carries both rates plus the speedup;
* ``e11_sharded_kv``  — the E11 sharded-KV service workload (4 shards,
  batch 8, Zipfian closed-loop YCSB-A clients, 3 replicas, 3 memories):
  the full stack the kernel exists to carry;
* ``e18_read_paths``  — the E18 read-plane workload: 95%-read Zipfian
  served by one-sided quorum reads (2 shards), tracking the whole read
  plane from watermark publication to floor-filtered snapshots;
* ``e19_parallel_scaleout`` — the partitioned multi-core matrix: 8
  gateway-fronted service cells x 4 shards (32 consensus-backed shards)
  plus 10k single-shot remote clients in 4 client cells, run under the
  conservative-barrier :class:`~repro.sim.parallel.ParallelKernel` at
  W in {1, 2, 4, 8}; asserts the cross-worker determinism contract
  (per-cell trace hashes and final KV digests identical for every W)
  and records the critical-path projected speedup per worker count.
  Informational (``"gated": false``): the projection is not a
  wall-clock noise floor, so the regression gate skips it.

Two throughput figures are reported per workload:

* ``events_per_sec``      — scheduler entries processed per wall second
  (``queue.popped``).  Engine-relative: an engine that schedules fewer
  entries for the same simulated work shows fewer events.
* ``sim_events_per_sec``  — *schedule-invariant* simulated events per wall
  second: messages delivered + memory-operation legs (2 per op).  This is
  the paper-meaningful unit (each costs one virtual delay) and is the
  figure to compare across engine versions — it cannot be gamed by
  scheduling the same work with fewer queue entries.

Wall times are min-over-``--runs`` (noise floor); p50/p99 across runs are
recorded so regressions in variance are visible too.

Usage::

    python benchmarks/perf.py                      # measure, write BENCH_kernel.json
    python benchmarks/perf.py --check              # measure, compare vs committed
                                                   # baseline, exit 1 on >25% regression
    python benchmarks/perf.py --check --tolerance 0.4
    python benchmarks/perf.py --obs-overhead            # zero-cost-observability
                                                        # gate: strict 2% tolerance
    python benchmarks/perf.py --whatif-overhead         # informational: what-if
                                                        # replay tax vs fast path
    python benchmarks/perf.py --out /tmp/now.json --baseline BENCH_kernel.json
    python benchmarks/perf.py --only e19 --smoke    # CI parallel smoke: shrunken
                                                    # scale-out matrix only

The committed baseline is machine-relative: refresh it (re-run without
``--check`` and commit the JSON) when the reference hardware changes.
``--check`` compares the baseline's recorded ``platform``/``python``
against the current host first; on a mismatch, regressions are reported
as warnings rather than failures — a borrowed laptop should never flag
the kernel.  Current-run reports land under ``benchmarks/out/`` (never
committed), so the committed baseline cannot be clobbered by a check.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_BASELINE = REPO_ROOT / "BENCH_kernel.json"
SCHEMA = "repro-bench-kernel/1"


# ----------------------------------------------------------------------
# workloads — each returns (wall_seconds, stats_dict) for ONE fresh run
# ----------------------------------------------------------------------
def _run_message_storm(n_messages: int = 20_000):
    from repro.mem.layout import MemoryLayout
    from repro.sim.environment import ProcessEnv
    from repro.sim.kernel import Kernel, SimConfig
    from repro.types import ProcessId

    n_procs = 4
    kernel = Kernel(SimConfig(n_processes=n_procs, n_memories=0), MemoryLayout([]))
    envs = [ProcessEnv(kernel, ProcessId(p)) for p in range(n_procs)]
    per_task = n_messages // n_procs

    def pinger(p):
        env = envs[p]
        for i in range(per_task):
            yield env.send((p + 1) % n_procs, i, topic="t")
            yield from env.recv(topic="t")

    for p in range(n_procs):
        kernel.spawn(p, f"p{p+1}", pinger(p))
    start = time.perf_counter()
    kernel.run(until=10.0**9)
    wall = time.perf_counter() - start
    messages = kernel.metrics.total_messages()
    assert messages == n_messages, messages
    return wall, {
        "events": kernel.queue.popped,
        "sim_events": messages,  # no memory ops in this storm
        "commits": 0,
    }


def _run_mem_op_storm(n_ops: int = 10_000):
    from repro.mem.layout import MemoryLayout
    from repro.mem.permissions import Permission
    from repro.mem.regions import RegionSpec
    from repro.sim.environment import ProcessEnv
    from repro.sim.kernel import Kernel, SimConfig
    from repro.types import ProcessId

    kernel = Kernel(
        SimConfig(n_processes=3, n_memories=3),
        MemoryLayout([RegionSpec("r", ("x",), Permission.open(range(3)))]),
    )
    env = ProcessEnv(kernel, ProcessId(0))

    def writer():
        for i in range(n_ops):
            yield from env.write(0, "r", ("x", "k"), i)

    kernel.spawn(0, "writer", writer())
    start = time.perf_counter()
    kernel.run(until=10.0**9)
    wall = time.perf_counter() - start
    ops = kernel.metrics.total_mem_ops()
    assert ops == n_ops, ops
    return wall, {
        "events": kernel.queue.popped,
        "sim_events": 2 * ops,  # request + response leg per op
        "commits": 0,
    }


def _run_mem_op_batch_storm(n_ops: int = 10_000, chain: int = 8):
    """Doorbell-batched A/B: the mem_op_storm writes posted as fused
    ``chain``-WR chains versus one-at-a-time, timed back-to-back in the
    same call so both variants see the same machine noise.  The primary
    wall (and sim_events_per_sec) is the *batched* variant; the unbatched
    control rides along in ``stats["ab"]`` and surfaces in the report as
    ``ops_per_sec_unbatched`` / ``batch_speedup``."""
    from repro.mem.layout import MemoryLayout
    from repro.mem.operations import WriteOp
    from repro.mem.permissions import Permission
    from repro.mem.regions import RegionSpec
    from repro.sim.environment import ProcessEnv
    from repro.sim.kernel import Kernel, SimConfig
    from repro.types import ProcessId

    def fresh():
        kernel = Kernel(
            SimConfig(n_processes=3, n_memories=3),
            MemoryLayout([RegionSpec("r", ("x",), Permission.open(range(3)))]),
        )
        return kernel, ProcessEnv(kernel, ProcessId(0))

    kernel, env = fresh()

    def batched_writer():
        for start in range(0, n_ops, chain):
            yield from env.batch(
                0, [WriteOp("r", ("x", "k"), i) for i in range(start, start + chain)]
            )

    kernel.spawn(0, "writer", batched_writer())
    start = time.perf_counter()
    kernel.run(until=10.0**9)
    wall = time.perf_counter() - start
    ops = kernel.metrics.total_mem_ops()  # the ledger counts sub-ops
    assert ops == n_ops, ops

    kernel_b, env_b = fresh()

    def unbatched_writer():
        for i in range(n_ops):
            yield from env_b.write(0, "r", ("x", "k"), i)

    kernel_b.spawn(0, "writer", unbatched_writer())
    start = time.perf_counter()
    kernel_b.run(until=10.0**9)
    unbatched_wall = time.perf_counter() - start
    assert kernel_b.metrics.total_mem_ops() == n_ops

    return wall, {
        "events": kernel.queue.popped,
        "sim_events": 2 * ops,  # same simulated work as the control
        "commits": 0,
        "ab": {"ops": n_ops, "chain": chain, "unbatched_wall_s": unbatched_wall},
    }


def _service_stats(service, report) -> dict:
    """Uniform service-workload stats, derived from the ledger and the
    workload report rather than per-experiment ad-hoc fields: ``commits``
    is the consensus-committed command count (``shard_commits``, whatever
    mix of client writes, consensus-routed reads, and migration puts the
    workload committed) and ``reads`` is every completed client read,
    whichever path (consensus, lease-local, quorum) served it."""
    kernel = service.kernel
    return {
        "events": kernel.queue.popped,
        "sim_events": kernel.metrics.total_messages()
        + 2 * kernel.metrics.total_mem_ops(),
        "commits": sum(kernel.metrics.shard_commits.values()),
        "reads": report.completed_reads,
    }


def _run_e11_sharded(n_clients: int = 96, ops_per_client: int = 50, seed: int = 7):
    from repro.shard import ClosedLoopClient, ShardConfig, ShardedKV, YCSB_A, ZipfianKeys

    service = ShardedKV(
        ShardConfig(n_shards=4, batch_max=8, seed=seed, deadline=10.0**7)
    )
    clients = [
        ClosedLoopClient(
            client_id=i, n_ops=ops_per_client, keys=ZipfianKeys(256), mix=YCSB_A
        )
        for i in range(n_clients)
    ]
    start = time.perf_counter()
    report = service.run_workload(clients)
    wall = time.perf_counter() - start
    expected = n_clients * ops_per_client
    assert report.completed_requests == expected, report.completed_requests
    return wall, _service_stats(service, report)


def _run_e18_read_paths(n_clients: int = 96, ops_per_client: int = 25, seed: int = 17):
    """The read-path service workload: 95%-read Zipfian over one-sided
    quorum reads — the reads/sec figure tracks the whole read plane
    (watermark publication, floor-filtered quorum snapshots, write-backs)."""
    from repro.shard import (
        ClosedLoopClient,
        OperationMix,
        ShardConfig,
        ShardedKV,
        ZipfianKeys,
    )

    service = ShardedKV(
        ShardConfig(
            n_shards=2, batch_max=4, seed=seed, read_mode="quorum",
            deadline=10.0**7,
        )
    )
    clients = [
        ClosedLoopClient(
            client_id=i, n_ops=ops_per_client, keys=ZipfianKeys(256),
            mix=OperationMix(read_fraction=0.95),
        )
        for i in range(n_clients)
    ]
    start = time.perf_counter()
    report = service.run_workload(clients)
    wall = time.perf_counter() - start
    expected = n_clients * ops_per_client
    assert report.completed_requests == expected, report.completed_requests
    assert service.kernel.metrics.staleness_violations == 0
    return wall, _service_stats(service, report)


def _run_e19_parallel_scaleout(smoke: bool = False):
    """E19: the partitioned multi-core scale-out matrix.

    Builds the full cell layout once per worker count W — gateway-fronted
    :class:`ShardedKV` service cells plus bare client cells routed by a
    consistent ring over cell ids — and runs it to completion under the
    conservative-barrier coordinator.  Hard-asserts the determinism
    contract at every W (identical per-cell trace hashes via the combined
    hash, identical final KV digests, every client completed), then
    reports the critical-path projected speedup per W.  The returned wall
    is the W=1 run: the sequential-equivalent figure, comparable across
    engine versions like every other workload's.
    """
    from repro.shard import OperationMix, ShardConfig, ShardedKV, UniformKeys
    from repro.shard.gateway import (
        CellRouter,
        RemoteClient,
        client_cell_factory,
        service_cell_factory,
    )
    from repro.sim.parallel import ParallelKernel

    from repro.shard.partitioner import WorkerAssignment

    if smoke:
        n_service_cells, shards_per_cell = 4, 2
        n_client_cells, n_clients = 2, 400
        worker_counts = (1, 4)
    else:
        n_service_cells, shards_per_cell = 8, 4
        n_client_cells, n_clients = 8, 10_000
        worker_counts = (1, 2, 4, 8)
    seed = 23
    # client-side cost of a request (send, park, resume) relative to the
    # service-side cost (gateway, consensus, apply): measured ~1:3 on the
    # reference host; only the ratio's rough magnitude matters to packing
    client_cost_ratio = 0.35
    service_cells = list(range(n_service_cells))
    router = CellRouter(service_cells)
    mix = OperationMix(read_fraction=0.5)
    keys = UniformKeys(4096)
    per_cell = n_clients // n_client_cells

    def make_service(cell):
        return lambda: ShardedKV(
            ShardConfig(
                n_shards=shards_per_cell, batch_max=8, seed=seed + cell,
                deadline=10.0**7,
            )
        )

    def make_clients(base):
        def build():
            # one op per client: 10k concurrent single-shot requests is
            # the fan-in shape that stresses the fabric merge, and the
            # huge retry timeout keeps the closed loop resend-free even
            # when every request lands in the same barrier round
            return [
                RemoteClient(
                    client_id=base + i, n_ops=1, keys=keys, mix=mix,
                    route=router.cell_for, pid=i % 16,
                    retry_timeout=50_000.0,
                )
                for i in range(per_cell)
            ]

        return build

    factories = [
        service_cell_factory(cell, make_service(cell)) for cell in service_cells
    ]
    for index in range(n_client_cells):
        cell_id = n_service_cells + index
        factories.append(
            client_cell_factory(
                cell_id, make_clients(index * per_cell),
                n_processes=16, seed=1000 + cell_id,
            )
        )

    # ring-aware packing: a service cell's weight is its arc share of the
    # cell ring (= its expected request volume), client cells carry their
    # client count scaled by the measured per-request cost ratio
    n_cells = n_service_cells + n_client_cells
    arcs = router.weights()
    cell_weights = {cell: arcs[cell] * n_service_cells for cell in service_cells}
    for index in range(n_client_cells):
        cell_weights[n_service_cells + index] = (
            client_cost_ratio * n_service_cells / n_client_cells
        )

    scaleout = {}
    reference = None
    reference_digests = None
    w1 = None
    for w in worker_counts:
        assignment = WorkerAssignment(range(n_cells), w)
        assignment.set_weights(cell_weights)
        engine = ParallelKernel(
            factories, workers=w, mode="inline", assignment=assignment
        )
        # collector pauses land inside whichever worker slice is running
        # and skew the per-round max; park the GC for the measured span
        import gc

        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = engine.run()
            wall = time.perf_counter() - start
        finally:
            gc.enable()
        assert result.goal_met, f"W={w}: cells did not reach their goals"
        report = engine.run_report()
        digests = {
            cell: summary["summary"]["kv_digest"]
            for cell, summary in report["cells"].items()
            if summary["summary"] and "kv_digest" in summary["summary"]
        }
        if reference is None:
            reference, reference_digests = report, digests
            completed = sum(
                s["summary"]["completed"]
                for s in report["cells"].values()
                if s["summary"] and "completed" in s["summary"]
            )
            assert completed == n_clients, completed
            w1 = wall
        else:
            assert report["combined_hash"] == reference["combined_hash"], (
                f"W={w}: trace hashes diverged from W={worker_counts[0]}"
            )
            assert digests == reference_digests, (
                f"W={w}: final KV state diverged from W={worker_counts[0]}"
            )
        scaleout[str(w)] = {
            "wall_s": round(wall, 6),
            "rounds": result.rounds,
            "projected_speedup": round(result.projected_speedup, 3),
            "total_busy_s": round(result.total_busy, 6),
            "critical_path_s": round(result.critical_path, 6),
            "coordinator_s": round(result.coordinator_wall, 6),
        }
        print(
            f"    W={w}: {wall:.3f}s wall, {result.rounds} rounds, "
            f"projected {result.projected_speedup:.2f}x "
            f"(critical {result.critical_path:.3f}s of "
            f"{result.total_busy:.3f}s busy)"
        )

    totals = reference["totals"]
    commits = sum(
        sum(s["summary"]["commits"].values())
        for s in reference["cells"].values()
        if s["summary"] and "commits" in s["summary"]
    )
    out_dir = REPO_ROOT / "benchmarks" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    artifact = {
        "schema": "repro-parallel-report/1",
        "smoke": smoke,
        "workload": {
            "service_cells": n_service_cells,
            "shards_per_cell": shards_per_cell,
            "client_cells": n_client_cells,
            "clients": n_clients,
            "worker_counts": list(worker_counts),
        },
        "combined_hash": reference["combined_hash"],
        "kv_digests": reference_digests,
        "totals": totals,
        "projection": "critical-path",
        "scaleout": scaleout,
    }
    (out_dir / "parallel_report.json").write_text(
        json.dumps(artifact, indent=2) + "\n"
    )
    return w1, {
        "events": totals["events"],
        "sim_events": totals["sim_events"],
        "commits": commits,
        "extra": {
            "gated": False,
            "projection": "critical-path",
            "cells": n_service_cells + n_client_cells,
            "shards": n_service_cells * shards_per_cell,
            "clients": n_clients,
            "crossed": totals["crossed"],
            "combined_hash": reference["combined_hash"][:16],
            "scaleout": scaleout,
            "speedup_w4": scaleout.get("4", {}).get("projected_speedup"),
        },
    }


WORKLOADS = {
    "message_storm": _run_message_storm,
    "mem_op_storm": _run_mem_op_storm,
    "mem_op_batch_storm": _run_mem_op_batch_storm,
    "e11_sharded_kv": _run_e11_sharded,
    "e18_read_paths": _run_e18_read_paths,
    "e19_parallel_scaleout": _run_e19_parallel_scaleout,
}

#: per-workload run-count overrides: the scale-out matrix runs four whole
#: worker-count configurations per invocation and its headline figure is
#: a projection rather than a noise-floor wall, so one run is the budget
RUNS_OVERRIDE = {"e19_parallel_scaleout": 1}

#: workloads that take a ``smoke=`` kwarg (CI-sized configurations)
SMOKE_AWARE = {"e19_parallel_scaleout"}


def whatif_overhead(runs: int = 3, n_ops: int = 10_000) -> float:
    """Informational: the replay cost of the what-if override seam.

    A bare ``LatencyOverride`` prices every leg through the wrapped
    model's constants but, being dynamic, forfeits the kernel's cached
    fast path — this is the per-replay tax every counterfactual
    experiment pays.  Returns the slowdown ratio (override wall /
    constant wall) over the ``mem_op_storm`` workload; not gated, the
    zero-cost contract only covers the *detached* configuration.
    """
    from repro.mem.layout import MemoryLayout
    from repro.mem.permissions import Permission
    from repro.mem.regions import RegionSpec
    from repro.obs.whatif import LatencyOverride
    from repro.sim.environment import ProcessEnv
    from repro.sim.kernel import Kernel, SimConfig
    from repro.types import ProcessId

    def run_once(latency) -> float:
        config = SimConfig(n_processes=3, n_memories=3)
        if latency is not None:
            config.latency = latency
        kernel = Kernel(
            config,
            MemoryLayout([RegionSpec("r", ("x",), Permission.open(range(3)))]),
        )
        env = ProcessEnv(kernel, ProcessId(0))

        def writer():
            for i in range(n_ops):
                yield from env.write(0, "r", ("x", "k"), i)

        kernel.spawn(0, "writer", writer())
        start = time.perf_counter()
        kernel.run(until=10.0**9)
        return time.perf_counter() - start

    constant = min(run_once(None) for _ in range(runs))
    override = min(run_once(LatencyOverride()) for _ in range(runs))
    return override / constant


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def measure(runs: int = 5, only: str = None, smoke: bool = False) -> dict:
    """Run every workload ``runs`` times; return the experiments dict.

    *only* filters workloads by substring match on their name; *smoke*
    switches smoke-aware workloads to their CI-sized configuration.
    Workloads in :data:`RUNS_OVERRIDE` ignore *runs*.
    """
    experiments = {}
    for name, fn in WORKLOADS.items():
        if only and only not in name:
            continue
        n_runs = RUNS_OVERRIDE.get(name, runs)
        kwargs = {"smoke": True} if smoke and name in SMOKE_AWARE else {}
        walls = []
        ab_walls = []
        stats = None
        for _ in range(n_runs):
            wall, stats = fn(**kwargs)
            walls.append(wall)
            if "ab" in stats:
                ab_walls.append(stats["ab"]["unbatched_wall_s"])
        walls.sort()
        best = walls[0]
        p50 = statistics.median(walls)
        p99 = walls[min(len(walls) - 1, int(len(walls) * 0.99))]
        experiments[name] = {
            "runs": n_runs,
            "wall_best_s": round(best, 6),
            "wall_p50_s": round(p50, 6),
            "wall_p99_s": round(p99, 6),
            "events": stats["events"],
            "sim_events": stats["sim_events"],
            "events_per_sec": round(stats["events"] / best, 1),
            "sim_events_per_sec": round(stats["sim_events"] / best, 1),
            "commits_per_sec": round(stats["commits"] / best, 1)
            if stats["commits"]
            else None,
            "reads_per_sec": round(stats["reads"] / best, 1)
            if stats.get("reads")
            else None,
        }
        if "extra" in stats:
            experiments[name].update(stats["extra"])
        if ab_walls:
            # the A/B control: best-of walls for both variants, so the
            # speedup compares noise floors rather than single samples
            ab = stats["ab"]
            ab_best = min(ab_walls)
            experiments[name].update(
                {
                    "chain": ab["chain"],
                    "ops_per_sec": round(ab["ops"] / best, 1),
                    "ops_per_sec_unbatched": round(ab["ops"] / ab_best, 1),
                    "batch_speedup": round(ab_best / best, 2),
                }
            )
        print(
            f"  {name:<18} best={best:.4f}s p50={p50:.4f}s "
            f"sim-ev/s={experiments[name]['sim_events_per_sec']:>12,.0f} "
            f"ev/s={experiments[name]['events_per_sec']:>12,.0f}"
        )
        if ab_walls:
            entry = experiments[name]
            print(
                f"  {'':<18} batched {entry['ops_per_sec']:,.0f} ops/s vs "
                f"unbatched {entry['ops_per_sec_unbatched']:,.0f} ops/s "
                f"({entry['batch_speedup']:.2f}x, chain={entry['chain']})"
            )
    return experiments


def check(current: dict, baseline: dict, tolerance: float, only: str = None):
    """Regressions: experiments whose sim_events_per_sec dropped more than
    *tolerance* versus the baseline.  Returns ``(failures, warnings)``.

    Schema-tolerant by design: a baseline from before an experiment (or a
    field) existed *warns* instead of KeyError-ing, so adding a workload
    never forces a same-commit baseline refresh — only a dropped or slowed
    experiment fails the check.  Experiments the baseline marks
    ``"gated": false`` (scaling projections, not noise-floor walls) are
    skipped; under ``--only``, baseline experiments outside the filter
    are skipped too rather than reported missing.  (Cross-host
    comparisons are the caller's concern: see :func:`host_mismatch`.)"""
    failures = []
    warnings = []
    base_experiments = baseline.get("experiments", {})
    for name in current:
        if name not in base_experiments:
            warnings.append(
                f"{name}: not in baseline (new experiment?) — not checked; "
                f"refresh the baseline to start gating it"
            )
    for name, base in base_experiments.items():
        if only and only not in name:
            continue
        if base.get("gated") is False:
            continue  # informational experiment: projections, not walls
        now = current.get(name)
        if now is None:
            failures.append(f"{name}: missing from current measurement")
            continue
        base_rate = base.get("sim_events_per_sec")
        if base_rate is None:
            warnings.append(
                f"{name}: baseline lacks sim_events_per_sec — not checked"
            )
            continue
        floor = base_rate * (1.0 - tolerance)
        if now["sim_events_per_sec"] < floor:
            failures.append(
                f"{name}: sim_events_per_sec {now['sim_events_per_sec']:,.0f} "
                f"< floor {floor:,.0f} "
                f"(baseline {base_rate:,.0f}, "
                f"tolerance {tolerance:.0%})"
            )
    return failures, warnings


def host_mismatch(current_report: dict, baseline: dict):
    """The baseline fields that identify its host, where they differ from
    the current report's — non-empty means rate comparisons are
    cross-machine and should warn, not gate."""
    mismatches = []
    for field in ("platform", "python"):
        base_value = baseline.get(field)
        now_value = current_report.get(field)
        if base_value is not None and base_value != now_value:
            mismatches.append(f"{field}: baseline {base_value!r} != {now_value!r}")
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="where to write the JSON report (default: repo-root "
                             "BENCH_kernel.json; benchmarks/out/BENCH_kernel.current.json "
                             "under --check so the baseline is never clobbered and the "
                             "working tree stays clean)")
    parser.add_argument("--baseline", type=pathlib.Path, default=DEFAULT_BASELINE,
                        help="baseline JSON for --check (default: committed BENCH_kernel.json)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the baseline and exit 1 on regression")
    parser.add_argument("--obs-overhead", action="store_true",
                        help="gate the zero-cost observability contract: the default "
                             "measurement (kernel.obs detached) must sit within a "
                             "strict 2%% of the baseline — implies --check")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed fractional drop vs baseline "
                             "(default 0.25; 0.02 under --obs-overhead)")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload; best-of is reported (default 5)")
    parser.add_argument("--only", type=str, default=None, metavar="SUBSTR",
                        help="run only workloads whose name contains SUBSTR "
                             "(e.g. 'e19'); --check skips unmatched baseline "
                             "entries instead of reporting them missing")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized configurations for smoke-aware workloads "
                             "(e19: 4 service cells x 2 shards, 400 clients, "
                             "W in {1, 4})")
    parser.add_argument("--whatif-overhead", action="store_true",
                        help="also report the (informational, ungated) slowdown of "
                             "replaying the memory-op storm through an identity "
                             "what-if LatencyOverride vs the constant fast path")
    args = parser.parse_args(argv)
    if args.obs_overhead:
        args.check = True
    if args.tolerance is None:
        args.tolerance = 0.02 if args.obs_overhead else 0.25
    if args.out is None:
        args.out = (
            REPO_ROOT / "benchmarks" / "out" / "BENCH_kernel.current.json"
            if args.check
            else DEFAULT_BASELINE
        )

    # Load the baseline before any writing so --check can never compare a
    # freshly written report against itself.
    baseline = None
    if args.check and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())

    print(f"measuring kernel hot-path throughput ({args.runs} runs per workload)...")
    experiments = measure(runs=args.runs, only=args.only, smoke=args.smoke)
    if not experiments:
        print(f"no workload matches --only {args.only!r}")
        return 2
    report = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "experiments": experiments,
    }
    if args.whatif_overhead:
        ratio = whatif_overhead(runs=args.runs)
        report["whatif_overhead"] = ratio
        print(f"  what-if replay overhead (identity override vs constant "
              f"fast path): {ratio:.2f}x")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check:
        if baseline is None:
            print(f"no baseline at {args.baseline}; nothing to check against")
            return 0
        failures, warnings = check(
            experiments, baseline, args.tolerance, only=args.only
        )
        mismatches = host_mismatch(report, baseline)
        if mismatches and failures:
            # wall-clock rates do not transfer across hosts: report, don't gate
            warnings.append(
                "baseline was measured on a different host — downgrading "
                "rate regressions to warnings (" + "; ".join(mismatches) + ")"
            )
            warnings.extend(failures)
            failures = []
        for warning in warnings:
            print(f"  warning: {warning}")
        if failures:
            print("PERF REGRESSION:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"perf check ok (within {args.tolerance:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
