#!/usr/bin/env python3
"""Doorbell batching, side by side: one chain primitive, delivered two ways.

Protocols always post the same chain per memory; the kernel's
``SimConfig.chain_delivery`` decides how it travels.

Part 1 traces a Protected Memory Paxos decision with the prepare phase
enabled (``skip_first_attempt=False``) both ways.  Segmented, the
prepare chain's three work requests — permission grab, probe write,
snapshot read — are three sequential round trips per replica before the
phase-2 write: 8 delays to decide.  Fused (the default), the same chain
is ONE request (one queue entry out, one completion back), so prepare
costs a single round and the decision lands in 4 delays.  The span trees
make the difference visible: three ``memop`` spans per replica collapse
into one ``BatchOp`` span annotated with its sub-op count, and the
critical-path analyzer prices the chain at one round trip.

Part 2 runs the identically-seeded sharded-KV workload (quorum reads,
so both replication phase 2 and the read plane exercise chains) under
both deliveries and compares per-commit event counts: the fused run
schedules fewer kernel events and opens fewer memop spans per committed
command.  (The closed-loop driver draws ops from the kernel's seeded
RNG, so flipping the mechanism perturbs the exact op sequence; the
comparison is therefore per-commit, and the staleness tripwire stays at
zero both ways — behavioural equivalence itself is pinned by the test
suite and the exhaustive schedule explorer.)

Run:  python examples/doorbell_batching.py
"""

from repro import (
    ClosedLoopClient,
    OperationMix,
    PmpConfig,
    ProtectedMemoryPaxos,
    ShardConfig,
    ShardedKV,
    UniformKeys,
)
from repro.core.cluster import Cluster, ClusterConfig
from repro.metrics.reporting import format_table
from repro.obs import attach, critical_path, render_tree
from repro.obs.spans import K_MEMOP
from repro.types import ProcessId


def traced_decision(chain_delivery: str) -> None:
    print(f"--- chain_delivery = {chain_delivery} ---")
    config = PmpConfig(skip_first_attempt=False)
    cluster = Cluster(ProtectedMemoryPaxos(config), ClusterConfig(3, 3))
    cluster.kernel.config.chain_delivery = chain_delivery
    runtime = attach(cluster.kernel)
    result = cluster.run(["a", "b", "c"])
    assert result.agreed

    leader = ProcessId(0)
    _, trace_id = runtime.decide_points[(leader, None)]
    print("span tree of the deciding trace:")
    print(render_tree(runtime.spans, trace_id))
    memops = [s for s in runtime.spans if s.kind == K_MEMOP]
    chains = [s for s in memops if s.name == "BatchOp"]
    sub_ops = sum(s.attrs.get("ops", 1) for s in memops)
    print(
        f"memop spans: {len(memops)} ({len(chains)} fused chains) "
        f"covering {sub_ops} one-sided ops"
    )
    print(critical_path(runtime, leader).summary())
    print()


def stack_side_by_side() -> None:
    print("=== sharded KV, same seeded workload, segmented vs fused chains ===\n")
    rows = []
    for chain_delivery in ("segmented", "fused"):
        service = ShardedKV(
            ShardConfig(
                n_shards=2, batch_max=4, seed=7, read_mode="quorum",
                deadline=10.0**6,
            )
        )
        service.kernel.config.chain_delivery = chain_delivery
        runtime = attach(service.kernel)
        clients = [
            ClosedLoopClient(
                client_id=c, n_ops=10, keys=UniformKeys(32),
                mix=OperationMix(0.5),
            )
            for c in range(12)
        ]
        report = service.run_workload(clients)
        assert report.ok
        kernel = service.kernel
        ledger = kernel.metrics
        assert ledger.staleness_violations == 0
        commits = sum(ledger.shard_commits.values())
        memops = [s for s in runtime.spans if s.kind == K_MEMOP]
        chains = sum(1 for s in memops if s.name == "BatchOp")
        rows.append(
            [
                chain_delivery,
                commits,
                kernel.queue.popped,
                f"{kernel.queue.popped / commits:.1f}",
                ledger.total_mem_ops(),
                len(memops),
                chains,
                f"{kernel.now:.0f}",
            ]
        )
    print(
        format_table(
            ["chains", "commits", "events", "events/commit",
             "one-sided ops", "memop spans", "fused chains", "finish"],
            rows,
        )
    )
    print(
        "\nSame protocol code, zero staleness violations both ways — the\n"
        "fused run just rings fewer doorbells per commit: every phase-2\n"
        "slot write travels with its watermark publish, and every quorum\n"
        "read fetches watermark + entries in one request per memory."
    )


def main() -> None:
    print("=== one PMP decision with the prepare phase on, traced ===\n")
    traced_decision("segmented")
    traced_decision("fused")
    stack_side_by_side()


if __name__ == "__main__":
    main()
