"""E11 — scaling the service layer: shards x batching throughput grid.

The systems descendants of the paper (Mu, DARE, APUS) scale by running
many consensus groups and amortising per-slot cost with batching.  This
bench drives the sharded replicated KV under a Zipfian closed-loop
workload across shard counts {1, 2, 4, 8} and batch caps {1, 8, 32} and
reports committed commands per simulated delay.  Two shapes must hold:

* holding batch at 1, adding shards multiplies throughput (independent
  leaders commit in parallel);
* holding shards at 1, raising the batch cap multiplies throughput (one
  two-delay instance carries many commands).
"""

from repro.shard import (
    ClosedLoopClient,
    ShardConfig,
    ShardedKV,
    YCSB_A,
    ZipfianKeys,
)

from benchmarks._common import emit, table

SHARD_COUNTS = [1, 2, 4, 8]
BATCH_SIZES = [1, 8, 32]
N_CLIENTS = 24
OPS_PER_CLIENT = 8
SEED = 7


def _run(n_shards: int, batch_max: int):
    service = ShardedKV(
        ShardConfig(n_shards=n_shards, batch_max=batch_max, seed=SEED)
    )
    clients = [
        ClosedLoopClient(
            client_id=i,
            n_ops=OPS_PER_CLIENT,
            keys=ZipfianKeys(128),
            mix=YCSB_A,
        )
        for i in range(N_CLIENTS)
    ]
    report = service.run_workload(clients)
    assert report.completed_requests == N_CLIENTS * OPS_PER_CLIENT
    return report


def _measure():
    grid = {}
    for n_shards in SHARD_COUNTS:
        for batch_max in BATCH_SIZES:
            grid[(n_shards, batch_max)] = _run(n_shards, batch_max)
    return grid


def test_sharded_kv_scaling():
    grid = _measure()
    rows = []
    for n_shards in SHARD_COUNTS:
        row = [f"{n_shards} shard{'s' if n_shards > 1 else ''}"]
        for batch_max in BATCH_SIZES:
            report = grid[(n_shards, batch_max)]
            row.append(
                f"{report.commands_per_delay:.2f} "
                f"(fill {report.mean_batch_fill:.1f})"
            )
        rows.append(row)
    emit(
        "E11",
        f"Sharded KV throughput: {N_CLIENTS} Zipfian closed-loop clients, "
        f"{N_CLIENTS * OPS_PER_CLIENT} commands, 3 replicas, 3 memories",
        table(
            ["configuration"] + [f"batch {b}" for b in BATCH_SIZES],
            rows,
        ),
        notes=(
            "Cells: committed commands per simulated delay (mean batch fill).\n"
            "Shape: throughput grows along both axes — independent shard\n"
            "leaders commit slots in parallel, and batching amortises the\n"
            "two-delay Protected Memory Paxos instance across many commands."
        ),
    )

    baseline = grid[(1, 1)].commands_per_delay
    # the acceptance bar: 4 shards with batching beat the seed-equivalent
    # configuration by at least 4x on the same seed
    assert grid[(4, 8)].commands_per_delay >= 4.0 * baseline
    # sharding alone scales: 4 shards / batch 1 at least doubles throughput
    assert grid[(4, 1)].commands_per_delay >= 2.0 * baseline
    # batching alone scales: 1 shard / batch 32 at least doubles throughput
    assert grid[(1, 32)].commands_per_delay >= 2.0 * baseline
    # the seed fast path survives underneath: ~0.5 commands/delay unsharded
    assert 0.35 <= baseline <= 0.65
