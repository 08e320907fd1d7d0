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

A third shape says where the pipelined commit's gain comes from: with all
24 clients on one shard, a leader that keeps ``PIPELINE_DEPTH`` slots in
flight commits ``PIPELINE_DEPTH / 2`` batches per delay where a
one-slot-at-a-time leader commits one per two delays — while every slot
still decides two delays after it is posted.  The gain shrinks as the
batch cap grows past what the queue can fill, because the leader only
launches early when a full batch is already waiting.
"""

from unittest import mock

import pytest

from repro.shard import (
    ClosedLoopClient,
    ShardConfig,
    ShardedKV,
    YCSB_A,
    ZipfianKeys,
)
from repro.shard import service as shard_service
from repro.shard.service import PIPELINE_DEPTH

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
    # the one-slot-at-a-time leader, for the depth row pair
    with mock.patch.object(shard_service, "PIPELINE_DEPTH", 1):
        for batch_max in BATCH_SIZES:
            grid[("serial", batch_max)] = _run(1, batch_max)
    return grid


def test_sharded_kv_scaling():
    grid = _measure()
    rows = []
    labels = [
        (n, f"{n} shard{'s' if n > 1 else ''}") for n in SHARD_COUNTS
    ] + [
        ("serial", f"1 shard, depth 1 ({N_CLIENTS} clients / shard)"),
        (1, f"1 shard, depth {PIPELINE_DEPTH} ({N_CLIENTS} clients / shard)"),
    ]
    for key, label in labels:
        row = [label]
        for batch_max in BATCH_SIZES:
            report = grid[(key, batch_max)]
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
            "two-delay Protected Memory Paxos instance across many commands.\n"
            "Depth rows: the same shard with one slot in flight vs the\n"
            f"default {PIPELINE_DEPTH}. A slot still takes two delays; the leader posts the\n"
            "next one early whenever a full batch is already waiting, so a\n"
            "backed-up queue commits depth/2 batches per delay."
        ),
    )

    baseline = grid[(1, 1)].commands_per_delay
    serial = grid[("serial", 1)].commands_per_delay
    # the acceptance bar: 4 shards with batching beat the seed-equivalent
    # configuration (one shard, one command per slot, one slot in flight)
    # by at least 4x on the same seed
    assert grid[(4, 8)].commands_per_delay >= 4.0 * serial
    # sharding alone scales: 4 shards / batch 1 at least doubles throughput
    assert grid[(4, 1)].commands_per_delay >= 2.0 * baseline
    # batching alone scales: 1 shard / batch 32 at least doubles throughput
    assert grid[(1, 32)].commands_per_delay >= 2.0 * baseline
    # the seed fast path survives underneath: a slot is two delays, so an
    # unsharded, unbatched leader commits depth/2 commands per delay —
    # one per two delays when it keeps a single slot in flight
    assert 0.35 <= serial <= 0.65
    assert baseline / serial == pytest.approx(PIPELINE_DEPTH, rel=0.15)
    # pipelining never costs throughput, and only launches on full batches:
    # once the cap outgrows the queue the two leaders are the same leader
    for batch_max in BATCH_SIZES:
        piped, one = grid[(1, batch_max)], grid[("serial", batch_max)]
        assert piped.commands_per_delay >= one.commands_per_delay
    assert grid[(1, 32)].commands_per_delay == grid[("serial", 32)].commands_per_delay
