"""E17 — elasticity: live splits/merges under load, cutover cost, fencing.

Two halves, both under continuous closed-loop load:

* **Split grid** — start at 2 shards, commit a live split (2 -> 3, and
  3 -> 4 off the smoke path).  For each epoch: keys migrated, the
  commit-to-activation window (how long the dual-ownership dance takes),
  and throughput/p99 measured separately before and after the cutover.
* **Merge** — retire one of three shards under load.  The victim's log
  region is permission-fenced to the tombstone at the memories; the
  report carries the fence ACK count and proves the deposed leader NAKs.

Shapes asserted: no request is ever lost across any cutover; a split
moves a bounded fraction of the keyspace (the consistent-hashing
~1/(n+1) promise, with vnode slack); the activation window is bounded
and migration-sized, not workload-sized; the retired region refuses its
old-epoch leader's writes at every memory.

Run ``python benchmarks/bench_elasticity.py --json out.json`` for
machine-readable output (``--smoke`` shrinks the grid for CI).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

if __name__ == "__main__":  # standalone: make src/ importable
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import (
    ClosedLoopClient,
    ElasticConfig,
    ElasticKV,
    MergeShard,
    ScriptedClient,
    SplitShard,
    ZipfianKeys,
)
from repro.mem.operations import WriteOp
from repro.shard.service import shard_region
from repro.types import OpStatus, ProcessId

SCHEMA = "repro-bench-elasticity/1"


def _phase_stats(ledger, boundary: float, start: float, end: float):
    """(rate, p99) of completed requests before vs after *boundary*."""
    from repro.metrics.workload import percentile

    before, after = [], []
    for samples in ledger.shard_latencies.values():
        for t, latency in samples:
            (before if t <= boundary else after).append(latency)
    span_before = max(1e-9, boundary - start)
    span_after = max(1e-9, end - boundary)
    return {
        "before": {
            "requests": len(before),
            "rate_per_ktime": 1000.0 * len(before) / span_before,
            "p99": percentile(before, 0.99) if before else 0.0,
        },
        "after": {
            "requests": len(after),
            "rate_per_ktime": 1000.0 * len(after) / span_after,
            "p99": percentile(after, 0.99) if after else 0.0,
        },
    }


def _workload(n_clients: int, n_ops: int, think: float = 4.0):
    return [
        ClosedLoopClient(
            client_id=10 + i,
            n_ops=n_ops,
            keys=ZipfianKeys(120, prefix="zk"),
            think_time=think,
        )
        for i in range(n_clients)
    ]


def _seeders(n_keys: int):
    scripts = [[] for _ in range(3)]
    for i in range(n_keys):
        scripts[i % 3].append(("put", f"zk{i}", f"seed-{i}"))
    return [
        ScriptedClient(client_id=100 + w, script=scripts[w]) for w in range(3)
    ]


# ----------------------------------------------------------------------
# part A: live splits
# ----------------------------------------------------------------------
def measure_splits(split_times) -> dict:
    service = ElasticKV(
        ElasticConfig(
            n_shards=2, n_processes=3, batch_max=4, seed=17,
            retry_timeout=25.0, deadline=120_000.0,
        )
    )
    for at in split_times:
        service.schedule_reconfig(at, SplitShard())
    started = service.kernel.now
    report = service.run_workload(_seeders(120) + _workload(4, 80))
    assert report.ok, f"requests lost across the split: {report.summary()}"
    ledger = service.kernel.metrics
    activations = ledger.reconfigs_of("activate")
    commits = ledger.reconfigs_of("cfg_commit")
    assert len(activations) == len(split_times)
    epochs = []
    moved_by_epoch = service.moved_by_epoch()
    for commit, activation in zip(commits, activations):
        number = int(activation.subject[1:])
        epochs.append(
            {
                "epoch": number,
                "shards_after": activation.detail["shards"],
                "moved_keys": moved_by_epoch.get(number, 0),
                "committed_at": commit.time,
                "activated_at": activation.time,
                "cutover_window": activation.time - commit.time,
            }
        )
    phases = _phase_stats(
        ledger, activations[0].time, started, service.kernel.now
    )
    # keyspace movement: the sampled fraction of the seeded universe that
    # changed owner between ring 0 and ring 1
    moved_fraction = sum(
        1
        for i in range(120)
        if service.partitioner.shard_for(f"zk{i}", version=0)
        != service.partitioner.shard_for(f"zk{i}", version=1)
    ) / 120.0
    return {
        "completed_requests": report.completed_requests,
        "elapsed": report.elapsed,
        "epochs": epochs,
        "first_split": phases,
        "moved_fraction_2_to_3": moved_fraction,
        "violations": len(ledger.violations),
    }


# ----------------------------------------------------------------------
# part B: live merge + tombstone fencing
# ----------------------------------------------------------------------
def measure_merge(merge_at: float = 220.0) -> dict:
    service = ElasticKV(
        ElasticConfig(
            n_shards=3, n_processes=3, batch_max=4, seed=19,
            retry_timeout=25.0, deadline=120_000.0,
        )
    )
    victim = 2
    old_leader = service.leader_of(victim)
    service.schedule_reconfig(merge_at, MergeShard(victim))
    report = service.run_workload(_seeders(90) + _workload(3, 60))
    assert report.ok, f"requests lost across the merge: {report.summary()}"
    ledger = service.kernel.metrics
    fences = [
        record
        for record in ledger.reconfigs_of("fence")
        if record.subject == shard_region(victim)
    ]
    naks = 0
    for memory in service.kernel.memories:
        result = memory.apply(
            ProcessId(old_leader),
            WriteOp(shard_region(victim), (shard_region(victim), 9_999, old_leader), "x"),
        )
        naks += result.status == OpStatus.NAK
    return {
        "completed_requests": report.completed_requests,
        "elapsed": report.elapsed,
        "moved_keys": sum(service.moved_by_epoch().values()),
        "fence_acks": fences[0].detail["acked"] if fences else 0,
        "old_leader_write_naks": naks,
        "n_memories": len(service.kernel.memories),
        "shards_after": list(service.shards),
        "violations": len(ledger.violations),
    }


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------
def measure(smoke: bool = False) -> dict:
    split_times = [260.0] if smoke else [260.0, 560.0]
    return {
        "schema": SCHEMA,
        "splits": measure_splits(split_times),
        "merge": measure_merge(),
    }


def check_shapes(report: dict) -> None:
    splits = report["splits"]
    assert splits["violations"] == 0
    # consistent hashing: 2 -> 3 moves roughly a third of the keyspace,
    # never more than the vnode-variance envelope
    assert 0.12 <= splits["moved_fraction_2_to_3"] <= 0.60, splits
    for epoch in splits["epochs"]:
        assert epoch["moved_keys"] > 0, epoch
        # the cutover window is migration-sized (hundreds of delays at
        # most for ~dozens of keys), never workload-sized
        assert epoch["cutover_window"] < 500.0, epoch
    after = splits["first_split"]["after"]
    before = splits["first_split"]["before"]
    assert before["requests"] > 0 and after["requests"] > 0
    merge = report["merge"]
    assert merge["violations"] == 0
    assert merge["shards_after"] == [0, 1]
    assert merge["moved_keys"] > 0
    # the fence is total: every memory NAKs the deposed leader
    assert merge["old_leader_write_naks"] == merge["n_memories"]


def render(report: dict) -> str:
    from repro.metrics.reporting import format_table as table

    splits = report["splits"]
    lines = [
        table(
            ["epoch", "shards after", "moved keys", "cutover window"],
            [
                [
                    f"e{row['epoch']}",
                    "-".join(str(s) for s in row["shards_after"]),
                    row["moved_keys"],
                    f"{row['cutover_window']:g}",
                ]
                for row in splits["epochs"]
            ],
        ),
        "",
        table(
            ["phase", "requests", "rate/ktime", "p99"],
            [
                [
                    phase,
                    stats["requests"],
                    f"{stats['rate_per_ktime']:.1f}",
                    f"{stats['p99']:g}",
                ]
                for phase, stats in report["splits"]["first_split"].items()
            ],
        ),
        "",
        table(
            ["merge metric", "value"],
            [
                ["moved keys", report["merge"]["moved_keys"]],
                ["fence acks", report["merge"]["fence_acks"]],
                [
                    "old-leader write NAKs",
                    f"{report['merge']['old_leader_write_naks']}"
                    f"/{report['merge']['n_memories']}",
                ],
            ],
        ),
    ]
    return "\n".join(lines)


def test_elasticity():
    from benchmarks._common import emit

    report = measure()
    check_shapes(report)
    emit(
        "E17",
        "Elasticity: live shard splits/merges with permission-fenced cutover",
        render(report),
        notes="The cutover window is the dual-ownership dance (bulk stream, "
        "seal, barrier, delta, activate); requests in flight across it are "
        "carried by resend + dedup.  The merge's tombstone fence is checked "
        "directly: the deposed leader's writes NAK at every memory.",
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI grid")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="write the machine-readable report here")
    args = parser.parse_args()
    report = measure(smoke=args.smoke)
    check_shapes(report)
    print(render(report))
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
