"""E16 — partition failover: recovery latency under scripted churn.

Two halves, both driven by event-driven FaultScripts:

* **Consensus** — partition the minority away for a sweep of durations,
  heal, and measure how long the minority needs to rejoin (decide) after
  the heal, per protocol.  The rejoin runs through the *memories* (the
  permission-takeover read), so the post-heal latency should be a small,
  duration-independent constant — the paper's point that RDMA permissions
  make the failure landscape's history irrelevant once it heals.
* **Sharded SMR** — crash one shard's leader for a sweep of downtimes
  while the other shards keep serving; measure end-to-end commits/sec and
  the settle latency after the leader returns: time until every request
  (including those stalled against the dead leader) completed and all
  replicas converged again (prepare re-adoption + follower catch-up).

Shapes asserted: rejoin latency ~constant across partition durations;
longer downtime lowers whole-run commits/sec but never loses a request;
the post-return settle latency stays bounded regardless of downtime.

Run ``python benchmarks/bench_partition_failover.py --json out.json`` for
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
    AlignedConfig,
    AlignedPaxos,
    ClosedLoopClient,
    FaultScript,
    ProtectedMemoryPaxos,
    ShardConfig,
    ShardedKV,
)
from repro.core import scenarios

SCHEMA = "repro-bench-partition-failover/1"

_PROTOCOLS = {
    "protected-memory-paxos": lambda: ProtectedMemoryPaxos(),
    "aligned-paxos": lambda: AlignedPaxos(AlignedConfig(variant="protected")),
}


# ----------------------------------------------------------------------
# part A: consensus — partition duration x protocol
# ----------------------------------------------------------------------
def measure_consensus(durations) -> list:
    rows = []
    for name, make in _PROTOCOLS.items():
        for duration in durations:
            partition_at, heal_at = 1.0, 1.0 + duration
            cluster = scenarios.partition_minority(
                make(), partition_at=partition_at, heal_at=heal_at
            )
            result = cluster.run(["a", "b", "c"])
            assert result.all_decided and result.agreed, (name, duration)
            minority_decided = result.metrics.decisions[2].decided_at
            rows.append(
                {
                    "protocol": name,
                    "partition_duration": duration,
                    "healed_at": heal_at,
                    "minority_decided_at": minority_decided,
                    "rejoin_latency": minority_decided - heal_at,
                    "messages_lost": cluster.kernel.network.partition_dropped,
                }
            )
    return rows


# ----------------------------------------------------------------------
# part B: sharded SMR — leader downtime x throughput
# ----------------------------------------------------------------------
class _PoolKeys:
    def __init__(self, keys):
        self._keys = list(keys)

    def next_key(self, rng):
        return self._keys[rng.randrange(len(self._keys))]


def _shard_key_pools(service, per_shard=4):
    pools = {g: [] for g in range(service.config.n_shards)}
    index = 0
    while any(len(pool) < per_shard for pool in pools.values()):
        key = f"k{index}"
        index += 1
        shard = service.partitioner.shard_for(key)
        if len(pools[shard]) < per_shard:
            pools[shard].append(key)
    return pools


def measure_sharded(downtimes, crash_at: float = 40.0) -> list:
    rows = []
    for downtime in downtimes:
        recover_at = crash_at + downtime
        script = FaultScript()
        script.at(crash_at).crash_process(1).recover(at=recover_at)
        service = ShardedKV(
            ShardConfig(
                n_shards=3,
                n_processes=3,
                batch_max=4,
                seed=7,
                retry_timeout=25.0,
                deadline=20_000.0,
                faults=script,
            )
        )
        pools = _shard_key_pools(service)
        clients = [
            ClosedLoopClient(client_id=0, n_ops=25, keys=_PoolKeys(pools[0]),
                             think_time=8.0, pid=0),
            ClosedLoopClient(client_id=1, n_ops=25, keys=_PoolKeys(pools[2]),
                             think_time=8.0, pid=2),
            ClosedLoopClient(client_id=2, n_ops=8, keys=_PoolKeys(pools[1]),
                             think_time=5.0, pid=0),
        ]
        report = service.run_workload(clients)
        assert report.ok, f"requests lost at downtime={downtime}"
        committed = sum(stats.committed_commands for stats in report.shards.values())
        rows.append(
            {
                "leader_downtime": downtime,
                "completed_requests": report.completed_requests,
                "elapsed": report.elapsed,
                "commits_per_ktime": 1000.0 * committed / report.elapsed,
                "settle_latency": max(0.0, service.kernel.now - recover_at),
            }
        )
    return rows


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------
def measure(smoke: bool = False) -> dict:
    durations = [10.0, 30.0] if smoke else [10.0, 30.0, 60.0, 120.0]
    downtimes = [60.0, 210.0] if smoke else [60.0, 120.0, 210.0, 420.0]
    return {
        "schema": SCHEMA,
        "consensus": measure_consensus(durations),
        "sharded": measure_sharded(downtimes),
    }


def check_shapes(report: dict) -> None:
    consensus = report["consensus"]
    # rejoin latency is duration-independent: the takeover read costs the
    # same whether the partition lasted 10 units or 120
    for name in _PROTOCOLS:
        latencies = [
            row["rejoin_latency"]
            for row in consensus
            if row["protocol"] == name
        ]
        assert max(latencies) - min(latencies) <= 2.0, (name, latencies)
        assert max(latencies) < 60.0, (name, latencies)
    sharded = report["sharded"]
    # longer downtime -> lower whole-run throughput, nothing lost
    rates = [row["commits_per_ktime"] for row in sharded]
    assert rates == sorted(rates, reverse=True), rates
    # settle latency is bounded by the retry interval + catch-up tail (plus
    # any healthy-shard traffic still draining), never by the downtime
    for row in sharded:
        assert row["settle_latency"] < 200.0, row


def render(report: dict) -> str:
    from repro.metrics.reporting import format_table as table

    lines = [
        table(
            ["protocol", "partition", "rejoin latency", "msgs lost"],
            [
                [
                    row["protocol"],
                    f"{row['partition_duration']:g}",
                    f"{row['rejoin_latency']:g}",
                    row["messages_lost"],
                ]
                for row in report["consensus"]
            ],
        ),
        "",
        table(
            ["leader downtime", "completed", "elapsed", "commits/ktime", "settle latency"],
            [
                [
                    f"{row['leader_downtime']:g}",
                    row["completed_requests"],
                    f"{row['elapsed']:g}",
                    f"{row['commits_per_ktime']:.1f}",
                    f"{row['settle_latency']:g}",
                ]
                for row in report["sharded"]
            ],
        ),
    ]
    return "\n".join(lines)


def test_partition_failover():
    from benchmarks._common import emit

    report = measure()
    check_shapes(report)
    emit(
        "E16",
        "Partition failover: recovery latency and throughput under churn",
        render(report),
        notes="Rejoin latency is heal-relative and duration-independent: the "
        "minority recovers through the memories (permission-takeover read), "
        "so the churn's history does not matter once it ends.",
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
