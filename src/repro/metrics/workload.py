"""Per-shard workload accounting: throughput, latency, batch occupancy.

The sharded service records one sample per completed client request
(which shard served it, how many virtual delays the round trip took) and
one record per committed batch.  This module aggregates those raw samples
into the per-shard and whole-service numbers the benchmarks and the
acceptance tests read: committed commands per simulated delay, latency
percentiles, mean batch fill.

Percentiles here are nearest-rank and dependency-free on purpose: the
package has no third-party runtime dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.metrics.reporting import format_table


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *samples* (which must be non-empty)."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass(frozen=True)
class LatencySummary:
    """Five-number summary of a latency sample set (in simulated delays)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @staticmethod
    def of(samples: Sequence[float]) -> "LatencySummary":
        if not samples:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return LatencySummary(
            count=len(samples),
            mean=sum(samples) / len(samples),
            p50=percentile(samples, 0.50),
            p95=percentile(samples, 0.95),
            p99=percentile(samples, 0.99),
            max=max(samples),
        )


@dataclass
class ShardStats:
    """Raw per-shard accumulators, filled in by the service as it runs."""

    shard: int
    committed_commands: int = 0
    committed_batches: int = 0
    duplicates: int = 0
    latencies: List[float] = field(default_factory=list)
    #: ACHIEVED operation mix — counted per completion, not per request
    #: issued, so a benchmark whose reads stall (and silently retry into a
    #: different mix than requested) cannot misreport itself
    reads: int = 0
    writes: int = 0
    read_latencies: List[float] = field(default_factory=list)

    @property
    def mean_batch_fill(self) -> float:
        if self.committed_batches == 0:
            return 0.0
        return self.committed_commands / self.committed_batches

    @property
    def achieved_read_fraction(self) -> float:
        """Reads / completions actually served by this shard."""
        completed = self.reads + self.writes
        return self.reads / completed if completed else 0.0

    def latency_summary(self) -> LatencySummary:
        return LatencySummary.of(self.latencies)

    def read_latency_summary(self) -> LatencySummary:
        return LatencySummary.of(self.read_latencies)


@dataclass
class WorkloadReport:
    """Aggregated outcome of one workload run over a sharded service."""

    shards: Dict[int, ShardStats]
    completed_requests: int
    elapsed: float  # virtual delays from first submit to last apply
    #: how many requests the workload submitted in total; a report with
    #: ``completed_requests < expected_requests`` hit the deadline with
    #: work outstanding
    expected_requests: int = 0

    @property
    def ok(self) -> bool:
        """True when every submitted request completed before the deadline."""
        return self.completed_requests >= self.expected_requests

    @property
    def committed_commands(self) -> int:
        return sum(s.committed_commands for s in self.shards.values())

    @property
    def committed_batches(self) -> int:
        return sum(s.committed_batches for s in self.shards.values())

    @property
    def commands_per_delay(self) -> float:
        """The headline throughput metric: committed commands per unit of
        simulated time (network delay)."""
        if self.elapsed <= 0:
            return 0.0
        return self.committed_commands / self.elapsed

    @property
    def mean_batch_fill(self) -> float:
        if self.committed_batches == 0:
            return 0.0
        return self.committed_commands / self.committed_batches

    @property
    def completed_reads(self) -> int:
        return sum(s.reads for s in self.shards.values())

    @property
    def completed_writes(self) -> int:
        return sum(s.writes for s in self.shards.values())

    @property
    def achieved_read_fraction(self) -> float:
        """Reads / completions the service actually served (whole run)."""
        completed = self.completed_reads + self.completed_writes
        return self.completed_reads / completed if completed else 0.0

    @property
    def reads_per_delay(self) -> float:
        """Read throughput in completed gets per unit of simulated time."""
        if self.elapsed <= 0:
            return 0.0
        return self.completed_reads / self.elapsed

    def latency_summary(self) -> LatencySummary:
        merged: List[float] = []
        for stats in self.shards.values():
            merged.extend(stats.latencies)
        return LatencySummary.of(merged)

    def read_latency_summary(self) -> LatencySummary:
        merged: List[float] = []
        for stats in self.shards.values():
            merged.extend(stats.read_latencies)
        return LatencySummary.of(merged)

    def per_shard_table(self) -> str:
        """Render the per-shard breakdown as a monospace table."""
        rows = []
        for shard in sorted(self.shards):
            stats = self.shards[shard]
            latency = stats.latency_summary()
            rows.append(
                [
                    f"g{shard}",
                    stats.committed_commands,
                    stats.committed_batches,
                    f"{stats.mean_batch_fill:.1f}",
                    stats.reads,
                    f"{stats.achieved_read_fraction:.2f}",
                    f"{latency.mean:.1f}",
                    f"{latency.p99:.1f}",
                ]
            )
        return format_table(
            ["shard", "commands", "batches", "fill", "reads", "rmix",
             "mean lat", "p99 lat"],
            rows,
        )

    def summary(self) -> str:
        latency = self.latency_summary()
        shortfall = (
            ""
            if self.ok
            else f" [INCOMPLETE: {self.expected_requests - self.completed_requests}"
            f" of {self.expected_requests} requests never completed]"
        )
        return (
            f"{self.completed_requests} requests in {self.elapsed:g} delays{shortfall} "
            f"({self.commands_per_delay:.2f} commands/delay, "
            f"batch fill {self.mean_batch_fill:.1f}, "
            f"latency mean {latency.mean:.1f} p99 {latency.p99:.1f})"
        )
