#!/usr/bin/env python3
"""Causal what-if profiling, differential tracing, and the SLO plane.

Part 1 asks the question a wall-clock profiler cannot answer: *which
component, if faster, would actually move end-to-end latency?*  The
:class:`~repro.obs.whatif.WhatIfProfiler` replays a classic (unbatched,
skip-off) Protected Memory Paxos decision under virtual speedups —
memories, links, per-WR issue cost, or a whole named phase — on the
identical seed and schedule, and ranks experiments by measured impact.
The headline: the top-ranked bottleneck is the prepare-phase fan-out,
and removing two-thirds of it reproduces the exact 8 -> 4 delay win
that doorbell batching (PR 8) delivered for real.  Every replay is
hash-checked, so a counterfactual that silently changed the schedule
would fail loudly instead of lying.

Part 2 diffs two *real* runs — classic vs. doorbell-batched — aligning
their span trees by causal identity and attributing the latency delta
segment by segment: individual WriteOps disappear, fused BatchOps
appear, and the prepare phase shrinks by exactly 4 delays.

Part 3 arms the SLO plane on a sharded KV service and crashes the
leader mid-workload: burn-rate objectives over virtual-time windows
breach deterministically, land in the metrics ledger, and surface in
the run report.

Run:  python examples/whatif_tour.py
      python examples/whatif_tour.py --slo-report slo.json --diff-report diff.json
"""

import argparse
import json

from repro import (
    ClosedLoopClient,
    FaultScript,
    OperationMix,
    ProtectedMemoryPaxos,
    ShardConfig,
    ShardedKV,
    UniformKeys,
)
from repro.consensus.protected_memory_paxos import PmpConfig
from repro.core.cluster import Cluster, ClusterConfig
from repro.metrics.reporting import run_report
from repro.obs import (
    Objective,
    WhatIfProfiler,
    attach,
    critical_delta,
    critical_path,
    diff_runs,
    format_critical_delta,
    issue_experiment,
    link_experiment,
    memory_experiment,
    phase_experiment,
)


def banner(title: str) -> None:
    print()
    print("=" * 66)
    print(title)
    print("=" * 66)


# ----------------------------------------------------------------------
# part 1: rank the bottlenecks of a classic PMP decision
# ----------------------------------------------------------------------
def classic_pmp(latency):
    """Skip-off PMP under segmented chain delivery (one round trip per
    operation): the paper's full two-phase slow path."""
    cluster = Cluster(
        ProtectedMemoryPaxos(PmpConfig(skip_first_attempt=False)),
        ClusterConfig(3, 3, latency=latency),
    )
    cluster.kernel.config.chain_delivery = "segmented"
    attach(cluster.kernel)
    return cluster.run(["a", "b", "c"])


def part_whatif() -> dict:
    banner("Part 1 — causal what-if profiling (classic PMP, 8 delays)")
    profiler = WhatIfProfiler(classic_pmp, check_determinism=True)
    experiments = [
        phase_experiment("log.prepare", 1 / 3, name="prepare fan-out"),
        phase_experiment("log.phase2", 0.5, name="phase-2 write"),
        link_experiment(0.5, name="all links"),
        memory_experiment(None, 0.5, name="all memories"),
        issue_experiment(0.5, name="issue cost"),
    ]
    report = profiler.rank(experiments, k=3)
    print(report.summary())
    print()
    baseline = report.baseline.measurement
    print("critical-path recomposition of the baseline:")
    for phase, parts in sorted(baseline.phase_delays.items()):
        print(f"  {phase}: {parts}")
    top = report.top
    print()
    print(
        f"top bottleneck: {top.experiment.name} "
        f"({top.before:g} -> {top.after:g} delays, {top.speedup:.2f}x)"
    )
    print("  -> the counterfactual predicts the doorbell-batching win of PR 8")
    return {
        "baseline_delays": baseline.earliest_delay,
        "ranked": [
            {
                "rank": r.rank,
                "experiment": r.experiment.name,
                "before": r.before,
                "after": r.after,
            }
            for r in report.ranked
        ],
    }


# ----------------------------------------------------------------------
# part 2: differential tracing, classic vs. doorbell-batched
# ----------------------------------------------------------------------
def pmp_run(chain_delivery: str):
    cluster = Cluster(
        ProtectedMemoryPaxos(PmpConfig(skip_first_attempt=False)),
        ClusterConfig(3, 3),
    )
    cluster.kernel.config.chain_delivery = chain_delivery
    runtime = attach(cluster.kernel)
    cluster.run(["a", "b", "c"])
    return cluster, runtime


def part_diff() -> dict:
    banner("Part 2 — differential tracing (classic vs. doorbell-batched)")
    _, classic = pmp_run("segmented")
    _, batched = pmp_run("fused")
    diff = diff_runs(classic, batched)
    print(diff.summary(limit=10))
    print()
    delta = critical_delta(critical_path(classic, 0), critical_path(batched, 0))
    print("critical-path delta (batched minus classic):")
    print(format_critical_delta(delta))
    return {
        "total_delta": diff.total_delta,
        "matched": len(diff.matched),
        "only_classic": len(diff.only_a),
        "only_batched": len(diff.only_b),
        "critical_delta": delta,
    }


# ----------------------------------------------------------------------
# part 3: the SLO plane under chaos
# ----------------------------------------------------------------------
def part_slo() -> dict:
    banner("Part 3 — SLO plane: burn-rate breaches under a leader crash")
    script = FaultScript()
    script.at(60.0).crash_process(0).recover(at=160.0)
    service = ShardedKV(
        ShardConfig(
            n_shards=2,
            n_processes=3,
            n_memories=3,
            seed=7,
            faults=script,
            # NB: the slo tuple below keeps evaluation on virtual time,
            # so this whole part's stdout is deterministic (the runtime
            # is attached with profile=False for the same reason).  A 3 %
            # error budget confirms once 6 % of a window's completions
            # are slow: the outage leaves one slow completion per
            # surviving client, so a looser target breaches by luck.
            slo=(
                Objective(
                    "commit-latency",
                    latency_budget=40.0,
                    target=0.97,
                    window=50.0,
                    long_window=150.0,
                    burn_threshold=2.0,
                ),
            ),
        )
    )
    runtime = attach(service.kernel, profile=False)
    clients = [
        ClosedLoopClient(
            client_id=i,
            n_ops=30,
            keys=UniformKeys(40),
            mix=OperationMix(read_fraction=0.3),
        )
        for i in range(6)
    ]
    report = service.run_workload(clients, deadline=2000.0)
    print(run_report(report, service.kernel.metrics, runtime, title="slo chaos tour"))
    return {
        "objectives": runtime.slo.snapshot()["objectives"],
        "timeline": [
            {"time": r.time, "kind": r.kind, "subject": r.subject}
            for r in service.kernel.metrics.slo_timeline
        ],
        "total_breaches": runtime.slo.total_breaches(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slo-report", help="write the SLO summary JSON here")
    parser.add_argument("--diff-report", help="write the trace-diff JSON here")
    args = parser.parse_args()

    whatif = part_whatif()
    diff = part_diff()
    slo = part_slo()

    if args.diff_report:
        with open(args.diff_report, "w", encoding="utf-8") as fh:
            json.dump({"whatif": whatif, "diff": diff}, fh, indent=2)
        print(f"\nwrote {args.diff_report}")
    if args.slo_report:
        with open(args.slo_report, "w", encoding="utf-8") as fh:
            json.dump(slo, fh, indent=2)
        print(f"wrote {args.slo_report}")


if __name__ == "__main__":
    main()
