"""E12 (extension) — decision-delay distributions under network jitter.

The paper's delay counts hold on the nominal schedule; real deployments
jitter.  This bench sweeps 30 seeds of 30%-jittered synchrony and reports
the decision-delay distribution per algorithm: the *ordering* of the
nominal table (PMP = Fast&Robust fast path < Disk Paxos = Message Paxos)
must survive jitter, with the fast-path algorithms staying strictly below
the confirming-read algorithms at every percentile.
"""

import pytest

from repro import (
    DiskPaxos,
    FastPaxos,
    FastRobust,
    MessagePaxos,
    ProtectedMemoryPaxos,
)
from repro.core.cluster import run_consensus
from repro.metrics.workload import LatencySummary
from repro.sim.latency import JitteredSynchrony

from benchmarks._common import emit, table

SEEDS = range(30)
JITTER = 0.3


def sweep_decision_delays(
    protocol_factory,
    seeds,
    latency_factory=None,
    n_processes=3,
    n_memories=3,
    deadline=30_000.0,
):
    """Earliest-decision delay of one run per seed.  Returns ``(samples,
    undecided)`` — a run that never decides carries no delay sample — and
    raises ``ValueError`` when no run decided at all."""
    samples = []
    undecided = 0
    for seed in seeds:
        result = run_consensus(
            protocol_factory(),
            n_processes,
            n_memories,
            latency=latency_factory() if latency_factory else None,
            seed=seed,
            deadline=deadline,
        )
        delay = result.earliest_decision_delay
        if delay is None:
            undecided += 1
        else:
            samples.append(delay)
    if not samples:
        raise ValueError("no run decided: nothing to summarize")
    return samples, undecided


def _measure():
    cases = [
        ("Protected Memory Paxos", ProtectedMemoryPaxos, 3),
        ("Fast & Robust", FastRobust, 3),
        ("Fast Paxos", FastPaxos, 0),
        ("Disk Paxos", DiskPaxos, 3),
        ("Message Paxos", MessagePaxos, 0),
    ]
    return {
        name: sweep_decision_delays(
            factory,
            seeds=SEEDS,
            latency_factory=lambda: JitteredSynchrony(JITTER),
            n_memories=memories,
        )
        for name, factory, memories in cases
    }


def test_latency_distributions():
    sweeps = _measure()
    stats = {name: LatencySummary.of(samples) for name, (samples, _) in sweeps.items()}
    rows = [
        [name, s.count]
        + [f"{x:.2f}" for x in (s.mean, s.p50, s.p95, s.p99, min(sweeps[name][0]), s.max)]
        for name, s in stats.items()
    ]
    emit(
        "E12",
        f"Decision-delay distributions, {len(list(SEEDS))} seeds, "
        f"{int(JITTER * 100)}% jitter",
        table(
            ["algorithm", "runs", "mean", "p50", "p95", "p99", "min", "max"],
            rows,
        ),
        notes=(
            "Shape: the fast-path algorithms' p99 stays below the\n"
            "confirming-read algorithms' p50 — the two-delay structure is a\n"
            "property of the protocol, not of lucky timing.  Note Fast\n"
            "Paxos: jitter lets concurrent proposers collide, its unanimous\n"
            "fast quorum misses, and recovery dominates — the permission\n"
            "write (PMP/F&R) keeps its fast path because contention is\n"
            "resolved at the memory, not by luck of arrival order."
        ),
    )
    fast = max(stats["Protected Memory Paxos"].p99, stats["Fast & Robust"].p99)
    slow = min(stats["Disk Paxos"].p50, stats["Message Paxos"].p50)
    assert fast < slow
    assert sweeps["Protected Memory Paxos"][1] == 0  # undecided runs
    assert sweeps["Fast & Robust"][1] == 0
