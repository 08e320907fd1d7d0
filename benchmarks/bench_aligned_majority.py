"""E5 — Section 5.2: Aligned Paxos survives any combined-agent minority.

Sweeps every (process crashes, memory crashes) split for n=3, m=3 — six
agents, tolerance = 2 — and checks the boundary is exactly the combined
majority, regardless of how the crashes divide between agent kinds.
"""

import pytest

from repro import AlignedPaxos, FaultScript
from repro.consensus.omega import crash_aware_omega
from repro.core.cluster import Cluster, ClusterConfig

from benchmarks._common import emit, table

N, M = 3, 3


def _run(fp, fm, deadline):
    faults = FaultScript()
    for pid in range(fp):
        # Crash from the tail so the initial leader survives where possible.
        faults.at(1.0).crash_process(N - 1 - pid)
    for mid in range(fm):
        faults.at(1.0).crash_memory(mid)
    cluster = Cluster(
        AlignedPaxos(), ClusterConfig(N, M, deadline=deadline), faults
    )
    cluster.kernel.omega = crash_aware_omega(cluster.kernel)
    return cluster.run([f"v{p}" for p in range(N)])


def _measure():
    tolerance = (N + M - 1) // 2
    rows = []
    for fp in range(0, N):
        for fm in range(0, M + 1):
            total = fp + fm
            if total > tolerance + 1:
                continue  # deep beyond the bound: same blocked outcome
            within = total <= tolerance
            result = _run(fp, fm, deadline=12_000 if within else 700)
            rows.append(
                [
                    fp,
                    fm,
                    total,
                    "yes" if within else "no",
                    "decided" if result.all_decided else "blocked",
                    "yes" if not result.metrics.violations else "NO",
                ]
            )
            if within:
                assert result.all_decided and result.agreed, (fp, fm)
            else:
                assert not result.all_decided and not result.metrics.violations
    return rows


def test_aligned_combined_majority():
    rows = _measure()
    emit(
        "E5",
        f"Aligned Paxos over {N}+{M} agents: combined-minority sweep",
        table(
            ["proc crashes", "mem crashes", "total", "within bound", "outcome",
             "safe"],
            rows,
        ),
        notes=(
            "Shape: the decided/blocked boundary tracks total agents lost,\n"
            "not which kind — processes and memories are interchangeable\n"
            "(the paper's Section 5.2 equivalence)."
        ),
    )
