#!/usr/bin/env python3
"""Aligned Paxos: processes and memories as interchangeable agents.

A six-agent deployment (3 processes + 3 memories) keeps committing as long
as any 4 agents survive — the paper's Section 5.2 claim that memories and
processes are *equivalent* for quorum purposes.  We sweep every failure
mix at the tolerance boundary and one step beyond it.

Run:  python examples/mixed_failover.py
"""

from repro import AlignedPaxos, FaultScript
from repro.consensus.omega import crash_aware_omega
from repro.core.cluster import Cluster, ClusterConfig
from repro.metrics.reporting import format_table

N_PROCESSES = 3
N_MEMORIES = 3


def run_mix(proc_crashes, mem_crashes, deadline=8000.0):
    faults = FaultScript()
    for pid in proc_crashes:
        faults.at(1.0).crash_process(pid)
    for mid in mem_crashes:
        faults.at(1.0).crash_memory(mid)
    cluster = Cluster(
        AlignedPaxos(),
        ClusterConfig(N_PROCESSES, N_MEMORIES, deadline=deadline),
        faults,
    )
    cluster.kernel.omega = crash_aware_omega(cluster.kernel)
    return cluster.run([f"config-{p}" for p in range(N_PROCESSES)])


def main() -> None:
    print(
        f"Aligned Paxos over {N_PROCESSES} processes + {N_MEMORIES} memories "
        f"= {N_PROCESSES + N_MEMORIES} agents (tolerates any "
        f"{(N_PROCESSES + N_MEMORIES - 1) // 2} crashes)\n"
    )
    mixes = [
        ([], [], "no failures"),
        ([1], [], "one process"),
        ([], [0], "one memory"),
        ([1], [2], "one of each"),
        ([1, 2], [], "two processes"),
        ([], [0, 1], "two memories"),
        ([0], [2], "leader + memory"),
        ([1], [0, 1], "BEYOND tolerance (3 agents)"),
    ]
    rows = []
    for procs, mems, label in mixes:
        deadline = 800.0 if "BEYOND" in label else 8000.0
        result = run_mix(procs, mems, deadline)
        rows.append(
            [
                label,
                len(procs) + len(mems),
                "yes" if result.all_decided else "no (blocked)",
                "yes" if (result.agreed or not result.decided_values) else "NO",
            ]
        )
    print(format_table(["failure mix", "agents down", "committed", "safe"], rows))
    print(
        "\nAny minority of the combined agent set is survivable; one step"
        "\npast the boundary the system blocks (it never splits)."
    )


if __name__ == "__main__":
    main()
