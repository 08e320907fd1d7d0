#!/usr/bin/env python3
"""Multi-shot Byzantine replication: a 3-replica ordered ledger, f = 1.

Chains Fast & Robust instances into a replicated log — the design the
paper's systems descendants (Mu, uBFT) built on real RDMA.  Every slot is
one weak-Byzantine-agreement instance in its own register namespace; the
leader commits each slot on the two-delay fast path, and a silent Byzantine
replica (scenario 2) changes nothing for the honest majority.

Run:  python examples/byzantine_smr.py
"""

from repro import FaultScript, SilentByzantine
from repro.core.cluster import Cluster, ClusterConfig
from repro.smr.byzantine_log import ByzantineLogConfig, ByzantineReplicatedLog

LEDGER_BATCHES = {
    0: [  # the leader's queued batches
        ("batch", 1, ("alice->bob 10", "carol->dave 5")),
        ("batch", 2, ("bob->carol 7",)),
        ("batch", 3, ("dave->alice 3",)),
    ],
}


def run(faults=None, n_slots=3, label=""):
    protocol = ByzantineReplicatedLog(
        LEDGER_BATCHES, ByzantineLogConfig(n_slots=n_slots)
    )
    cluster = Cluster(
        protocol, ClusterConfig(3, 3, deadline=120_000), faults
    )
    result = cluster.run([None] * 3)
    assert result.agreed, f"{label}: replicas diverged!"
    (log,) = result.decided_values
    slot0 = result.metrics.instance_decisions[0][0]
    print(f"{label}")
    print(f"  slot-0 committed by leader at t = {slot0.decided_at:g} "
          "(two-delay fast path)")
    for slot, entry in enumerate(log):
        print(f"  slot {slot}: {entry}")
    print(f"  replicas done at t = {result.final_time:g}, logs identical\n")


def main() -> None:
    print("Byzantine replicated ledger: n = 3 = 2f+1 replicas, 3 memories\n")
    run(label="Scenario 1: all replicas honest")
    faults = FaultScript().make_byzantine(2, SilentByzantine())
    run(faults=faults, n_slots=2,
        label="Scenario 2: replica p3 is Byzantine (silent)")
    print("Message-passing BFT needs 3f+1 = 4 replicas for the same f;")
    print("RDMA's protected memory orders the ledger with 3.")


if __name__ == "__main__":
    main()
