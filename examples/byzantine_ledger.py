#!/usr/bin/env python3
"""A Byzantine-tolerant ordering service with n = 2f+1 replicas.

Three replicas agree on the next ledger batch using Fast & Robust
(Theorem 4.9).  Scenario 1 is the common case: the leader's batch commits
after a single two-delay RDMA write with one signature.  In scenario 2 the
leader is *Byzantine* — it writes different signed batches to different
memory replicas trying to split the honest replicas — and the composition
falls back to Preferential Paxos over Robust Backup, which commits a single
batch anyway.

Note the resilience: with message passing alone, Byzantine agreement needs
n >= 3f+1 = 4 replicas; RDMA's protected memory does it with 3.

Run:  python examples/byzantine_ledger.py
"""

from repro import (
    CheapQuorumEquivocatorLeader,
    FastRobust,
    FastRobustConfig,
    FaultScript,
    run_consensus,
)
from repro.consensus.cheap_quorum import CheapQuorumConfig

BATCH_P1 = ("tx: alice->bob 10", "tx: carol->dave 5")
BATCH_P2 = ("tx: bob->carol 7",)
BATCH_P3 = ("tx: dave->alice 3",)


def common_case() -> None:
    print("Scenario 1: honest leader, synchronous network")
    result = run_consensus(
        FastRobust(),
        n_processes=3,
        n_memories=3,
        inputs=[BATCH_P1, BATCH_P2, BATCH_P3],
        deadline=20_000,
    )
    assert result.agreed and result.valid
    (batch,) = result.decided_values
    print(f"  committed batch : {batch}")
    print(f"  decision delays : {result.earliest_decision_delay:g} "
          "(one RDMA write)")
    print(f"  all replicas    : {'decided' if result.all_decided else 'stuck'}\n")


def byzantine_leader() -> None:
    print("Scenario 2: Byzantine leader equivocates across memory replicas")
    faults = FaultScript().make_byzantine(
        0, CheapQuorumEquivocatorLeader(value_a=("forged-A",), value_b=("forged-B",))
    )
    config = FastRobustConfig(
        cheap_quorum=CheapQuorumConfig(leader_timeout=15.0, unanimity_timeout=25.0)
    )
    result = run_consensus(
        FastRobust(config),
        n_processes=3,
        n_memories=3,
        inputs=[BATCH_P1, BATCH_P2, BATCH_P3],
        faults=faults,
        omega=lambda now: 1,  # an honest replica leads the backup path
        deadline=30_000,
    )
    assert result.agreed, "honest replicas diverged!"
    (batch,) = result.decided_values
    print(f"  committed batch : {batch}")
    print("  honest replicas panicked, revoked the leader's write permission,")
    print("  and agreed via Preferential Paxos — no split, no forged commit.")
    assert result.all_decided


def main() -> None:
    print("Byzantine ledger: n = 3 = 2f+1 replicas, f = 1\n")
    common_case()
    byzantine_leader()


if __name__ == "__main__":
    main()
