#!/usr/bin/env python3
"""A replicated key-value store on Protected Memory Paxos instances.

Three replicas, three memories.  The leader commits each command with a
single two-delay RDMA write (the paper's Section 5.1 fast path); when the
leader crashes mid-workload, a successor grabs the memories' write
permissions, recovers the committed prefix and continues — no committed
write is ever lost.

Run:  python examples/replicated_kv.py
"""

from repro.consensus.base import ConsensusProtocol
from repro.core.cluster import Cluster, ClusterConfig
from repro.failures.script import FaultScript
from repro.consensus.omega import crash_aware_omega
from repro.smr.kv import KVCommand, KVStateMachine
from repro.smr.log import ReplicatedLog, smr_regions

WORKLOAD = [
    KVCommand("put", "alice", 100),
    KVCommand("put", "bob", 250),
    KVCommand("put", "carol", 75),
    KVCommand("put", "alice", 90),   # alice spends 10
    KVCommand("delete", "carol"),    # carol closes her account
    KVCommand("put", "dave", 500),
    KVCommand("put", "bob", 300),
]


class ReplicatedKV(ConsensusProtocol):
    """Wires one KV state machine + replicated log per replica."""

    name = "replicated-kv"

    def __init__(self, workload):
        self.workload = workload
        self.machines = {}

    def regions(self, n, m):
        return smr_regions(n)

    def tasks(self, env, value):
        machine = KVStateMachine()
        log = ReplicatedLog(env, machine.apply)
        self.machines[int(env.pid)] = machine
        total = len(self.workload)

        def driver():
            slot = 0
            while log.applied_upto < total - 1:
                if env.leader() == env.pid:
                    slot = log.applied_upto + 1
                    command = self.workload[slot]
                    committed = yield from log.propose(slot, command)
                    print(
                        f"  t={env.now:6.1f}  p{int(env.pid)+1} committed "
                        f"slot {slot}: {committed.op} {committed.key}"
                    )
                else:
                    yield env.gate_wait(log.commit_gate, timeout=5.0)
            env.decide(tuple(sorted(machine.snapshot().items())))

        return [("kv-listener", log.listener()), ("kv-driver", driver())]


def main() -> None:
    print("Replicated KV over Protected Memory Paxos (3 replicas, 3 memories)")
    print("Leader p1 will crash at t=9; p2 takes over.\n")

    protocol = ReplicatedKV(WORKLOAD)
    faults = FaultScript().at(9.0).crash_process(0)
    cluster = Cluster(
        protocol,
        ClusterConfig(n_processes=3, n_memories=3, deadline=10_000),
        faults,
    )
    cluster.kernel.omega = crash_aware_omega(cluster.kernel)
    result = cluster.run([None, None, None])

    assert result.agreed, "replicas diverged!"
    survivors = [p for p in (1, 2)]
    final = protocol.machines[1].snapshot()
    print(f"\nFinal store ({len(WORKLOAD)} commands, leader crash survived):")
    for key, value in sorted(final.items()):
        print(f"  {key:8s} = {value}")
    for p in survivors:
        assert protocol.machines[p].snapshot() == final
    print("\nAll surviving replicas converged — committed prefix preserved.")


if __name__ == "__main__":
    main()
