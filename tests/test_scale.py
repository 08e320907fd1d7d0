"""Scale tests: larger clusters, longer logs, deeper fault mixes."""

import pytest

from repro import (
    AlignedPaxos,
    FastRobust,
    FaultScript,
    MessagePaxos,
    ProtectedMemoryPaxos,
    run_consensus,
)
from repro.consensus.base import ConsensusProtocol
from repro.core.cluster import Cluster, ClusterConfig
from repro.smr.kv import KVCommand, KVStateMachine
from repro.smr.log import ReplicatedLog, smr_regions


class TestWideClusters:
    def test_fast_robust_n9(self):
        result = run_consensus(FastRobust(), 9, 3, deadline=60_000)
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay == 2.0

    def test_pmp_n9_m9(self):
        result = run_consensus(ProtectedMemoryPaxos(), 9, 9, deadline=10_000)
        assert result.all_decided
        assert result.earliest_decision_delay == 2.0

    def test_pmp_eight_crashes_of_nine(self):
        faults = FaultScript()
        for pid in range(8):
            faults.at(0.0).crash_process(pid)
        result = run_consensus(
            ProtectedMemoryPaxos(), 9, 3, faults=faults,
            omega="crash-aware", deadline=10_000,
        )
        assert result.all_decided and result.agreed
        assert result.decided_values == {"value-9"}

    def test_message_paxos_n11(self):
        result = run_consensus(MessagePaxos(), 11, 0, deadline=10_000)
        assert result.all_decided and result.agreed

    def test_aligned_5_plus_5_agents(self):
        # 10 agents; tolerate 4 combined crashes.
        faults = (
            FaultScript()
            .at(0.0).crash_process(3)
            .at(0.0).crash_process(4)
            .at(0.0).crash_memory(0)
            .at(0.0).crash_memory(1)
        )
        result = run_consensus(
            AlignedPaxos(), 5, 5, faults=faults, deadline=20_000
        )
        assert result.all_decided and result.agreed


class _LongLog(ConsensusProtocol):
    name = "long-log"

    def __init__(self, n_slots):
        self.n_slots = n_slots
        self.machines = {}

    def regions(self, n, m):
        return smr_regions(n)

    def tasks(self, env, value):
        machine = KVStateMachine()
        log = ReplicatedLog(env, machine.apply)
        self.machines[int(env.pid)] = machine

        def driver():
            if env.leader() == env.pid:
                for slot in range(self.n_slots):
                    yield from log.propose(
                        slot, KVCommand("put", f"k{slot % 10}", slot)
                    )
            while log.applied_upto < self.n_slots - 1:
                yield env.gate_wait(log.commit_gate, timeout=10.0)
            env.decide(machine.applied_count)

        return [("listener", log.listener()), ("driver", driver())]


class TestLongLogs:
    def test_fifty_slot_log(self):
        harness = _LongLog(50)
        cluster = Cluster(harness, ClusterConfig(3, 3, deadline=10_000))
        result = cluster.run([None] * 3)
        assert result.all_decided and result.agreed
        assert result.decided_values == {50}
        # Steady state: 2 delays per commit for the leader.
        leader_machine = harness.machines[0]
        assert leader_machine.applied_count == 50

    def test_long_log_throughput_is_linear(self):
        harness = _LongLog(30)
        cluster = Cluster(harness, ClusterConfig(3, 3, deadline=10_000))
        cluster.start([None] * 3)
        kernel = cluster.kernel
        kernel.run(
            until=10_000,
            stop_when=lambda: 0 in kernel.metrics.decisions,
        )
        # Leader finishes 30 slots in ~60 delays (2 per slot).
        assert kernel.now <= 70.0
