"""E10 — systems framing: replicated-log throughput per delay budget.

The intro's motivation is replication systems (DARE, APUS).  This bench
drives the SMR layer over Protected Memory Paxos and compares committed
commands per unit of virtual time against a Disk-Paxos-per-slot strawman:
the two-delay fast path doubles steady-state throughput, exactly the
write-vs-write+read ratio of the two protocols.
"""

import pytest

from repro import DiskPaxos, run_consensus
from repro.consensus.base import ConsensusProtocol
from repro.core.cluster import Cluster, ClusterConfig
from repro.smr.kv import KVCommand, KVStateMachine
from repro.smr.log import ReplicatedLog, smr_regions

from benchmarks._common import emit, table

N_COMMANDS = 20


class _PmpLogHarness(ConsensusProtocol):
    name = "pmp-log"

    def __init__(self, n_commands):
        self.n_commands = n_commands
        self.leader_done_at = None

    def regions(self, n, m):
        return smr_regions(n)

    def tasks(self, env, value):
        machine = KVStateMachine()
        log = ReplicatedLog(env, machine.apply)

        def driver():
            if env.leader() == env.pid:
                for slot in range(self.n_commands):
                    yield from log.propose(slot, KVCommand("put", f"k{slot}", slot))
                self.leader_done_at = env.now
            while log.applied_upto < self.n_commands - 1:
                yield env.gate_wait(log.commit_gate, timeout=5.0)
            env.decide(machine.applied_count)

        return [("listener", log.listener()), ("driver", driver())]


def _pmp_log_throughput():
    harness = _PmpLogHarness(N_COMMANDS)
    cluster = Cluster(harness, ClusterConfig(3, 3, deadline=10_000))
    result = cluster.run([None] * 3)
    assert result.all_decided and result.agreed
    return harness.leader_done_at / N_COMMANDS


def _disk_paxos_per_slot_latency():
    # One fresh Disk Paxos instance per command, sequentially: the per-slot
    # commit latency of a disk-backed log without permissions.
    result = run_consensus(DiskPaxos(), 3, 3, deadline=10_000)
    assert result.agreed
    return result.earliest_decision_delay


def _measure():
    pmp_per_commit = _pmp_log_throughput()
    disk_per_commit = _disk_paxos_per_slot_latency()
    return pmp_per_commit, disk_per_commit


def test_smr_throughput():
    pmp, disk = _measure()
    rows = [
        [
            "PMP replicated log",
            f"{pmp:.2f}",
            f"{100 / pmp:.0f}",
            "write only (permissions certify)",
        ],
        [
            "Disk-Paxos-backed log",
            f"{disk:.2f}",
            f"{100 / disk:.0f}",
            "write + confirming read",
        ],
    ]
    emit(
        "E10",
        f"SMR throughput: {N_COMMANDS}-command workload, 3 replicas, 3 memories",
        table(
            ["backend", "delays per commit", "commits per 100 delays",
             "critical path"],
            rows,
        ),
        notes=(
            "Shape: the dynamic-permission fast path commits at 2 delays per\n"
            "slot in steady state — twice the throughput of the Disk Paxos\n"
            "read-back loop, matching the paper's delay arithmetic."
        ),
    )
    assert pmp == pytest.approx(2.0, abs=0.01)
    assert disk >= 4.0
    assert disk / pmp >= 2.0
