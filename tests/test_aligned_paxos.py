"""Aligned Paxos (Section 5.2): combined process+memory majority."""

import pytest

from repro import AlignedConfig, AlignedPaxos, FaultScript, JitteredSynchrony, run_consensus
from repro.consensus.aligned_paxos import _RESTART, AlignedNode, aligned_regions
from repro.consensus.ballots import Ballot
from repro.consensus.omega import crash_aware_omega
from repro.core.cluster import Cluster, ClusterConfig

from tests.conftest import env_of, make_kernel


def _run_with_crashes(proc_crashes, mem_crashes, n=3, m=3, variant="protected",
                      crash_at=0.0, deadline=8000, leader_failover=False):
    config = ClusterConfig(n_processes=n, n_memories=m, deadline=deadline)
    faults = FaultScript()
    for p in proc_crashes:
        faults.at(crash_at).crash_process(p)
    for mem in mem_crashes:
        faults.at(crash_at).crash_memory(mem)
    cluster = Cluster(AlignedPaxos(AlignedConfig(variant=variant)), config, faults)
    if leader_failover:
        cluster.kernel.omega = crash_aware_omega(cluster.kernel)
    return cluster.run([f"v{p}" for p in range(n)])


class TestCommonCase:
    def test_two_deciding_protected_variant(self):
        result = run_consensus(AlignedPaxos(), 3, 3)
        assert result.all_decided and result.agreed and result.valid
        assert result.earliest_decision_delay == 2.0

    def test_disk_variant_needs_more_delays(self):
        result = run_consensus(AlignedPaxos(AlignedConfig(variant="disk")), 3, 3)
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay >= 4.0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            AlignedConfig(variant="quantum")


class TestCombinedMajority:
    """n=3, m=3: six agents, any 2 crashes are survivable regardless of the
    process/memory split — the paper's equivalence claim."""

    @pytest.mark.parametrize(
        "procs,mems",
        [([], [0, 1]), ([1], [0]), ([1, 2], []), ([2], [2]), ([], [1, 2])],
    )
    def test_any_two_agent_crashes_survive(self, procs, mems):
        result = _run_with_crashes(procs, mems)
        assert result.all_decided, f"procs={procs} mems={mems}"
        assert result.agreed and result.valid

    def test_three_crashes_block(self):
        # 3 of 6 agents: only 3 alive, not a majority -> must not decide.
        result = _run_with_crashes([1], [0, 1], deadline=600)
        assert not result.all_decided

    def test_all_memories_down_but_process_majority_up(self):
        # 3 processes + 0 memories alive = 3 of 6: NOT a majority; blocked.
        result = _run_with_crashes([], [0, 1, 2], deadline=600)
        assert not result.all_decided

    def test_larger_cluster_mixed_minority(self):
        # n=4, m=3: seven agents, tolerate any 3.
        result = _run_with_crashes([2, 3], [1], n=4, m=3)
        assert result.all_decided and result.agreed

    def test_leader_crash_with_memory_crash(self):
        result = _run_with_crashes([0], [2], crash_at=1.0, leader_failover=True)
        assert result.all_decided and result.agreed


class TestDiskVariantResilience:
    def test_disk_variant_combined_minority(self):
        result = _run_with_crashes([1], [0], variant="disk")
        assert result.all_decided and result.agreed

    def test_disk_variant_memory_pair_crash(self):
        result = _run_with_crashes([], [0, 2], variant="disk")
        assert result.all_decided and result.agreed


class TestSafety:
    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_safe_under_jitter(self, seed):
        result = run_consensus(
            AlignedPaxos(), 3, 3, latency=JitteredSynchrony(0.8), seed=seed,
            deadline=8000,
        )
        assert result.agreed and result.valid

    def test_leader_handover_adopts_accepted_value(self):
        from repro.consensus.omega import leader_schedule

        result = run_consensus(
            AlignedPaxos(), 3, 3,
            omega=leader_schedule([(0.0, 0), (10.0, 1)]),
            inputs=["FIRST", "x", "y"], deadline=8000,
        )
        assert result.agreed
        assert result.decided_values == {"FIRST"}


class TestMemoryAgentPrepare:
    def test_outbid_phase1_learns_the_highest_ballot(self):
        kernel = make_kernel(3, 3, regions=aligned_regions(3))
        p1, p2, p3 = (AlignedNode(env_of(kernel, pid), f"v{pid}") for pid in range(3))

        def phase1(pid, node, ballot):
            # memory agents only (no pumps run): a majority of the three legs
            task = kernel.spawn(pid, "phase1", node._phase1(ballot, 3))
            kernel.run(until=kernel.now + 50.0)
            return task.result

        # p2's probe is written first at every memory, p3's higher one after
        assert phase1(1, p2, Ballot(3, 1)) == "v1"
        assert phase1(2, p3, Ballot(5, 2)) == "v2"
        assert phase1(0, p1, Ballot(1, 0)) is _RESTART
        assert p1.node.highest_seen == Ballot(5, 2)
