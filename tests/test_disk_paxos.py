"""Disk Paxos baseline: 4+ delays, n >= f+1, m >= 2fM+1."""

import pytest

from repro import DiskPaxos, FaultScript, JitteredSynchrony, run_consensus
from repro.consensus.omega import crash_aware_omega, leader_schedule
from repro.core.cluster import Cluster, ClusterConfig


class TestCommonCase:
    def test_established_leader_takes_four_delays(self):
        result = run_consensus(DiskPaxos(), 3, 3)
        assert result.all_decided and result.agreed and result.valid
        assert result.earliest_decision_delay == 4.0

    def test_never_faster_than_four_delays(self):
        # The confirming read is unavoidable: the paper's Section 6 point.
        for seed in range(5):
            result = run_consensus(DiskPaxos(), 3, 3, seed=seed)
            assert result.earliest_decision_delay >= 4.0

    def test_unestablished_leader_takes_eight_delays(self):
        # Ω names p2 from the start: its first ballot is not the
        # pre-established one, so it runs phase 1 before phase 2
        result = run_consensus(DiskPaxos(), 3, 3, omega=leader_schedule([(0.0, 1)]))
        assert result.earliest_decision_delay == 8.0

    def test_single_process_cluster(self):
        # n >= f_P + 1 resilience: works even with one process.
        result = run_consensus(DiskPaxos(), 1, 3)
        assert result.all_decided
        assert result.earliest_decision_delay == 4.0


class TestResilience:
    def test_survives_all_but_one_process(self):
        config = ClusterConfig(n_processes=3, n_memories=3, deadline=5000)
        faults = FaultScript().at(1.0).crash_process(0).at(1.0).crash_process(1)
        cluster = Cluster(DiskPaxos(), config, faults)
        cluster.kernel.omega = crash_aware_omega(cluster.kernel)
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed

    def test_survives_memory_minority_crash(self):
        faults = FaultScript().at(0.0).crash_memory(0)
        result = run_consensus(DiskPaxos(), 3, 3, faults=faults, deadline=3000)
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay == 4.0

    def test_memory_majority_crash_blocks(self):
        faults = FaultScript().at(0.0).crash_memory(0).at(0.0).crash_memory(1)
        result = run_consensus(DiskPaxos(), 3, 3, faults=faults, deadline=500)
        assert not result.all_decided

    def test_five_memories_two_crashes(self):
        faults = FaultScript().at(0.0).crash_memory(1).at(0.0).crash_memory(3)
        result = run_consensus(DiskPaxos(), 3, 5, faults=faults, deadline=3000)
        assert result.all_decided and result.agreed


class TestContention:
    def test_contending_leaders_stay_safe(self):
        schedule = [(0.0, 0), (2.0, 1), (30.0, 0), (60.0, 1)]
        result = run_consensus(
            DiskPaxos(), 3, 3, omega=leader_schedule(schedule), deadline=5000
        )
        assert result.agreed and result.valid

    @pytest.mark.parametrize("seed", [1, 7, 21])
    def test_safe_under_jitter(self, seed):
        result = run_consensus(
            DiskPaxos(), 3, 3, latency=JitteredSynchrony(0.7), seed=seed,
            deadline=5000,
        )
        assert result.agreed and result.valid

    def test_value_adoption_across_leaders(self):
        """A second leader must adopt the first leader's possibly-decided
        value, not its own input."""
        config = ClusterConfig(
            n_processes=2, n_memories=3,
            omega=leader_schedule([(0.0, 0), (10.0, 1)]),
            deadline=5000,
        )
        cluster = Cluster(DiskPaxos(), config)
        result = cluster.run(["FIRST", "second"])
        assert result.agreed
        assert result.decided_values == {"FIRST"}
