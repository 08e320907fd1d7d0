"""Classic message-passing Paxos baseline."""

import pytest

from repro import (
    FaultScript,
    JitteredSynchrony,
    MessagePaxos,
    PartialSynchrony,
    crash_aware_omega,
    run_consensus,
)
from repro.consensus.ballots import Ballot
from repro.core.cluster import Cluster, ClusterConfig
from repro.types import ProcessId


class TestCommonCase:
    def test_decides_in_four_delays(self):
        result = run_consensus(MessagePaxos(), n_processes=3, n_memories=0)
        assert result.all_decided and result.agreed and result.valid
        assert result.earliest_decision_delay == 4.0

    def test_needs_no_memories(self):
        result = run_consensus(MessagePaxos(), n_processes=5, n_memories=0)
        assert result.all_decided

    def test_leader_value_wins(self):
        result = run_consensus(
            MessagePaxos(), 3, 0, inputs=["L", "x", "y"]
        )
        assert result.decided_values == {"L"}

    def test_various_cluster_sizes(self):
        for n in (2, 3, 4, 5, 7):
            result = run_consensus(MessagePaxos(), n, 0, deadline=3000)
            assert result.all_decided and result.agreed, f"n={n}"


class TestFaultTolerance:
    def test_tolerates_minority_crashes(self):
        faults = FaultScript().at(0.0).crash_process(1).at(0.0).crash_process(2)
        result = run_consensus(MessagePaxos(), 5, 0, faults=faults, deadline=3000)
        assert result.all_decided and result.agreed

    def test_leader_crash_failover(self):
        config = ClusterConfig(n_processes=3, n_memories=0, deadline=3000)
        faults = FaultScript().at(1.0).crash_process(0)
        cluster = Cluster(MessagePaxos(), config, faults)
        cluster.kernel.omega = crash_aware_omega(cluster.kernel)
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed
        assert result.decided_values <= {"b", "c"}

    def test_majority_crash_blocks(self):
        faults = FaultScript().at(0.0).crash_process(1).at(0.0).crash_process(2)
        result = run_consensus(MessagePaxos(), 3, 0, faults=faults, deadline=500)
        assert not result.all_decided  # quorum unavailable: must not decide

    def test_mid_run_crash_of_acceptor(self):
        faults = FaultScript().at(2.5).crash_process(2)
        result = run_consensus(MessagePaxos(), 5, 0, faults=faults, deadline=3000)
        assert result.all_decided and result.agreed


class TestAsynchrony:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_safe_under_jitter(self, seed):
        result = run_consensus(
            MessagePaxos(), 3, 0, latency=JitteredSynchrony(0.5), seed=seed,
            deadline=3000,
        )
        assert result.agreed and result.valid

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_safe_and_live_under_partial_synchrony(self, seed):
        result = run_consensus(
            MessagePaxos(), 3, 0,
            latency=PartialSynchrony(gst=60, chaos=15), seed=seed,
            deadline=20_000,
        )
        assert result.agreed and result.valid
        assert result.all_decided

    def test_dueling_leaders_remain_safe(self):
        # Ω flaps between two leaders; progress may suffer but never safety.
        from repro.consensus.omega import leader_schedule

        schedule = [(float(t), t % 2) for t in range(0, 200, 10)]
        result = run_consensus(
            MessagePaxos(), 3, 0, omega=leader_schedule(schedule),
            deadline=5000,
        )
        assert result.agreed or not result.decided_values


class TestBallots:
    def test_ordering(self):
        assert Ballot(1, 0) < Ballot(1, 1) < Ballot(2, 0)

    def test_zero_below_everything(self):
        assert Ballot.zero() < Ballot.initial(ProcessId(0))

    def test_next_for(self):
        nxt = Ballot(3, 1).next_for(ProcessId(0))
        assert nxt == Ballot(4, 0)
        assert nxt > Ballot(3, 1)

    def test_initial(self):
        assert Ballot.initial(ProcessId(2)) == Ballot(1, 2)
