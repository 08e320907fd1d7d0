"""The theorem suite: one test per numbered claim in the paper.

This file is the executable summary of the reproduction — each test cites
the claim it checks and exercises it through the public API only.
"""

import pytest

from repro import (
    AlignedPaxos,
    DiskPaxos,
    FastPaxos,
    FastRobust,
    FastRobustConfig,
    FaultScript,
    MessagePaxos,
    PaxosValueLiar,
    ProtectedMemoryPaxos,
    RobustBackup,
    SilentByzantine,
    run_consensus,
)
from repro.consensus.cheap_quorum import CheapQuorumConfig
from repro.lowerbound import (
    attack_disk_paxos,
    attack_naive_fast,
    attack_protected_memory_paxos,
    solo_fast_delay,
)

_FR = lambda: FastRobust(
    FastRobustConfig(
        cheap_quorum=CheapQuorumConfig(leader_timeout=15.0, unanimity_timeout=25.0)
    )
)


class TestTheorem42And44_RobustBackup:
    """WBA from SWMR registers + signatures at n >= 2f_P+1, m >= 2f_M+1."""

    def test_agreement_with_byzantine_minority(self):
        faults = FaultScript().make_byzantine(1, PaxosValueLiar("EVIL"))
        result = run_consensus(RobustBackup(), 3, 3, faults=faults, deadline=20_000)
        assert result.all_decided and result.agreed and result.valid
        assert "EVIL" not in result.decided_values

    def test_memory_crash_minority_tolerated(self):
        faults = FaultScript().at(0.0).crash_memory(0)
        result = run_consensus(RobustBackup(), 3, 3, faults=faults, deadline=20_000)
        assert result.all_decided and result.agreed


class TestLemmaB6_CheapQuorumIsTwoDeciding:
    def test_fast_decision(self):
        result = run_consensus(_FR(), 3, 3, deadline=20_000)
        assert result.metrics.decisions[0].delays == 2.0

    def test_one_signature(self):
        result = run_consensus(_FR(), 3, 3, deadline=20_000)
        assert result.metrics.decisions[0].signatures_at_decision == 1


class TestTheorem49_FastAndRobust:
    """2-deciding WBA at n >= 2f_P+1, m >= 2f_M+1."""

    @pytest.mark.parametrize("n", [3, 5])
    def test_two_deciding_common_case(self, n):
        result = run_consensus(_FR(), n, 3, deadline=20_000)
        assert result.agreed and result.valid
        assert result.earliest_decision_delay == 2.0

    def test_byzantine_fallback_preserves_agreement(self):
        faults = FaultScript().make_byzantine(2, SilentByzantine())
        result = run_consensus(_FR(), 3, 3, faults=faults, deadline=30_000)
        assert result.all_decided and result.agreed

    def test_memory_crash_tolerated_on_fast_path(self):
        faults = FaultScript().at(0.0).crash_memory(2)
        result = run_consensus(_FR(), 3, 3, faults=faults, deadline=30_000)
        assert result.earliest_decision_delay == 2.0


class TestTheorem51_ProtectedMemoryPaxos:
    """2-deciding crash consensus at n >= f_P+1, m >= 2f_M+1."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_two_deciding_at_every_n(self, n):
        result = run_consensus(ProtectedMemoryPaxos(), n, 3, deadline=10_000)
        assert result.earliest_decision_delay == 2.0

    def test_n_equals_f_plus_one(self):
        # n=2 tolerates one crash: below the message-passing 2f+1 bound.
        faults = FaultScript().at(0.0).crash_process(0)
        result = run_consensus(
            ProtectedMemoryPaxos(), 2, 3, faults=faults,
            omega="crash-aware", deadline=10_000,
        )
        assert result.all_decided and result.agreed

    def test_memory_minority(self):
        faults = FaultScript().at(0.0).crash_memory(0)
        result = run_consensus(
            ProtectedMemoryPaxos(), 3, 3, faults=faults, deadline=10_000
        )
        assert result.earliest_decision_delay == 2.0


class TestSection52_AlignedPaxos:
    """Consensus with any majority of the combined agent set."""

    @pytest.mark.parametrize("fp,fm", [(0, 2), (1, 1), (2, 0)])
    def test_combined_minority(self, fp, fm):
        faults = FaultScript()
        for pid in range(fp):
            faults.at(0.0).crash_process(2 - pid)
        for mid in range(fm):
            faults.at(0.0).crash_memory(mid)
        result = run_consensus(
            AlignedPaxos(), 3, 3, faults=faults, deadline=10_000
        )
        assert result.all_decided and result.agreed

    def test_two_deciding_common_case(self):
        result = run_consensus(AlignedPaxos(), 3, 3)
        assert result.earliest_decision_delay == 2.0


class TestTheorem61_LowerBound:
    """No 2-deciding consensus from static-permission shared memory."""

    def test_two_deciding_candidate_exists(self):
        assert solo_fast_delay() == 2.0

    def test_candidate_violates_agreement(self):
        assert attack_naive_fast().agreement_violated

    def test_static_permission_survivor_pays_four_delays(self):
        report = attack_disk_paxos()
        assert not report.agreement_violated
        result = run_consensus(DiskPaxos(), 3, 3)
        assert result.earliest_decision_delay >= 4.0

    def test_dynamic_permissions_evade_the_bound(self):
        report = attack_protected_memory_paxos()
        assert not report.agreement_violated
        assert report.fast_path_write_naked


class TestIntroComparisons:
    """Section 1's positioning of the baselines."""

    def test_disk_paxos_resilient_but_slow(self):
        result = run_consensus(DiskPaxos(), 3, 3)
        assert result.earliest_decision_delay >= 4.0

    def test_fast_paxos_fast_but_needs_2f_plus_1(self):
        result = run_consensus(FastPaxos(), 3, 0)
        assert result.earliest_decision_delay == 2.0
        # With a crashed acceptor the fast path is gone (fast quorum = n).
        faults = FaultScript().at(0.0).crash_process(2)
        degraded = run_consensus(
            FastPaxos(), 3, 0, faults=faults, deadline=5000
        )
        assert (
            degraded.earliest_decision_delay is None
            or degraded.earliest_decision_delay > 2.0
        )

    def test_message_paxos_baseline(self):
        result = run_consensus(MessagePaxos(), 3, 0)
        assert result.earliest_decision_delay == 4.0
