"""Fast & Robust (Theorem 4.9): the composed 2-deciding WBA algorithm."""

import pytest

from repro import (
    CheapQuorumEquivocatorLeader,
    FastRobust,
    FastRobustConfig,
    FaultScript,
    PartialSynchrony,
    PaxosValueLiar,
    SilentByzantine,
    run_consensus,
)
from repro.consensus.cheap_quorum import CheapQuorumConfig


def _fast_config():
    return FastRobustConfig(
        cheap_quorum=CheapQuorumConfig(leader_timeout=15.0, unanimity_timeout=25.0)
    )


class TestCommonCase:
    def test_two_deciding(self):
        result = run_consensus(FastRobust(), 3, 3, deadline=5000)
        assert result.all_decided and result.agreed and result.valid
        assert result.earliest_decision_delay == 2.0

    def test_two_deciding_n5(self):
        result = run_consensus(FastRobust(), 5, 3, deadline=8000)
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay == 2.0

    def test_leader_input_decided(self):
        result = run_consensus(
            FastRobust(), 3, 3, inputs=["L", "x", "y"], deadline=5000
        )
        assert result.decided_values == {"L"}

    def test_one_signature_on_the_critical_path(self):
        """Lemma B.6/§4.2: one signature suffices for the fast decision."""
        result = run_consensus(FastRobust(), 3, 3, deadline=5000)
        leader_record = result.metrics.decisions[0]
        assert leader_record.delays == 2.0
        # Signatures by the leader up to its decision: exactly the one on v.
        # (Later helper/PP signatures come after the decision.)
        assert leader_record.signatures_at_decision == 1


class TestByzantineFallback:
    def test_byzantine_equivocating_leader(self):
        faults = FaultScript().make_byzantine(0, CheapQuorumEquivocatorLeader())
        result = run_consensus(
            FastRobust(_fast_config()), 3, 3, faults=faults,
            omega=lambda now: 1, deadline=10_000,
        )
        assert result.all_decided and result.agreed
        # The decided value is an honest input or the leader's signed junk
        # only if certified; either way agreement + validity-for-honest.
        assert result.decided_values & {"value-2", "value-3", "split-A", "split-B"}

    def test_silent_byzantine_follower(self):
        faults = FaultScript().make_byzantine(2, SilentByzantine())
        result = run_consensus(
            FastRobust(_fast_config()), 3, 3, faults=faults, deadline=10_000
        )
        assert result.all_decided and result.agreed

    def test_composition_lemma_leader_decides_first(self):
        """Lemma 4.8: the leader decides v in Cheap Quorum before the panic;
        Preferential Paxos must decide the same v."""
        faults = FaultScript().make_byzantine(1, SilentByzantine())
        result = run_consensus(
            FastRobust(_fast_config()), 3, 3, faults=faults,
            inputs=["CQ-WINNER", "ignored", "other"], deadline=10_000,
        )
        assert result.all_decided and result.agreed
        assert result.decided_values == {"CQ-WINNER"}
        # The leader decided at 2 delays in CQ; p3 decided later in PP —
        # and the strict ledger confirmed both decisions matched.
        assert result.metrics.decisions[0].delays == 2.0

    def test_liar_in_backup_phase(self):
        faults = FaultScript().make_byzantine(2, PaxosValueLiar("EVIL"))
        result = run_consensus(
            FastRobust(_fast_config()), 3, 3, faults=faults, deadline=10_000
        )
        assert result.all_decided and result.agreed
        assert "EVIL" not in result.decided_values


class TestCrashFallback:
    def test_leader_crash_before_writing(self):
        faults = FaultScript().at(0.0).crash_process(0)
        result = run_consensus(
            FastRobust(_fast_config()), 3, 3, faults=faults,
            omega="crash-aware", deadline=20_000,
        )
        assert result.all_decided and result.agreed
        assert result.decided_values <= {"value-2", "value-3"}

    def test_leader_crash_after_write_carries_value(self):
        """The leader's signed value reached the memories; Definition 3's M
        class makes it the decision in the backup path."""
        faults = FaultScript().at(2.5).crash_process(0)
        result = run_consensus(
            FastRobust(_fast_config()), 3, 3, faults=faults,
            omega="crash-aware", inputs=["STICKY", "b", "c"], deadline=20_000,
        )
        assert result.all_decided and result.agreed
        assert result.decided_values == {"STICKY"}

    def test_follower_crash_common_path_still_fast(self):
        # A crashed follower blocks unanimity, so the fast path may abort;
        # either way the leader's 2-delay decision stands and all agree.
        faults = FaultScript().at(0.0).crash_process(2)
        result = run_consensus(
            FastRobust(_fast_config()), 3, 3, faults=faults, deadline=10_000
        )
        assert result.all_decided and result.agreed
        assert result.metrics.decisions[0].delays == 2.0

    def test_memory_crash_minority(self):
        faults = FaultScript().at(0.0).crash_memory(1)
        result = run_consensus(
            FastRobust(_fast_config()), 3, 3, faults=faults, deadline=10_000
        )
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay == 2.0


class TestAsynchronyFallback:
    @pytest.mark.parametrize("seed", [1, 5])
    def test_partial_synchrony_state_safe_and_live(self, seed):
        result = run_consensus(
            FastRobust(_fast_config()), 3, 3,
            latency=PartialSynchrony(gst=120, chaos=25), seed=seed,
            deadline=60_000,
        )
        assert result.all_decided and result.agreed and result.valid
