"""The ablation switches: each fast-path mechanism can be turned off."""

import pytest

from repro import (
    FastRobust,
    FastRobustConfig,
    FaultScript,
    PmpConfig,
    ProtectedMemoryPaxos,
    SilentByzantine,
    run_consensus,
)


class TestPmpSkipAblation:
    def test_skip_off_segmented_prepare_is_three_rounds(self):
        # Segmented delivery: the prepare chain's three WRs are three
        # round trips, from the kernel switch alone.
        from repro.core.cluster import Cluster, ClusterConfig

        config = PmpConfig(skip_first_attempt=False)
        cluster = Cluster(ProtectedMemoryPaxos(config), ClusterConfig(3, 3))
        cluster.kernel.config.chain_delivery = "segmented"
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay == 8.0  # cp + write + read + write

    def test_skip_off_fused_prepare_is_one_round(self):
        # Fused delivery carries cp + probe + snapshot as one request:
        # the full prepare costs one memory round, so skip-off is 2 + 2.
        config = PmpConfig(skip_first_attempt=False)
        result = run_consensus(ProtectedMemoryPaxos(config), 3, 3)
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay == 4.0  # chain + write

    def test_skip_off_still_safe_under_contention(self):
        from repro.consensus.omega import leader_schedule

        config = PmpConfig(skip_first_attempt=False)
        result = run_consensus(
            ProtectedMemoryPaxos(config), 2, 3,
            omega=leader_schedule([(0.0, 0), (3.0, 1)]),
            deadline=5000,
        )
        assert result.agreed and result.valid

    def test_default_keeps_two_delays(self):
        result = run_consensus(ProtectedMemoryPaxos(PmpConfig()), 3, 3)
        assert result.earliest_decision_delay == 2.0


class TestFastRobustPathAblation:
    def test_backup_only_mode_decides(self):
        config = FastRobustConfig(enable_fast_path=False)
        result = run_consensus(FastRobust(config), 3, 3, deadline=60_000)
        assert result.all_decided and result.agreed and result.valid
        assert result.earliest_decision_delay > 2.0

    def test_backup_only_mode_is_byzantine_tolerant(self):
        config = FastRobustConfig(enable_fast_path=False)
        faults = FaultScript().make_byzantine(2, SilentByzantine())
        result = run_consensus(
            FastRobust(config), 3, 3, faults=faults, deadline=60_000
        )
        assert result.all_decided and result.agreed

    def test_backup_only_inputs_are_bare_priority(self):
        """Without the fast path there are no certificates: any input can
        win, but exactly one does."""
        config = FastRobustConfig(enable_fast_path=False)
        result = run_consensus(
            FastRobust(config), 3, 3, inputs=["x", "y", "z"], deadline=60_000
        )
        assert result.decided_values <= {"x", "y", "z"}
        assert len(result.decided_values) == 1
