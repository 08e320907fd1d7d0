"""Kitchen-sink scenarios: stacked fault classes in single runs."""

import pytest

from repro import (
    AlignedPaxos,
    EquivocatingBroadcaster,
    FastRobust,
    FastRobustConfig,
    FaultScript,
    JitteredSynchrony,
    PartialSynchrony,
    ProtectedMemoryPaxos,
    RobustBackup,
    SilentByzantine,
    run_consensus,
)
from repro.consensus.cheap_quorum import CheapQuorumConfig

_FR = FastRobustConfig(
    cheap_quorum=CheapQuorumConfig(leader_timeout=15.0, unanimity_timeout=25.0)
)


class TestStackedFaults:
    def test_byzantine_plus_memory_crash(self):
        faults = (
            FaultScript()
            .make_byzantine(2, SilentByzantine())
            .at(0.0).crash_memory(1)
        )
        result = run_consensus(
            FastRobust(_FR), 3, 3, faults=faults, deadline=60_000
        )
        assert result.all_decided and result.agreed

    def test_byzantine_plus_memory_crash_plus_jitter(self):
        faults = (
            FaultScript()
            .make_byzantine(1, EquivocatingBroadcaster())
            .at(5.0).crash_memory(0)
        )
        result = run_consensus(
            FastRobust(_FR), 3, 3, faults=faults,
            latency=JitteredSynchrony(0.5), seed=11, deadline=60_000,
        )
        assert result.all_decided and result.agreed

    def test_robust_backup_byzantine_plus_two_memory_crashes(self):
        faults = (
            FaultScript()
            .make_byzantine(4, SilentByzantine())
            .at(0.0).crash_memory(0)
            .at(0.0).crash_memory(3)
        )
        result = run_consensus(
            RobustBackup(), 5, 5, faults=faults, deadline=60_000
        )
        assert result.all_decided and result.agreed

    def test_pmp_process_and_memory_crashes_with_jitter(self):
        faults = (
            FaultScript()
            .at(2.0).crash_process(0)
            .at(4.0).crash_process(1)
            .at(1.0).crash_memory(2)
        )
        result = run_consensus(
            ProtectedMemoryPaxos(), 3, 3, faults=faults,
            latency=JitteredSynchrony(0.4), seed=5,
            omega="crash-aware", deadline=20_000,
        )
        assert result.all_decided and result.agreed

    def test_aligned_crashes_during_partial_synchrony(self):
        faults = FaultScript().at(10.0).crash_process(2).at(20.0).crash_memory(1)
        result = run_consensus(
            AlignedPaxos(), 3, 3, faults=faults,
            latency=PartialSynchrony(gst=80, chaos=15), seed=3,
            deadline=60_000,
        )
        assert result.all_decided and result.agreed

    def test_fr_byzantine_during_asynchrony(self):
        faults = FaultScript().make_byzantine(2, SilentByzantine())
        result = run_consensus(
            FastRobust(_FR), 3, 3, faults=faults,
            latency=PartialSynchrony(gst=100, chaos=20), seed=9,
            deadline=120_000,
        )
        assert result.all_decided and result.agreed

    @pytest.mark.parametrize("seed", [2, 7, 13])
    def test_everything_everywhere(self, seed):
        """One of each: Byzantine process, crashed process is not possible
        at n=3 with f=1 Byzantine — so: Byzantine + memory crash + jitter,
        n=5 allows a crash too."""
        faults = (
            FaultScript()
            .make_byzantine(3, SilentByzantine())
            .at(float(seed)).crash_process(4)
            .at(float(seed) / 2).crash_memory(0)
        )
        result = run_consensus(
            FastRobust(_FR), 5, 3, faults=faults,
            latency=JitteredSynchrony(0.3), seed=seed, deadline=120_000,
        )
        # n=5 tolerates f=2 faulty processes (Byzantine+crash) and 1 of 3
        # memories down.
        assert result.all_decided and result.agreed
        assert not result.metrics.violations
