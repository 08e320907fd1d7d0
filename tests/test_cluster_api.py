"""The public cluster API surface."""

import pytest

from repro import (
    FaultScript,
    MessagePaxos,
    ProtectedMemoryPaxos,
    run_consensus,
)
from repro.core.cluster import Cluster, ClusterConfig, RunResult
from repro.errors import ConfigurationError
from repro.obs.runtime import attach


class TestRunConsensus:
    def test_default_inputs_generated(self):
        result = run_consensus(ProtectedMemoryPaxos(), 3, 3)
        assert result.inputs == ["value-1", "value-2", "value-3"]

    def test_explicit_inputs(self):
        result = run_consensus(ProtectedMemoryPaxos(), 2, 3, inputs=["x", "y"])
        assert result.decided_values == {"x"}

    def test_wrong_input_count_rejected(self):
        cluster = Cluster(MessagePaxos(), ClusterConfig(3, 0))
        with pytest.raises(ConfigurationError):
            cluster.start(["only-one"])

    def test_result_properties(self):
        result = run_consensus(ProtectedMemoryPaxos(), 3, 3)
        assert isinstance(result, RunResult)
        assert result.all_decided
        assert result.agreed and result.valid
        assert result.final_time > 0
        assert result.delay_of(0) == 2.0
        assert result.signatures_used == 0  # PMP uses no signatures

    def test_decisions_mapping(self):
        result = run_consensus(ProtectedMemoryPaxos(), 3, 3)
        assert set(result.decisions.values()) == {"value-1"}
        assert len(result.decisions) == 3

    def test_seeds_are_reproducible(self):
        a = run_consensus(MessagePaxos(), 3, 0, seed=5)
        b = run_consensus(MessagePaxos(), 3, 0, seed=5)
        assert a.final_time == b.final_time
        assert a.decisions == b.decisions

    def test_faults_validated_at_construction(self):
        with pytest.raises(ConfigurationError):
            run_consensus(
                ProtectedMemoryPaxos(), 3, 3,
                faults=FaultScript().at(0.0).crash_process(17),
            )

    def test_deadline_bounds_run(self):
        faults = FaultScript().at(0.0).crash_memory(0).at(0.0).crash_memory(1)
        result = run_consensus(
            ProtectedMemoryPaxos(), 3, 3, faults=faults, deadline=50
        )
        assert not result.all_decided
        assert result.final_time <= 50

    def test_crash_aware_omega_string(self):
        faults = FaultScript().at(0.0).crash_process(0)
        result = run_consensus(
            ProtectedMemoryPaxos(), 2, 3, faults=faults,
            omega="crash-aware", deadline=3000,
        )
        assert result.all_decided

    def test_trace_flag_enables_tracing(self):
        """``attach(kernel)`` is the one tracing switch: no config flag."""
        assert run_consensus(ProtectedMemoryPaxos(), 3, 3).kernel.obs is None
        cluster = Cluster(ProtectedMemoryPaxos(), ClusterConfig(3, 3))
        runtime = attach(cluster.kernel)
        cluster.run(["a", "b", "c"])
        assert runtime.spans


class TestClusterConfigValidation:
    def test_zero_processes_rejected(self):
        # Raised by SimConfig at kernel construction time.
        with pytest.raises(ValueError):
            Cluster(MessagePaxos(), ClusterConfig(n_processes=0, n_memories=0))

    def test_env_for_is_cached(self):
        cluster = Cluster(MessagePaxos(), ClusterConfig(2, 0))
        assert cluster.env_for(0) is cluster.env_for(0)
