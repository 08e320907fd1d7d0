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
from repro.mem.permissions import Permission
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


class TestRegionSpecsSharedPerShape:
    """Region builders are pure functions of their shape over frozen
    values, so they build once and every cluster of that shape shares the
    specs; everything a run mutates stays per instance."""

    def test_builders_return_one_tuple_per_shape(self):
        from repro.broadcast.nonequivocating import neb_regions
        from repro.consensus.aligned_paxos import aligned_regions
        from repro.consensus.cheap_quorum import cq_regions
        from repro.consensus.disk_paxos import disk_paxos_regions
        from repro.consensus.protected_memory_paxos import pmp_regions
        from repro.registers.swmr import swmr_regions

        assert pmp_regions(3) is pmp_regions(3)
        assert aligned_regions(3, "disk") is aligned_regions(3, "disk")
        assert disk_paxos_regions(3) is disk_paxos_regions(3)
        assert cq_regions(3, 0, "cq") is cq_regions(3, 0, "cq")
        # any iterable of pids names the same shape
        assert neb_regions(range(3)) is neb_regions([0, 1, 2])
        assert swmr_regions("s", [0], range(2)) is swmr_regions("s", (0,), [0, 1])
        assert isinstance(pmp_regions(3), tuple)

    def test_clusters_share_specs_but_not_state(self):
        first = Cluster(ProtectedMemoryPaxos(), ClusterConfig(3))
        second = Cluster(ProtectedMemoryPaxos(), ClusterConfig(3))
        [spec] = first.kernel.layout.regions
        assert second.kernel.layout.regions[0] is spec
        assert first.kernel.layout.regions is not second.kernel.layout.regions
        # a run writes registers in its own memories only
        first.run(["a", "b", "c"])
        assert dict(first.kernel.memories[0].items())
        assert not any(dict(m.items()) for m in second.kernel.memories)
        # and a permission change stays in the memory it hit
        first.kernel.memories[0].permissions[spec.region_id] = Permission()
        for layout in (first.kernel.layout, second.kernel.layout):
            assert layout.boot_permissions[spec.region_id] is spec.initial_permission
        for memory in first.kernel.memories[1:] + second.kernel.memories:
            assert memory.permission_of(spec.region_id) is spec.initial_permission
