"""Model conformance: protocols under the one-outstanding-op observer.

Section 3 allows each process at most one outstanding operation per memory.
Every protocol issues memory operations through the one chain-per-memory
fan-out shape, so all of them — the register-polling algorithms included,
now that ``read_many`` reads its registers as one chain per memory — must
run unchanged with :class:`repro.check.outstanding.OutstandingObserver`
attached, under both chain-delivery modes.
"""

import pytest

from repro import FastRobust, FaultScript
from repro.check.outstanding import watch_outstanding
from repro.consensus.aligned_paxos import AlignedPaxos
from repro.consensus.disk_paxos import DiskPaxos
from repro.consensus.protected_memory_paxos import ProtectedMemoryPaxos
from repro.core.cluster import Cluster, ClusterConfig


def _run_observed(protocol, faults=None, n=3, m=3, deadline=5000, **config):
    cluster = Cluster(
        protocol, ClusterConfig(n, m, deadline=deadline, **config), faults
    )
    watch_outstanding(cluster.kernel)
    return cluster


DELIVERY = pytest.mark.parametrize("delivery", ["fused", "segmented"])


class TestOneOutstandingOp:
    @DELIVERY
    def test_pmp_conforms(self, delivery):
        cluster = _run_observed(ProtectedMemoryPaxos())
        cluster.kernel.config.chain_delivery = delivery
        result = cluster.run(["v0", "v1", "v2"])
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay == 2.0

    @DELIVERY
    def test_pmp_with_takeover_conforms(self, delivery):
        from repro.consensus.omega import leader_schedule

        cluster = _run_observed(
            ProtectedMemoryPaxos(), n=2,
            omega=leader_schedule([(0.0, 0), (5.0, 1)]),
        )
        cluster.kernel.config.chain_delivery = delivery
        assert cluster.run(["a", "b"]).agreed

    def test_disk_paxos_conforms(self):
        result = _run_observed(DiskPaxos()).run(["v0", "v1", "v2"])
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay == 4.0

    @DELIVERY
    def test_aligned_paxos_conforms(self, delivery):
        cluster = _run_observed(AlignedPaxos())
        cluster.kernel.config.chain_delivery = delivery
        result = cluster.run(["v0", "v1", "v2"])
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay == 2.0

    def test_fast_robust_register_polling_conforms(self):
        result = _run_observed(FastRobust(), deadline=60_000).run(["v0", "v1", "v2"])
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay == 2.0

    def test_pmp_with_memory_crash_conforms(self):
        faults = FaultScript().at(0.0).crash_memory(1)
        result = _run_observed(ProtectedMemoryPaxos(), faults=faults).run(
            ["v0", "v1", "v2"]
        )
        assert result.all_decided and result.agreed

    @DELIVERY
    def test_sharded_smr_conforms_with_memory_crash(self, delivery):
        # The replicated log's long-lived proposer re-posts to every
        # memory each slot; the straggler leg of slot N on a slow or
        # crashed memory must not count against slot N+1.
        from repro.shard import ClosedLoopClient, ShardConfig, ShardedKV, YCSB_A, ZipfianKeys
        from repro.types import MemoryId

        service = ShardedKV(
            ShardConfig(n_shards=2, batch_max=4, seed=5, read_mode="quorum")
        )
        service.kernel.config.chain_delivery = delivery
        watch_outstanding(service.kernel)
        service.kernel.call_at(
            6.0, lambda: service.kernel.crash_memory(MemoryId(2))
        )
        clients = [
            ClosedLoopClient(client_id=i, n_ops=5, keys=ZipfianKeys(32), mix=YCSB_A)
            for i in range(8)
        ]
        report = service.run_workload(clients)
        assert report.completed_requests == 40


class TestRunSummary:
    def test_summary_mentions_everything(self):
        from repro import run_consensus

        result = run_consensus(ProtectedMemoryPaxos(), 3, 3)
        text = result.summary()
        assert "all decided" in text
        assert "agreement: ok" in text
        assert "validity : ok" in text
        assert "p1: decided" in text
        assert "memory ops" in text

    def test_summary_reports_blocked_run(self):
        from repro import run_consensus

        faults = FaultScript().at(0.0).crash_memory(0).at(0.0).crash_memory(1)
        result = run_consensus(
            ProtectedMemoryPaxos(), 3, 3, faults=faults, deadline=100
        )
        assert "NOT all decided" in result.summary()
