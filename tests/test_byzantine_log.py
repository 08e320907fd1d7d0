"""The Byzantine replicated log: multi-shot Fast & Robust."""

import pytest

from repro import (
    CheapQuorumEquivocatorLeader,
    FaultScript,
    SilentByzantine,
)
from repro.core.cluster import Cluster, ClusterConfig
from repro.smr.byzantine_log import (
    ByzantineLogConfig,
    ByzantineReplicatedLog,
    NOOP,
)

SCRIPTS = {
    0: [("tx", "a"), ("tx", "b"), ("tx", "c")],
    1: [("tx", "x"), ("tx", "y")],
    2: [("tx", "z")],
}


def _run(scripts=SCRIPTS, n_slots=3, faults=None, omega=None, deadline=60_000,
         n=3, m=3):
    proto = ByzantineReplicatedLog(scripts, ByzantineLogConfig(n_slots=n_slots))
    config = ClusterConfig(
        n, m, deadline=deadline, **({"omega": omega} if omega else {})
    )
    cluster = Cluster(proto, config, faults)
    result = cluster.run([None] * n)
    return proto, result


class TestCommonCase:
    def test_all_replicas_build_identical_logs(self):
        proto, result = _run()
        assert result.all_decided and result.agreed
        (log,) = result.decided_values
        assert log == (("tx", "a"), ("tx", "b"), ("tx", "c"))

    def test_per_slot_instances_are_checked_independently(self):
        proto, result = _run(n_slots=2)
        metrics = result.metrics
        assert set(metrics.instance_decisions) == {0, 1}
        for slot, book in metrics.instance_decisions.items():
            values = {rec.value for rec in book.values()}
            assert len(values) == 1, f"slot {slot} diverged"

    def test_leader_fast_path_every_slot(self):
        proto, result = _run(n_slots=2)
        # The leader's slot-0 decision is at t=2 and its slot decisions
        # stay ahead of the backup path (it decides each slot in CQ).
        slot0 = result.metrics.instance_decisions[0][0]
        assert slot0.decided_at == 2.0

    def test_applied_callback_order(self):
        seen = []
        proto = ByzantineReplicatedLog(
            SCRIPTS,
            ByzantineLogConfig(n_slots=2),
            apply_factory=lambda: lambda slot, cmd: seen.append((slot, cmd)),
        )
        cluster = Cluster(proto, ClusterConfig(3, 3, deadline=60_000))
        result = cluster.run([None] * 3)
        assert result.agreed
        per_replica = len(seen) // 3
        assert per_replica == 2
        assert seen[0][0] == 0  # slot order per replica


class TestFaultTolerance:
    def test_silent_byzantine_replica(self):
        faults = FaultScript().make_byzantine(2, SilentByzantine())
        proto, result = _run(n_slots=2, faults=faults)
        assert result.all_decided and result.agreed
        (log,) = result.decided_values
        assert log == (("tx", "a"), ("tx", "b"))

    def test_byzantine_leader_first_slot(self):
        faults = FaultScript().make_byzantine(0, CheapQuorumEquivocatorLeader())
        proto, result = _run(
            n_slots=1, faults=faults, omega=lambda now: 1, deadline=120_000
        )
        assert result.all_decided and result.agreed
        # The honest replicas agreed on SOME slot-0 value; their logs match.
        assert len(result.decided_values) == 1

    def test_short_scripts_pad_with_noops(self):
        scripts = {1: [("only", "p2")]}  # leader proposes nothing
        proto, result = _run(scripts=scripts, n_slots=1)
        assert result.agreed
        (log,) = result.decided_values
        assert log == (NOOP,)  # the leader's (padded) input won the slot


class TestNamespaceIsolation:
    def test_slots_use_disjoint_regions(self):
        proto = ByzantineReplicatedLog(SCRIPTS, ByzantineLogConfig(n_slots=2))
        regions = proto.regions(3, 3)
        ids = [r.region_id for r in regions]
        assert len(ids) == len(set(ids))
        assert any(r.startswith("cq0") for r in ids)
        assert any(r.startswith("cq1") for r in ids)
        assert any(r.startswith("neb0") for r in ids)

    def test_units_do_not_validate_across_namespaces(self):
        from repro.broadcast.nonequivocating import make_unit, unit_valid
        from tests.conftest import env_of, make_kernel

        env = env_of(make_kernel(), 0)
        unit = make_unit(env, 1, "m", namespace="neb0")
        assert unit_valid(env, 0, unit, 1, namespace="neb0")
        assert not unit_valid(env, 0, unit, 1, namespace="neb1")
