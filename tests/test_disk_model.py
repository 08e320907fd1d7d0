"""The pure disk model of Section 3: no links at all."""

import pytest

from repro.consensus.disk_paxos import DiskPaxos, DiskPaxosConfig
from repro.consensus.omega import crash_aware_omega
from repro.core.cluster import Cluster, ClusterConfig
from repro.errors import SimulationError
from repro.failures.script import FaultScript

from tests.conftest import env_of, make_kernel


def _link_free_cluster(faults=None, n=3, m=3, deadline=5000):
    cluster = Cluster(
        DiskPaxos(DiskPaxosConfig(link_free=True)),
        ClusterConfig(n, m, deadline=deadline),
        faults,
    )
    cluster.kernel.config.links_enabled = False  # the disk model: no links
    return cluster


class TestLinkFreeDiskPaxos:
    def test_decides_with_zero_messages(self):
        cluster = _link_free_cluster()
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed and result.valid
        assert result.metrics.total_messages() == 0

    def test_leader_still_four_deciding(self):
        cluster = _link_free_cluster()
        result = cluster.run(["a", "b", "c"])
        assert result.earliest_decision_delay == 4.0

    def test_learners_decide_by_polling_disks(self):
        cluster = _link_free_cluster()
        result = cluster.run(["a", "b", "c"])
        # Non-leaders decided strictly after the leader (poll cadence).
        times = {int(p): r.decided_at for p, r in result.metrics.decisions.items()}
        assert times[1] > times[0] and times[2] > times[0]

    def test_survives_leader_crash_without_links(self):
        faults = FaultScript().at(1.0).crash_process(0)
        cluster = _link_free_cluster(faults=faults)
        cluster.kernel.omega = crash_aware_omega(cluster.kernel)
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed

    def test_survives_memory_minority_without_links(self):
        faults = FaultScript().at(0.0).crash_memory(1)
        cluster = _link_free_cluster(faults=faults)
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed


class TestLinkEnforcement:
    def test_sending_raises_in_disk_model(self):
        kernel = make_kernel(links_enabled=False)
        env = env_of(kernel, 0)

        def gen():
            yield env.send(1, "illegal", topic="t")

        kernel.spawn(0, "g", gen())
        with pytest.raises(SimulationError):
            kernel.run(until=10)

    def test_post_init_toggle_is_enforced(self):
        # _link_free_cluster flips the flag on an already-built kernel's
        # config; the send path must read it live, not a cached copy.
        kernel = make_kernel()
        kernel.config.links_enabled = False
        env = env_of(kernel, 0)

        def gen():
            yield env.send(1, "illegal", topic="t")

        kernel.spawn(0, "g", gen())
        with pytest.raises(SimulationError):
            kernel.run(until=10)

    def test_default_model_allows_links(self):
        kernel = make_kernel()
        env = env_of(kernel, 0)

        def gen():
            yield env.send(1, "legal", topic="t")

        kernel.spawn(0, "g", gen())
        kernel.run(until=10)  # no exception
