"""Protected Memory Paxos (Algorithm 7, Theorem 5.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FaultScript,
    JitteredSynchrony,
    PartialSynchrony,
    PmpConfig,
    ProtectedMemoryPaxos,
    run_consensus,
)
from repro.consensus.ballots import Ballot
from repro.consensus.omega import crash_aware_omega, leader_schedule
from repro.consensus.protected_memory_paxos import REGION, chosen_value, pmp_regions
from repro.core.cluster import Cluster, ClusterConfig
from repro.obs.runtime import attach
from repro.sim.latency import AdversarialLatency
from repro.smr.log import PmpSlot, ReplicatedLog, SmrConfig, fold_takeover_views
from repro.types import BOTTOM, MemoryId

from tests.conftest import env_of, make_kernel


class TestTwoDeciding:
    def test_initial_leader_decides_in_two_delays(self):
        result = run_consensus(ProtectedMemoryPaxos(), 3, 3)
        assert result.all_decided and result.agreed and result.valid
        assert result.earliest_decision_delay == 2.0

    def test_two_delays_across_sizes(self):
        for n, m in [(1, 3), (2, 3), (3, 5), (5, 3), (7, 5)]:
            result = run_consensus(ProtectedMemoryPaxos(), n, m, deadline=3000)
            assert result.earliest_decision_delay == 2.0, f"n={n},m={m}"
            assert result.all_decided

    def test_leader_value_decided(self):
        result = run_consensus(
            ProtectedMemoryPaxos(), 3, 3, inputs=["LEAD", "b", "c"]
        )
        assert result.decided_values == {"LEAD"}

    def test_leader_writes_without_reading_first(self):
        """The two-delay path is write-only: no reads before the decision
        (the whole point of the permission optimization)."""
        cluster = Cluster(ProtectedMemoryPaxos(), ClusterConfig(3, 3))
        runtime = attach(cluster.kernel, profile=False)
        cluster.run(["a", "b", "c"])
        spans = runtime.spans + runtime.open_spans()
        decide = min(s.start for s in spans if s.name == "decide")
        leader_ops = [
            s
            for s in spans
            if s.kind == "memop" and s.actor.startswith("p1/") and s.start < decide
        ]
        assert leader_ops, "leader must have issued operations"
        assert all(s.name == "WriteOp" for s in leader_ops)


class TestResilienceNEqualsFPlus1:
    def test_n_2_leader_crash_before_writing(self):
        """n = f_P + 1 = 2: one crash of two processes is survivable —
        impossible for message-passing consensus (needs n >= 2f+1)."""
        config = ClusterConfig(n_processes=2, n_memories=3, deadline=5000)
        faults = FaultScript().at(0.0).crash_process(0)  # before any write
        cluster = Cluster(ProtectedMemoryPaxos(), config, faults)
        cluster.kernel.omega = crash_aware_omega(cluster.kernel)
        result = cluster.run(["a", "b"])
        assert result.all_decided and result.agreed
        assert result.decided_values == {"b"}

    def test_n_2_leader_crash_with_write_in_flight(self):
        """The crashed leader's write (issued at t=0) still lands at t=1:
        the successor's prepare phase sees it and MUST adopt it."""
        config = ClusterConfig(n_processes=2, n_memories=3, deadline=5000)
        faults = FaultScript().at(1.0).crash_process(0)
        cluster = Cluster(ProtectedMemoryPaxos(), config, faults)
        cluster.kernel.omega = crash_aware_omega(cluster.kernel)
        result = cluster.run(["a", "b"])
        assert result.all_decided and result.agreed
        assert result.decided_values == {"a"}

    def test_n_3_two_crashes(self):
        config = ClusterConfig(n_processes=3, n_memories=3, deadline=5000)
        faults = FaultScript().at(0.0).crash_process(0).at(0.0).crash_process(1)
        cluster = Cluster(ProtectedMemoryPaxos(), config, faults)
        cluster.kernel.omega = crash_aware_omega(cluster.kernel)
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed
        assert result.decided_values == {"c"}

    def test_value_adoption_when_leader_crashes_mid_write(self):
        """If the first leader's value reached the memories, the successor
        must adopt it, not propose its own."""
        config = ClusterConfig(n_processes=2, n_memories=3, deadline=5000)
        faults = FaultScript().at(2.0).crash_process(0)  # right as writes land
        cluster = Cluster(ProtectedMemoryPaxos(), config, faults)
        cluster.kernel.omega = crash_aware_omega(cluster.kernel)
        result = cluster.run(["FIRST", "second"])
        assert result.agreed
        # p1 decided FIRST iff its write completed; either way p2 must agree
        # with whatever is recoverable — and with the write acked at t=2.0
        # the value is on a majority, so it must be FIRST.
        assert result.decided_values == {"FIRST"}


class TestRestartKeepsTheOnlyCopy:
    def test_restart_must_not_overwrite_the_only_surviving_copy(self):
        """A restarted process probes the log's reserved slot, never its
        own slot-0 register: that register may hold the only surviving
        copy of a committed value.  Here p2 commits p1's value 'a' (adopted
        from the one memory p1's write reached), wiping that memory leaves
        p2's own registers as the last copies, and p2 then restarts: it
        must re-commit 'a', not its own input 'b' (which the strict ledger
        would raise as a revoked decision)."""

        def slow_p1_writes(kind, pid, mid, _now):
            # p1's phase-2 write reaches m2 and m3 long after p2's grab
            return 100.0 if kind == "mem_req" and pid == 0 and mid != 0 else None

        script = FaultScript()
        script.at(1.5).crash_process(0)
        script.at(10.0).crash_memory(0).recover(at=11.0, wipe=True)
        script.at(20.0).crash_process(1).recover(at=25.0)
        config = ClusterConfig(
            2, 3, latency=AdversarialLatency(slow_p1_writes), deadline=1000
        )
        cluster = Cluster(ProtectedMemoryPaxos(), config, script)
        kernel = cluster.kernel
        kernel.omega = crash_aware_omega(kernel)
        cluster.start(["a", "b"])

        def copies_of_a():
            return {
                (mid, key): slot.acc_prop
                for mid, memory in enumerate(kernel.memories)
                for key, slot in memory.items()
                if isinstance(slot, PmpSlot) and slot.value == "a"
            }

        kernel.run(until=15.0)
        assert kernel.metrics.decisions[1].value == "a"
        before = copies_of_a()
        assert set(before) == {(1, (REGION, 0, 1)), (2, (REGION, 0, 1))}
        kernel.run(until=200.0)
        assert not kernel.metrics.violations
        assert chosen_value(kernel) == "a"
        # the restart re-committed 'a' under a newer ballot
        after = copies_of_a()
        assert set(after) >= set(before)
        assert all(after[copy] > ballot for copy, ballot in before.items())


class TestMemoryFailures:
    def test_tolerates_memory_minority(self):
        faults = FaultScript().at(0.0).crash_memory(1)
        result = run_consensus(ProtectedMemoryPaxos(), 3, 3, faults=faults)
        assert result.all_decided
        assert result.earliest_decision_delay == 2.0

    def test_tolerates_two_of_five(self):
        faults = FaultScript().at(0.0).crash_memory(0).at(0.0).crash_memory(4)
        result = run_consensus(ProtectedMemoryPaxos(), 3, 5, faults=faults)
        assert result.all_decided and result.agreed

    def test_memory_majority_crash_blocks(self):
        faults = FaultScript().at(0.0).crash_memory(0).at(0.0).crash_memory(1)
        result = run_consensus(
            ProtectedMemoryPaxos(), 3, 3, faults=faults, deadline=500
        )
        assert not result.all_decided

    def test_mid_run_memory_crash(self):
        faults = FaultScript().at(1.5).crash_memory(2)
        result = run_consensus(ProtectedMemoryPaxos(), 3, 3, faults=faults)
        assert result.all_decided and result.agreed


class TestPermissionMechanics:
    def test_takeover_naks_old_leader(self):
        """A new leader's grab makes the old leader's writes fail — the
        uncontended-instantaneous guarantee."""
        schedule = [(0.0, 0), (1.0, 1)]
        result = run_consensus(
            ProtectedMemoryPaxos(), 2, 3, omega=leader_schedule(schedule),
            deadline=5000,
        )
        assert result.agreed and result.valid

    def test_flapping_leadership_stays_safe(self):
        schedule = [(float(t), t % 2) for t in range(0, 100, 5)]
        result = run_consensus(
            ProtectedMemoryPaxos(), 2, 3, omega=leader_schedule(schedule),
            deadline=10_000, seed=3,
        )
        assert result.agreed or not result.decided_values

    def test_non_leader_cannot_write(self):
        result = run_consensus(ProtectedMemoryPaxos(), 3, 3)
        memory = result.kernel.memories[0]
        perm = memory.permission_of("pmp")
        assert perm.can_write(0)
        assert not perm.can_write(1)
        assert not perm.can_write(2)


class TestAsynchrony:
    @pytest.mark.parametrize("seed", [2, 4, 6])
    def test_safe_under_jitter(self, seed):
        result = run_consensus(
            ProtectedMemoryPaxos(), 3, 3, latency=JitteredSynchrony(0.6),
            seed=seed, deadline=5000,
        )
        assert result.agreed and result.valid

    @pytest.mark.parametrize("seed", [1, 9])
    def test_live_after_gst(self, seed):
        result = run_consensus(
            ProtectedMemoryPaxos(), 2, 3,
            latency=PartialSynchrony(gst=50, chaos=10), seed=seed,
            deadline=20_000,
        )
        assert result.all_decided and result.agreed


def _run(kernel, pid, gen):
    task = kernel.spawn(pid, "prepare", gen)
    kernel.run(until=kernel.now + 50.0)
    return task.result


class TestTakeover:
    def test_outbid_prepare_learns_the_highest_ballot(self):
        kernel = make_kernel(3, 3, regions=pmp_regions(3))
        config = SmrConfig(region=REGION, topic=REGION)
        p1, p2, p3 = (
            ReplicatedLog(env_of(kernel, pid), lambda _slot, _value: None, config)
            for pid in range(3)
        )
        # p2's probe is written first at every memory, p3's higher one after
        assert _run(kernel, 1, p2._prepare(0, Ballot(3, 1), 2, "v1")) == "v1"
        assert _run(kernel, 2, p3._prepare(0, Ballot(5, 2), 2, "v2")) == "v2"
        assert _run(kernel, 0, p1._prepare(0, Ballot(1, 0), 2, "v0")) is None
        # the whole snapshot is folded, not cut at the first outbidding slot
        assert p1.highest_seen == Ballot(5, 2)


_ballots = st.builds(Ballot, st.integers(0, 3), st.integers(0, 2))


@st.composite
def _region_view(draw):
    view = {}
    for slot in draw(st.lists(st.integers(0, 3), unique=True, max_size=4)):
        accepted = draw(st.none() | _ballots)
        # one accepted ballot carries one value per key[1]
        value = BOTTOM if accepted is None or draw(st.booleans()) else (slot, accepted)
        view[("r", slot)] = PmpSlot(draw(_ballots), accepted, value)
    if draw(st.booleans()):
        view[("r", "wm")] = draw(st.integers(0, 3))  # not a PmpSlot: skipped
    return view


class TestFoldTakeoverViews:
    @settings(max_examples=200, deadline=None)
    @given(
        views=st.lists(_region_view(), min_size=1, max_size=3),
        probe=st.integers(0, 3),
        ballot=_ballots,
        data=st.data(),
    )
    def test_no_order_of_views_or_keys_changes_the_fold(self, views, probe, ballot, data):
        shuffled = [
            dict(data.draw(st.permutations(list(view.items()))))
            for view in data.draw(st.permutations(views))
        ]
        probe_key = ("r", probe)
        assert fold_takeover_views(shuffled, probe_key, ballot) == fold_takeover_views(
            views, probe_key, ballot
        )
