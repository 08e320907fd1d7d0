"""Recovery under churn: the scenario catalog and the acceptance runs.

The headline run scripts a partitioned-then-healed minority AND a
crashed-then-recovered leader into one consensus instance: both rejoin and
the cluster still agrees.  For the sharded service, one shard's leader
churns (crash + recover) while the untouched shards keep committing, and
the churned shard's replicas converge again after recovery.

Leader recovery itself is pinned twice: its cost is flat in the log length
(at most two prepares, then one chain per ``RECOVERY_WINDOW`` adopted
slots), and a window that is NAKed — a rival's permission grab or a memory
crash landing between or inside windows — commits nothing, is re-prepared,
and loses no acknowledged put.

The pipelined commit is pinned the same way: with two slots posted, a
rival's grab or a memory crash at any quarter-delay applies nothing out of
slot order, decides no NAKed slot before its serial re-drive, and loses no
acknowledged put — and the property fails on a settle that ignores NAKs.
"""

import math
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from repro import (
    ClosedLoopClient,
    FaultScript,
    JitteredSynchrony,
    ProtectedMemoryPaxos,
    ShardConfig,
    ShardedKV,
)
from repro.consensus.base import ConsensusProtocol
from repro.consensus.omega import crash_aware_omega, leader_schedule
from repro.consensus.protected_memory_paxos import PmpSlot
from repro.core import scenarios
from repro.check.regressions import seeded_bug
from repro.core.cluster import Cluster, ClusterConfig
from repro.obs.runtime import attach
from repro.shard.service import shard_region
from repro.shard.workload import ScriptedClient
from repro.sim.faults import PermissionChange
from repro.sim.latency import NominalLatency
from repro.smr import log as smr_log
from repro.smr.kv import KVCommand, KVStateMachine
from repro.smr.log import (
    RECOVERY_WINDOW,
    RETRY_BACKOFF,
    Batch,
    ReplicatedLog,
    smr_regions,
)
from repro.types import MemoryId, is_bottom


class TestScenarioCatalog:
    def test_partition_minority_rejoins_after_heal(self):
        cluster = scenarios.partition_minority(ProtectedMemoryPaxos(), heal_at=25.0)
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed and result.valid
        # the majority decides while the minority is cut off; the minority
        # only rejoins (through the memories) after the heal
        assert result.metrics.decisions[2].decided_at > 25.0
        assert result.metrics.decisions[0].decided_at < 25.0
        kinds = [record.kind for record in cluster.kernel.metrics.fault_timeline]
        assert kinds == ["partition", "heal"]
        assert cluster.kernel.network.partition_dropped > 0

    def test_crash_recover_leader(self):
        cluster = scenarios.crash_recover_leader(
            ProtectedMemoryPaxos(), crash_at=1.0, recover_at=30.0
        )
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed and result.valid
        # the recovered leader decides after its restart, same value
        assert result.metrics.decisions[0].decided_at > 30.0
        assert cluster.kernel.metrics.downtime_spans("p1") == [(1.0, 30.0)]

    def test_permission_storm_delays_but_never_derails(self):
        storm_end = 0.5 + 5 * 1.5
        cluster = scenarios.permission_storm(
            ProtectedMemoryPaxos(), storm_at=0.5, shots=6, spacing=1.5
        )
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed and result.valid
        records = cluster.kernel.metrics.faults_of("perm_change")
        assert len(records) == 6 * 3 and all(r.detail["ok"] for r in records)
        # every grab steals the region, so the decision lands after the storm
        assert result.metrics.decisions[0].decided_at > storm_end

    def test_rolling_restart_full_window(self):
        cluster = scenarios.rolling_restart(
            ProtectedMemoryPaxos(), first_at=1.0, period=16.0
        )
        cluster.start(["a", "b", "c"])
        cluster.kernel.run(until=60.0)
        metrics = cluster.kernel.metrics
        assert len(metrics.faults_of("crash_proc")) == 3
        assert len(metrics.faults_of("recover_proc")) == 3
        assert not metrics.violations
        assert len(metrics.decisions) == 3
        assert len({record.value for record in metrics.decisions.values()}) == 1

    def test_recovered_process_redecides_same_value(self):
        """A process that decided, crashed, and recovered must not revoke:
        its restarted incarnation re-adopts the same value (a different one
        would raise an AgreementViolation through the strict ledger)."""
        cluster = scenarios.rolling_restart(ProtectedMemoryPaxos())
        cluster.start(["a", "b", "c"])
        cluster.kernel.run(until=80.0)
        assert not cluster.kernel.metrics.violations


class TestAlignedRecoverySafety:
    def test_recovered_aligned_leader_must_not_override_commit(self):
        """Regression: a crashed-and-recovered Aligned Paxos initial leader
        must not re-run the first-attempt phase-1 skip.  Setup: p1 commits
        'b' while p0 is partitioned away; p0 then takes over through the
        memories, adopts and decides 'b' (holding exclusive permission),
        crashes, and recovers.  Pre-fix, the restarted p0 skipped phase 1
        and decided its own input 'a' — an agreement violation the strict
        ledger raises."""
        from repro import AlignedConfig, AlignedPaxos
        from repro.consensus.omega import leader_schedule

        script = FaultScript()
        script.at(0.0).partition({0}, {1, 2}).heal(at=60.0)
        script.at(30.0).crash_process(0).recover(at=50.0)
        cluster = Cluster(
            AlignedPaxos(AlignedConfig(variant="protected")),
            ClusterConfig(3, 3, deadline=60_000),
            script,
        )
        cluster.kernel.omega = leader_schedule([(0.0, 1), (10.0, 0)])
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed and result.valid
        assert result.decided_values == {"b"}


class TestCombinedAcceptance:
    def test_partitioned_minority_and_recovered_leader_both_rejoin(self):
        """The ISSUE's scripted acceptance run, in one timeline: the leader
        crashes mid-attempt and recovers; the minority is partitioned away
        and healed.  Everybody decides one value."""
        script = FaultScript()
        script.at(1.0).crash_process(0).recover(at=30.0)
        script.at(2.0).partition({0, 1}, {2}).heal(at=25.0)
        cluster = Cluster(
            ProtectedMemoryPaxos(),
            ClusterConfig(3, 3, deadline=60_000),
            script,
        )
        cluster.kernel.omega = crash_aware_omega(cluster.kernel)
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed and result.valid
        decisions = result.metrics.decisions
        # the interim leader decided during the churn window...
        assert decisions[1].decided_at < 25.0
        # ...the recovered leader re-adopted after its restart, and the
        # partitioned minority rejoined after the heal
        assert decisions[0].decided_at > 30.0
        assert decisions[2].decided_at > 25.0
        assert len({record.value for record in decisions.values()}) == 1
        timeline = [r.kind for r in cluster.kernel.metrics.fault_timeline]
        assert timeline == ["crash_proc", "partition", "heal", "recover_proc"]


class _PoolKeys:
    """Key distribution drawing only from one shard's key pool."""

    def __init__(self, keys):
        self._keys = list(keys)

    def next_key(self, rng):
        return self._keys[rng.randrange(len(self._keys))]


def _shard_key_pools(service, per_shard=4):
    pools = {g: [] for g in range(service.config.n_shards)}
    index = 0
    while any(len(pool) < per_shard for pool in pools.values()):
        key = f"k{index}"
        index += 1
        shard = service.partitioner.shard_for(key)
        if len(pools[shard]) < per_shard:
            pools[shard].append(key)
    return pools


class TestShardedChurn:
    CRASH_AT = 40.0
    RECOVER_AT = 250.0

    def _run(self):
        script = FaultScript()
        script.at(self.CRASH_AT).crash_process(1).recover(at=self.RECOVER_AT)
        service = ShardedKV(
            ShardConfig(
                n_shards=3,
                n_processes=3,
                batch_max=4,
                seed=7,
                retry_timeout=25.0,
                deadline=5_000.0,
                faults=script,
            )
        )
        assert service.shards_led_by(1) == [1]
        pools = _shard_key_pools(service)
        clients = [
            ClosedLoopClient(client_id=0, n_ops=25, keys=_PoolKeys(pools[0]),
                             think_time=8.0, pid=0),
            ClosedLoopClient(client_id=1, n_ops=25, keys=_PoolKeys(pools[2]),
                             think_time=8.0, pid=2),
            ClosedLoopClient(client_id=2, n_ops=8, keys=_PoolKeys(pools[1]),
                             think_time=5.0, pid=0),
        ]
        samples = {}

        def capture(tag):
            samples[tag] = {
                g: service.machines[(0, g)].applied_count for g in range(3)
            }

        service.kernel.call_at(self.CRASH_AT - 1.0, lambda: capture("pre"))
        service.kernel.call_at(self.RECOVER_AT - 1.0, lambda: capture("down"))
        report = service.run_workload(clients)
        return service, report, samples

    def test_churning_shard_recovers_while_others_serve(self):
        service, report, samples = self._run()
        assert report.ok, "every request must complete despite the churn"
        # the run converges shortly after recovery, not at the deadline
        assert report.elapsed < 1_000.0
        # untouched shards kept committing while the churned leader was down
        assert samples["down"][0] > samples["pre"][0]
        assert samples["down"][2] > samples["pre"][2]
        # the churned shard stalled during the downtime window
        assert samples["down"][1] <= samples["pre"][1] + 1

    def test_churned_replicas_converge_exactly(self):
        service, report, _samples = self._run()
        assert report.ok
        for g in range(3):
            counts = {
                service.machines[(pid, g)].applied_count for pid in range(3)
            }
            stores = {
                tuple(sorted(service.machines[(pid, g)].data.items()))
                for pid in range(3)
            }
            assert len(counts) == 1, f"shard {g} replicas diverged: {counts}"
            assert len(stores) == 1, f"shard {g} stores diverged"

    def test_retries_resume_after_leader_returns(self):
        service, report, _samples = self._run()
        assert report.ok
        # frontends on p1's peers retried into the downtime window
        assert service.frontends[0].retries > 0
        spans = service.kernel.metrics.downtime_spans("p2")
        assert spans == [(self.CRASH_AT, self.RECOVER_AT)]


# ---------------------------------------------------------------------------
# leader recovery: flat in the log length, abort-safe per window
# ---------------------------------------------------------------------------
DOWNTIME = 20.0
#: nominal cost of one memory round trip (a prepare chain, a phase-2 fan-out)
ROUND_TRIP = 2.0


def _crashed_after(n_slots, read_mode="consensus"):
    """A one-shard service whose leader commits *n_slots* acknowledged puts
    (one per slot) and crashes; recovery is armed ``DOWNTIME`` later.
    Returns ``(service, runtime, leader, recover_at)``."""
    service = ShardedKV(
        ShardConfig(
            n_shards=1, n_processes=3, batch_max=1, seed=7, retry_timeout=5.0,
            deadline=1_000_000.0, read_mode=read_mode,
        )
    )
    runtime = attach(service.kernel, profile=False)
    leader = service.leader_of(0)
    puts = [("put", f"k{i}", i) for i in range(n_slots)]
    report = service.run_workload(
        [ScriptedClient(0, puts, pid=(leader + 1) % 3)]
    )
    assert report.ok
    assert service.logs[(leader, 0)].applied_upto == n_slots - 1
    kernel = service.kernel
    recover_at = kernel.now + DOWNTIME
    kernel.crash_process(leader)
    kernel.call_at(recover_at, lambda: kernel.recover_process(leader))
    return service, runtime, leader, recover_at


def _put_after_recovery(service, leader):
    report = service.run_workload(
        [ScriptedClient(1, [("put", "fresh", "new")], pid=(leader + 1) % 3)]
    )
    assert report.ok


def _check_flat_recovery(n_slots):
    """Recover after *n_slots* and hold the O(1) + windows bound."""
    service, runtime, leader, recover_at = _crashed_after(n_slots)
    _put_after_recovery(service, leader)
    assert runtime.dropped == 0
    [recovery] = [s for s in runtime.spans if s.name == "log.recover"]
    windows = math.ceil(n_slots / RECOVERY_WINDOW)
    assert recovery.attrs["prepares"] <= 2
    assert recovery.attrs["adopted"] == n_slots
    assert recovery.attrs["windows"] == windows
    # the prepares and the windows are the span's children, so the
    # critical path through an outage tail is attributed to them
    children = [s.name for s in runtime.spans if s.parent_id == recovery.span_id]
    assert children.count("log.prepare") == recovery.attrs["prepares"]
    assert children.count("log.phase2") == windows
    [first_new] = [
        s for s in runtime.spans
        if s.name == "log.phase2" and s.attrs["slot"] == n_slots
    ]
    # two prepares, one back-off between them, one fan-out per window and
    # one more for the new slot itself
    bound = 2 * ROUND_TRIP + 2 * RETRY_BACKOFF + (windows + 1) * ROUND_TRIP
    assert first_new.end - recover_at <= bound
    assert not service.replica_divergence()


def _early_return_fold(views, probe_key, prop_nr):
    # The fold before this PR: report the FIRST register that outbids the
    # probe, so a failed prepare learns one slot's worth of ballot.
    best_per_slot = {}
    for view in views:
        for key, other in view.items():
            if key == probe_key or not isinstance(other, PmpSlot):
                continue
            if other.min_prop > prop_nr:
                return other.min_prop, best_per_slot
            if other.acc_prop is not None and not is_bottom(other.value):
                current = best_per_slot.get(key[1])
                if current is None or other.acc_prop > current[0]:
                    best_per_slot[key[1]] = (other.acc_prop, other.value)
    return prop_nr, best_per_slot


class TestLeaderRecoveryIsFlatInLogLength:
    @pytest.mark.parametrize("n_slots", [8, 64, 256, 1024])
    def test_two_prepares_then_one_chain_per_window(self, n_slots):
        _check_flat_recovery(n_slots)

    def test_the_bound_bites_on_the_early_return_fold(self):
        # a test-only patch, as check.regressions.seeded_bug re-seeds its bugs
        with mock.patch.object(smr_log, "fold_takeover_views", _early_return_fold):
            with pytest.raises(AssertionError):
                _check_flat_recovery(64)

    def test_watermark_rides_last_in_the_window_chain(self):
        """With the read plane on, the window's chain ends in ONE watermark
        write, for the window's last slot."""
        service, runtime, leader, _at = _crashed_after(10, read_mode="quorum")
        _put_after_recovery(service, leader)
        [recovery] = [s for s in runtime.spans if s.name == "log.recover"]
        [window] = [
            s for s in runtime.spans
            if s.name == "log.phase2" and s.parent_id == recovery.span_id
        ]
        legs = [
            s for s in runtime.spans
            if s.kind == "memop" and s.parent_id == window.span_id
        ]
        # 0..9 re-committed in one window: ten slot writes, ONE watermark
        assert len(legs) == 3 and all(leg.attrs["ops"] == 10 + 1 for leg in legs)
        rx = service.logs[(leader, 0)].rx_region
        for memory in service.kernel.memories:
            # one register per writer, at or past "fresh" (slot 10): the
            # put's resends may already be in flight behind it
            [mark] = [v for k, v in memory.items() if k[0] == rx and k[-1] == leader]
            assert mark >= 10
        assert not service.replica_divergence()


class _GapHarness(ConsensusProtocol):
    """p1 commits slots 0, 1 and 3 — never 2 — then crashes and recovers."""

    name = "smr-gap"

    def __init__(self):
        self.logs = {}
        self.machines = {}

    def regions(self, n, m):
        return smr_regions(n)

    def _replica(self, env, recovered):
        machine = self.machines[int(env.pid)] = KVStateMachine()
        log = self.logs[int(env.pid)] = ReplicatedLog(
            env, machine.apply, recovered=recovered
        )
        return log, [("listener", log.listener()), ("sync", log.sync_server())]

    def tasks(self, env, value):
        log, tasks = self._replica(env, recovered=False)

        def leader():
            for slot in (0, 1, 3):
                yield from log.propose(slot, KVCommand("put", f"k{slot}", slot))

        if int(env.pid) == 0:
            tasks.append(("leader", leader()))
        return tasks

    def recovery_tasks(self, env, value):
        log, tasks = self._replica(env, recovered=True)
        return tasks + [("recover", log.recover_leader())]


class TestRecoveryAtTheLogLevel:
    def test_a_hole_in_the_adopted_prefix_is_committed_as_a_no_op(self):
        harness = _GapHarness()
        script = FaultScript()
        script.at(10.0).crash_process(0).recover(at=20.0)
        cluster = Cluster(harness, ClusterConfig(3, 3, deadline=1_000), script)
        cluster.start([None] * 3)
        cluster.kernel.run(until=80.0)
        for pid in range(3):
            log = harness.logs[pid]
            assert log.applied_upto == 3
            assert log.decided[2] == Batch()
            assert harness.machines[pid].data == {"k0": 0, "k1": 1, "k3": 3}
        assert not cluster.kernel.metrics.violations

    def test_windows_wait_while_somebody_else_leads(self):
        """Ω names p2 when p1 restarts: p1 re-prepares but pushes no window
        until leadership returns — the per-slot path parks on the gate."""
        harness = _GapHarness()
        script = FaultScript()
        script.at(10.0).crash_process(0).recover(at=20.0)
        cluster = Cluster(harness, ClusterConfig(3, 3, deadline=1_000), script)
        cluster.kernel.omega = leader_schedule([(0.0, 0), (15.0, 1), (60.0, 0)])
        parked = []
        cluster.kernel.call_at(
            59.0, lambda: parked.append(harness.logs[0].applied_upto)
        )
        cluster.start([None] * 3)
        cluster.kernel.run(until=120.0)
        assert parked == [-1]
        assert [harness.logs[pid].applied_upto for pid in range(3)] == [3, 3, 3]
        assert not cluster.kernel.metrics.violations


class _RecoverySpy:
    """Chronological record of ``recover_leader``: every prepare (did it
    succeed, what it adopted) and every window (did it commit, its entries,
    which of them are decided locally afterwards)."""

    def __init__(self):
        self.events = []
        self._recovering = False

    @contextmanager
    def installed(self):
        recover = ReplicatedLog.recover_leader
        prepare, phase2 = ReplicatedLog._prepare, ReplicatedLog._phase2

        def spied_recover(log):
            self._recovering = True
            try:
                yield from recover(log)
            finally:
                self._recovering = False

        def spied_prepare(log, slot, prop_nr, majority, command):
            adopted = yield from prepare(log, slot, prop_nr, majority, command)
            if self._recovering:
                self.events.append(
                    ("prepare", adopted is not None, dict(log.adopt_cache))
                )
            return adopted

        def spied_phase2(log, prop_nr, majority, entries):
            committed = yield from phase2(log, prop_nr, majority, entries)
            if self._recovering:
                decided = [s for s, _v in entries if s in log.decided]
                self.events.append(("window", committed, dict(entries), decided))
            return committed

        patch = mock.patch.object
        with patch(ReplicatedLog, "recover_leader", spied_recover), \
                patch(ReplicatedLog, "_prepare", spied_prepare), \
                patch(ReplicatedLog, "_phase2", spied_phase2):
            yield self


_WINDOW_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestWindowAbortAndPartialApplication:
    def _run(self, n_slots, window, fault, at, stagger, read_mode="consensus"):
        """Recover after *n_slots* with *fault* landing *at* delays later:
        ``"grab"`` is the changePermission a ``_switch_leader``'s new leader
        issues, reaching memory ``m`` after ``stagger[m]`` more delays (so it
        can split one window's chains); any other value is the memory to
        crash for 15 delays."""
        spy = _RecoverySpy()
        with mock.patch.object(smr_log, "RECOVERY_WINDOW", window), spy.installed():
            service, _runtime, leader, recover_at = _crashed_after(n_slots, read_mode)
            kernel = service.kernel
            when = recover_at + at
            if fault == "grab":
                rival = (leader + 1) % 3
                for mid, offset in enumerate(stagger):
                    kernel.schedule_fault(
                        when + offset,
                        PermissionChange(rival, shard_region(0), mids=(mid,)),
                    )
            else:
                victim = MemoryId(fault)
                kernel.call_at(when, lambda: kernel.crash_memory(victim))
                kernel.call_at(when + 15.0, lambda: kernel.recover_memory(victim))
            _put_after_recovery(service, leader)
        return service, spy.events

    def _check(self, n_slots, service, events):
        failed = 0
        for index, event in enumerate(events):
            if event[0] != "window":
                continue
            _kind, committed, entries, decided = event
            if committed:
                assert decided == sorted(entries)
                continue
            failed += 1
            # a NAKed window commits none of its slots locally...
            assert decided == []
            # ...and the retry re-prepares, adopting what the chain left
            later = [e for e in events[index + 1:] if e[0] == "prepare"]
            assert events[index + 1][0] == "prepare"
            adopted = next(cache for _k, ok, cache in later if ok)
            for slot, value in entries.items():
                assert adopted[slot] == value
        # no acknowledged put is lost, anywhere
        expected = {f"k{i}": i for i in range(n_slots)}
        expected["fresh"] = "new"
        for pid in range(3):
            assert service.machines[(pid, 0)].data == expected
        assert not service.replica_divergence()
        assert not service.kernel.metrics.violations
        return failed

    @_WINDOW_SETTINGS
    @given(
        n_slots=st.integers(1, 24),
        window=st.integers(1, 6),
        fault=st.just("grab") | st.integers(0, 2),
        at=st.integers(0, 120).map(lambda quarter: quarter / 4),
        stagger=st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0])] * 3),
        read_mode=st.sampled_from(["consensus", "quorum"]),
    )
    @example(n_slots=12, window=4, fault="grab", at=12.0, stagger=(0.0, 0.0, 0.0),
             read_mode="consensus")
    @example(n_slots=12, window=4, fault="grab", at=12.0, stagger=(1.0, 0.0, 2.0),
             read_mode="quorum")
    def test_recovery_survives_a_fault_at_any_window_boundary(
        self, n_slots, window, fault, at, stagger, read_mode
    ):
        service, events = self._run(n_slots, window, fault, at, stagger, read_mode)
        event(f"NAKed windows: {self._check(n_slots, service, events)}")

    def test_a_grab_inside_a_window_naks_it_and_is_re_prepared(self):
        """The property above is not vacuous: this grab lands at one memory
        before the second window's chain and at the others after it."""
        service, events = self._run(12, 4, "grab", 12.0, (0.0, 2.0, 2.0))
        assert self._check(12, service, events) >= 1
        windows = [e for e in events if e[0] == "window"]
        assert [sorted(e[2]) for e in windows if e[1]] == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]
        ]


# ---------------------------------------------------------------------------
# the pipelined commit: two slots in flight under a grab or a memory crash
# ---------------------------------------------------------------------------
class _PipelineSpy:
    """Chronological record of the leader's proposer: every posted slot,
    every settle of a posted slot (did its verdict carry a NAK, did it
    commit, is the slot decided locally afterwards, with its own value)
    and every serial proposal, plus the peak number of slots in flight."""

    def __init__(self):
        self.events = []
        self.in_flight = 0
        self.peak = 0

    @contextmanager
    def installed(self):
        post, settle = ReplicatedLog.post_batch, ReplicatedLog.settle
        propose = ReplicatedLog.propose

        def spied_post(log, slot, commands, notify):
            posted = yield from post(log, slot, commands, notify)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.events.append(("post", slot))
            return posted

        def spied_settle(log, posted):
            naked = posted.state.naked > 0
            committed = yield from settle(log, posted)
            if posted.state.notify is not None:  # not the blocking _phase2
                self.in_flight -= 1
                slot, value = posted.entries[0]
                self.events.append(
                    ("settle", slot, naked, committed, slot in log.decided,
                     log.decided.get(slot) is value)
                )
            return committed

        def spied_propose(log, slot, command, after_nak=False):
            self.events.append(("propose", slot, after_nak))
            decided = yield from propose(log, slot, command, after_nak)
            self.events.append(("proposed", slot))
            return decided

        patch = mock.patch.object
        with patch(ReplicatedLog, "post_batch", spied_post), \
                patch(ReplicatedLog, "settle", spied_settle), \
                patch(ReplicatedLog, "propose", spied_propose):
            yield self


class _HotReader:
    """Reads one key back to back; keeps every returned value."""

    def __init__(self, client_id, n_ops, pid):
        self.client_id = client_id
        self.n_ops = n_ops
        self.pid = pid
        self.reads = []

    def task(self, env, frontend, recorder):
        for request_id in range(self.n_ops):
            command = KVCommand(
                "get", "hot", client=self.client_id, request_id=request_id
            )
            started = env.now
            result = yield from frontend.get(command)
            self.reads.append(result)
            recorder.record(command, result, env.now - started)


_WRITERS, _PUTS = 5, 6


class TestTwoSlotsInFlight:
    def _run(self, fault, at, stagger, jitter, read_mode):
        """Five writers (distinct keys), one writer counting ``hot`` up and
        one reader of ``hot`` against a one-shard, ``batch_max=2`` service:
        the queue backs up at once, so slots ``k`` and ``k+1`` are both
        posted when *fault* lands *at* delays in (``"grab"``: a rival's
        exclusive grab reaching memory ``m`` after ``stagger[m]`` more
        delays; otherwise the memory to crash for 15 delays)."""
        spy = _PipelineSpy()
        with spy.installed():
            service = ShardedKV(
                ShardConfig(
                    n_shards=1, n_processes=3, batch_max=2, seed=7,
                    retry_timeout=5.0, deadline=100_000.0, read_mode=read_mode,
                    latency=JitteredSynchrony(0.2) if jitter else NominalLatency(),
                )
            )
            kernel = service.kernel
            if fault == "grab":
                rival = (service.leader_of(0) + 1) % 3
                for mid, offset in enumerate(stagger):
                    kernel.schedule_fault(
                        at + offset,
                        PermissionChange(rival, shard_region(0), mids=(mid,)),
                    )
            else:
                victim = MemoryId(fault)
                kernel.call_at(at, lambda: kernel.crash_memory(victim))
                kernel.call_at(at + 15.0, lambda: kernel.recover_memory(victim))
            clients = [
                ScriptedClient(
                    i, [("put", f"c{i}k{j}", j) for j in range(_PUTS)], pid=i % 3
                )
                for i in range(_WRITERS)
            ]
            clients.append(
                ScriptedClient(
                    _WRITERS, [("put", "hot", j) for j in range(2 * _PUTS)], pid=1
                )
            )
            reader = _HotReader(_WRITERS + 1, 3 * _PUTS, pid=2)
            report = service.run_workload(clients + [reader])
        assert report.ok
        return service, spy, reader

    def _check(self, service, spy, reader, jitter, read_mode):
        """Returns ``(NAKed settles, later slots committed past a NAK)``."""
        events = spy.events
        naked = overtaken = 0
        for index, record in enumerate(events):
            if record[0] != "settle":
                continue
            _kind, slot, nak, committed, decided, own_value = record
            if not nak:
                # a majority ACK with no NAK decides the slot, with the
                # value this leader posted — whatever its neighbours did
                assert committed and decided and own_value
                continue
            naked += 1
            # a NAKed slot decides nothing locally...
            assert not committed and not decided
            # ...until its serial re-drive, before which nothing is posted
            rest = events[index + 1:]
            redrive = rest.index(("proposed", slot))
            assert any(e[:2] == ("propose", slot) for e in rest[:redrive])
            assert not [e for e in rest[:redrive] if e[0] == "post"]
            overtaken += sum(
                1 for e in rest[:redrive] if e[0] == "settle" and e[3] and e[1] > slot
            )
        # every slot is launched once, plus one re-drive per NAK: a fresh
        # batch never lands on a slot that is waiting for its re-drive
        launches = Counter(e[1] for e in events if e[0] in ("post", "propose"))
        renaked = Counter(e[1] for e in events if e[0] == "settle" and e[2])
        assert launches == Counter(dict.fromkeys(launches, 1)) + renaked
        # nothing is applied out of slot order, on any replica
        for pid in range(3):
            slots = [entry[0] for entry in service.machines[(pid, 0)].applied]
            assert slots == sorted(slots)
            assert sorted(set(slots)) == list(range(slots[-1] + 1))
        # every acknowledged put survives on every replica
        expected = {f"c{i}k{j}": j for i in range(_WRITERS) for j in range(_PUTS)}
        expected["hot"] = 2 * _PUTS - 1
        for pid in range(3):
            assert service.machines[(pid, 0)].data == expected
        assert not service.replica_divergence()
        assert not service.kernel.metrics.violations
        assert service.kernel.metrics.staleness_violations == 0
        # two sequential reads never see new-then-old
        seen = [-1 if value is None else value for value in reader.reads]
        assert seen == sorted(seen)
        if jitter and read_mode == "quorum":
            # the watermark register must not regress: one chain at a time
            assert spy.peak == 1
        return naked, overtaken

    @_WINDOW_SETTINGS
    @given(
        fault=st.just("grab") | st.integers(0, 2),
        at=st.integers(0, 100).map(lambda quarter: quarter / 4),
        stagger=st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0])] * 3),
        jitter=st.booleans(),
        read_mode=st.sampled_from(["consensus", "quorum"]),
    )
    @example(fault="grab", at=20.0, stagger=(0.0, 2.0, 2.0), jitter=True,
             read_mode="consensus")
    @example(fault="grab", at=6.0, stagger=(0.0, 0.0, 0.0), jitter=False,
             read_mode="quorum")
    def test_a_fault_at_any_quarter_delay_with_two_slots_posted(
        self, fault, at, stagger, jitter, read_mode
    ):
        service, spy, reader = self._run(fault, at, stagger, jitter, read_mode)
        naked, overtaken = self._check(service, spy, reader, jitter, read_mode)
        event(f"slots in flight: {spy.peak}")
        event(f"NAKed settles: {naked}, later slots decided past one: {overtaken}")

    def test_a_later_slot_is_decided_past_a_naked_neighbour(self):
        """The property is not vacuous: under jitter this grab reaches one
        memory between slot 17's chain and slot 18's — 17 NAKs, 18
        majority-ACKs at the other two and is decided with its own value
        before 17 is re-driven."""
        run = self._run("grab", 20.0, (0.0, 2.0, 2.0), True, "consensus")
        naked, overtaken = self._check(*run, True, "consensus")
        assert run[1].peak == 2
        assert (naked, overtaken) == (1, 1)
        events = run[1].events
        nak = events.index(("settle", 17, True, False, False, False))
        ack = events.index(("settle", 18, False, True, True, True))
        assert nak < ack < events.index(("propose", 17, True))

    def test_the_pipeline_fills_unless_the_watermark_could_regress(self):
        for jitter, read_mode, peak in [
            (False, "consensus", 2), (False, "quorum", 2),
            (True, "consensus", 2), (True, "quorum", 1),
        ]:
            _service, spy, _reader = self._run(0, 1_000.0, (), jitter, read_mode)
            assert spy.peak == peak, (jitter, read_mode)

    def test_the_property_bites_on_a_nak_settled_as_committed(self):
        with seeded_bug("nak-settled-as-committed"):
            run = self._run("grab", 20.0, (0.0, 2.0, 2.0), True, "consensus")
            with pytest.raises(AssertionError):
                self._check(*run, True, "consensus")
