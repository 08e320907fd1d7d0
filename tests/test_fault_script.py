"""The FaultScript DSL, typed fault-timer entries, and fault primitives:
crash/recover for processes and memories, partitions, link chaos, and
permission storms — each exercised directly against the kernel."""

import pytest

from repro.errors import ConfigurationError
from repro.failures.script import FaultScript
from repro.mem.permissions import Permission
from repro.sim.event_queue import EV_CALL, EV_FAULT
from repro.sim.faults import (
    FK_CRASH_PROC,
    FK_HEAL,
    FK_PARTITION,
    FK_PERM_CHANGE,
    FK_RECOVER_PROC,
    LinkFault,
)
from repro.types import MemoryId, ProcessId

from tests.conftest import env_of, make_kernel, open_region


class TestDsl:
    def test_crash_recover_chain(self):
        script = FaultScript().at(5.0).crash_process(1).recover(at=20.0)
        kinds = [(t, e.kind) for t, e in script.events]
        assert kinds == [(5.0, FK_CRASH_PROC), (20.0, FK_RECOVER_PROC)]

    def test_partition_heal_chain(self):
        script = FaultScript().at(2.0).partition({0, 1}, {2}).heal(at=9.0)
        kinds = [(t, e.kind) for t, e in script.events]
        assert kinds == [(2.0, FK_PARTITION), (9.0, FK_HEAL)]

    def test_chains_keep_flowing_through_handles(self):
        script = (
            FaultScript()
            .at(1.0).crash_process(0).recover(at=4.0)
            .at(2.0).partition({0}, {1, 2})
            .at(3.0).crash_memory(1).recover(at=6.0, wipe=True)
        )
        assert len(script.events) == 5

    def test_storm_expands_to_shots(self):
        script = FaultScript().at(1.0).permission_storm(
            pid=2, region="r", shots=3, spacing=0.5
        )
        times = [t for t, e in script.events if e.kind == FK_PERM_CHANGE]
        assert times == [1.0, 1.5, 2.0]

    def test_faulty_processes_reflect_end_of_run(self):
        script = (
            FaultScript()
            .at(1.0).crash_process(0).recover(at=5.0)
            .at(2.0).crash_process(1)
        )
        script.make_byzantine(2, object())
        assert script.faulty_processes == {1, 2}

    def test_validate_rejects_unknown_subjects(self):
        with pytest.raises(ConfigurationError):
            FaultScript().at(1.0).crash_process(7).validate(3, 3)
        with pytest.raises(ConfigurationError):
            FaultScript().at(1.0).crash_memory(9).validate(3, 3)
        with pytest.raises(ConfigurationError):
            FaultScript().at(1.0).permission_storm(pid=0, region="r", mids=[5]).validate(3, 3)

    def test_validate_rejects_overlapping_partition(self):
        with pytest.raises(ConfigurationError):
            FaultScript().at(1.0).partition({0, 1}, {1, 2}).validate(3, 3)

    def test_validate_rejects_crashed_byzantine(self):
        script = FaultScript().at(1.0).crash_process(1)
        script.make_byzantine(1, object())
        with pytest.raises(ConfigurationError):
            script.validate(3, 3)

    def test_single_group_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultScript().at(1.0).partition({0, 1, 2})

    def test_link_fault_expiry_must_follow_start(self):
        with pytest.raises(ConfigurationError):
            FaultScript().at(5.0).drop_link(0, 1, until=5.0)

    def test_recovery_must_follow_the_crash(self):
        with pytest.raises(ConfigurationError):
            FaultScript().at(5.0).crash_process(0).recover(at=3.0)
        with pytest.raises(ConfigurationError):
            FaultScript().at(5.0).crash_memory(0).recover(at=5.0)
        with pytest.raises(ConfigurationError):
            FaultScript().at(5.0).partition({0}, {1, 2}).heal(at=4.0)


class TestTypedFaultTimers:
    def test_plan_installs_closure_free_entries(self):
        """A crash-only script compiles to EV_FAULT entries, not EV_CALL
        lambdas."""
        kernel = make_kernel()
        FaultScript().at(5.0).crash_process(1).at(3.0).crash_memory(0).install(kernel)
        kinds = {entry[2] for entry in kernel.queue._heap}
        assert kinds == {EV_FAULT}
        assert EV_CALL not in kinds
        kernel.run(until=10)
        assert ProcessId(1) in kernel.crashed_processes
        assert kernel.memories[0].crashed

    def test_script_installs_typed_entries(self):
        kernel = make_kernel()
        FaultScript().at(2.0).crash_process(0).recover(at=4.0).install(kernel)
        assert {entry[2] for entry in kernel.queue._heap} == {EV_FAULT}


class TestProcessRecovery:
    def test_crash_kills_tasks_and_recovery_respawns(self):
        kernel = make_kernel()
        env = env_of(kernel, 0)

        def forever():
            while True:
                yield env.sleep(1.0)

        task = kernel.spawn(0, "loop", forever())
        respawned = []
        kernel.failures.on_recover(lambda pid: respawned.append(int(pid)))
        FaultScript().at(3.0).crash_process(0).recover(at=7.0).install(kernel)
        kernel.run(until=10)
        assert task.done  # killed at the crash, not merely suspended
        assert respawned == [0]
        assert ProcessId(0) not in kernel.crashed_processes

    def test_crash_hook_fires(self):
        kernel = make_kernel()
        crashed = []
        kernel.failures.on_crash(lambda pid: crashed.append(int(pid)))
        FaultScript().at(1.0).crash_process(2).install(kernel)
        kernel.run(until=2)
        assert crashed == [2]

    def test_stale_timer_never_fires_into_next_incarnation(self):
        """A pre-crash sleep timer must not resume a post-recovery task."""
        kernel = make_kernel()
        env = env_of(kernel, 0)
        wakes = []

        def sleeper(tag):
            yield env.sleep(5.0)
            wakes.append(tag)

        kernel.spawn(0, "old", sleeper("old"))
        FaultScript().at(1.0).crash_process(0).recover(at=2.0).install(kernel)
        kernel.failures.on_recover(
            lambda pid: kernel.spawn(pid, "new", sleeper("new"))
        )
        kernel.run(until=20)
        assert wakes == ["new"]

    def test_fault_timeline_records_spans(self):
        kernel = make_kernel()
        FaultScript().at(1.0).crash_process(0).recover(at=4.0).install(kernel)
        kernel.run(until=10)
        assert kernel.metrics.downtime_spans("p1") == [(1.0, 4.0)]


class TestMemoryRecovery:
    def _write(self, kernel, env, key, value):
        def writer():
            result = yield from env.write(0, "r", key, value)
            return result

        task = kernel.spawn(0, "w", writer())
        kernel.run(until=kernel.now + 10)
        return task.result

    def test_ops_hang_while_down_and_resolve_after(self):
        kernel = make_kernel()
        env = env_of(kernel, 0)
        assert self._write(kernel, env, ("x", 1), "before").ok
        kernel.crash_memory(MemoryId(0))
        hung = self._write(kernel, env, ("x", 2), "during")
        assert hung is None  # the op hung: the task never finished
        kernel.recover_memory(MemoryId(0))
        assert self._write(kernel, env, ("x", 3), "after").ok
        assert kernel.memories[0].peek(("x", 1)) == "before"
        assert kernel.memories[0].peek(("x", 3)) == "after"

    def test_wipe_clears_registers_and_resets_permissions(self):
        region = open_region(3)
        kernel = make_kernel(regions=[region])
        env = env_of(kernel, 0)
        assert self._write(kernel, env, ("x", 1), "v").ok
        memory = kernel.memories[0]
        memory.permissions["r"] = Permission.read_only(range(3))
        kernel.crash_memory(MemoryId(0))
        kernel.recover_memory(MemoryId(0), wipe=True)
        from repro.types import BOTTOM

        assert memory.peek(("x", 1)) is BOTTOM
        assert memory.permission_of("r") == region.initial_permission

    def test_intact_recovery_preserves_state(self):
        kernel = make_kernel()
        env = env_of(kernel, 0)
        assert self._write(kernel, env, ("x", 1), "survives").ok
        kernel.crash_memory(MemoryId(0))
        kernel.recover_memory(MemoryId(0))
        assert kernel.memories[0].peek(("x", 1)) == "survives"


class TestPartitions:
    def _ping(self, kernel, src, dst, timeout=5.0):
        """Send src->dst and wait for receipt; returns the recv result."""
        env_src = env_of(kernel, src)
        env_dst = env_of(kernel, dst)

        def sender():
            yield env_src.send(dst, "ping", topic="t")

        def receiver():
            envelope = yield from env_dst.recv(topic="t", timeout=timeout)
            return envelope

        kernel.spawn(src, "tx", sender())
        task = kernel.spawn(dst, "rx", receiver())
        kernel.run(until=kernel.now + timeout + 2)
        return task.result

    def test_partition_blocks_both_directions(self):
        kernel = make_kernel()
        kernel.network.set_partition([{0, 1}, {2}])
        assert self._ping(kernel, 0, 2) is None
        assert self._ping(kernel, 2, 0) is None
        assert self._ping(kernel, 0, 1) is not None
        assert kernel.network.partition_dropped == 2

    def test_heal_restores_delivery(self):
        kernel = make_kernel()
        kernel.network.set_partition([{0, 1}, {2}])
        assert self._ping(kernel, 0, 2) is None
        kernel.network.heal_partition()
        assert self._ping(kernel, 0, 2) is not None

    def test_in_flight_message_lost_at_partition_instant(self):
        """Reachability is checked at DELIVERY: a message sent just before
        the partition lands is lost with it."""
        kernel = make_kernel()
        env0 = env_of(kernel, 0)
        env2 = env_of(kernel, 2)

        def sender():
            yield env0.send(2, "doomed", topic="t")

        def receiver():
            envelope = yield from env2.recv(topic="t", timeout=10.0)
            return envelope

        kernel.spawn(0, "tx", sender())
        task = kernel.spawn(2, "rx", receiver())
        FaultScript().at(0.5).partition({0, 1}, {2}).install(kernel)
        kernel.run(until=15)
        assert task.result is None

    def test_unnamed_processes_keep_full_connectivity(self):
        kernel = make_kernel()
        kernel.network.set_partition([{0}, {1}])
        assert self._ping(kernel, 0, 2) is not None
        assert self._ping(kernel, 2, 1) is not None


class TestLinkChaos:
    def test_delay_inflation(self):
        kernel = make_kernel()
        env0 = env_of(kernel, 0)
        env1 = env_of(kernel, 1)
        FaultScript().at(0.0).delay_link(0, 1, factor=3.0, extra=0.5).install(kernel)

        def sender():
            yield env0.send(1, "slow", topic="t")

        def receiver():
            envelope = yield from env1.recv(topic="t")
            return envelope

        kernel.spawn(0, "tx", sender())
        task = kernel.spawn(1, "rx", receiver())
        kernel.run(until=10)
        # nominal delay 1.0 -> 1.0 * 3 + 0.5
        assert task.result is not None and kernel.now >= 3.5

    def test_drop_and_expiry(self):
        kernel = make_kernel()
        env0 = env_of(kernel, 0)
        env1 = env_of(kernel, 1)
        FaultScript().at(0.0).drop_link(0, 1, prob=1.0, until=5.0).install(kernel)

        def sender(tag, delay):
            def gen():
                yield env0.sleep(delay)
                yield env0.send(1, tag, topic="t")
            return gen()

        def receiver():
            got = []
            while True:
                envelope = yield from env1.recv(topic="t", timeout=20.0)
                if envelope is None:
                    return got
                got.append(envelope.payload)

        kernel.spawn(0, "tx1", sender("lost", 1.0))
        kernel.spawn(0, "tx2", sender("kept", 6.0))
        task = kernel.spawn(1, "rx", receiver())
        kernel.run(until=40)
        assert task.result == ["kept"]
        assert kernel.network.chaos_dropped == 1

    def test_duplication_defeats_nothing_but_tests_idempotence(self):
        kernel = make_kernel()
        env0 = env_of(kernel, 0)
        env1 = env_of(kernel, 1)
        FaultScript().at(0.0).duplicate_link(0, 1, prob=1.0).install(kernel)

        def sender():
            yield env0.send(1, "twice", topic="t")

        def receiver():
            got = []
            while True:
                envelope = yield from env1.recv(topic="t", timeout=5.0)
                if envelope is None:
                    return got
                got.append(envelope.payload)

        kernel.spawn(0, "tx", sender())
        task = kernel.spawn(1, "rx", receiver())
        kernel.run(until=20)
        assert task.result == ["twice", "twice"]

    def test_filters_compose(self):
        fault = LinkFault(delay_factor=2.0).compose(
            LinkFault(delay_factor=3.0, drop_prob=0.5)
        )
        assert fault.delay_factor == 6.0
        assert fault.drop_prob == 0.5
        kernel = make_kernel()
        script = FaultScript()
        script.at(0.0).delay_link(0, 1, factor=2.0)
        script.at(1.0).drop_link(0, 1, prob=1.0)
        script.install(kernel)
        kernel.run(until=2)
        installed = kernel.network.link_faults[(0, 1)]
        assert installed.delay_factor == 2.0 and installed.drop_prob == 1.0

    def test_overlapping_timed_faults_expire_independently(self):
        """The earlier-expiring of two overlapping link faults must not
        cancel the later one: each expiry removes only its own filter."""
        kernel = make_kernel()
        script = FaultScript()
        script.at(0.0).delay_link(0, 1, factor=2.0, until=10.0)
        script.at(5.0).delay_link(0, 1, factor=3.0, until=20.0)
        script.install(kernel)
        kernel.run(until=7.0)
        assert kernel.network.link_faults[(0, 1)].delay_factor == 6.0
        kernel.run(until=12.0)  # first fault expired, second survives
        assert kernel.network.link_faults[(0, 1)].delay_factor == 3.0
        kernel.run(until=25.0)  # both expired
        assert (0, 1) not in kernel.network.link_faults

    def test_validate_rejects_unknown_link_endpoints(self):
        with pytest.raises(ConfigurationError):
            FaultScript().at(1.0).drop_link(0, 7).validate(3, 3)
        with pytest.raises(ConfigurationError):
            FaultScript().at(1.0).delay_link(9, 0, factor=2.0).validate(3, 3)

    def test_symmetric_installs_both_directions(self):
        kernel = make_kernel()
        FaultScript().at(0.0).drop_link(0, 1, symmetric=True).install(kernel)
        kernel.run(until=1)
        assert (0, 1) in kernel.network.link_faults
        assert (1, 0) in kernel.network.link_faults


class TestPermissionStorms:
    def _kernel_with_grabbable_region(self):
        from repro.mem.permissions import exclusive_grab_policy
        from repro.mem.regions import RegionSpec

        region = RegionSpec(
            "r",
            ("r",),
            Permission.exclusive_writer(0, range(3)),
            legal_change=exclusive_grab_policy(range(3)),
        )
        return make_kernel(regions=[region])

    def test_storm_steals_the_region(self):
        kernel = self._kernel_with_grabbable_region()
        FaultScript().at(1.0).permission_storm(
            pid=2, region="r", shots=2, spacing=1.0
        ).install(kernel)
        kernel.run(until=5)
        expected = Permission.exclusive_writer(2, range(3))
        for memory in kernel.memories:
            assert memory.permission_of("r") == expected
        records = kernel.metrics.faults_of("perm_change")
        assert len(records) == 2 * 3  # shots x memories
        assert all(record.detail["ok"] for record in records)

    def test_illegal_storm_naks_and_changes_nothing(self):
        kernel = make_kernel()  # open region, static permissions (no policy)
        before = kernel.memories[0].permission_of("r")
        FaultScript().at(1.0).permission_storm(
            pid=1, region="r", shots=1, mids=[0],
            permission=Permission.read_only(range(3)),
        ).install(kernel)
        kernel.run(until=3)
        assert kernel.memories[0].permission_of("r") == before
        records = kernel.metrics.faults_of("perm_change")
        assert len(records) == 1 and not records[0].detail["ok"]
        assert kernel.memories[0].counts.naks == 1

    def test_crashed_memories_are_skipped(self):
        kernel = self._kernel_with_grabbable_region()
        kernel.crash_memory(MemoryId(1))
        FaultScript().at(1.0).permission_storm(
            pid=2, region="r", shots=1
        ).install(kernel)
        kernel.run(until=3)
        assert len(kernel.metrics.faults_of("perm_change")) == 2  # mu2 skipped
