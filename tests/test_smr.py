"""Replicated log + KV store over Protected-Memory-Paxos instances."""

import pytest

from repro.consensus.base import ConsensusProtocol
from repro.consensus.omega import leader_schedule
from repro.core.cluster import Cluster, ClusterConfig
from repro.smr.kv import KVCommand, KVStateMachine
from repro.smr.log import ReplicatedLog, SmrConfig, smr_regions


class _SmrHarness(ConsensusProtocol):
    """Drives a replicated KV: the Ω leader proposes the command script."""

    name = "smr-harness"

    def __init__(self, scripts, total_slots):
        self.scripts = scripts  # pid -> list of commands
        self.total_slots = total_slots
        self.machines = {}
        self.logs = {}

    def regions(self, n, m):
        return smr_regions(n)

    def tasks(self, env, value):
        machine = KVStateMachine()
        log = ReplicatedLog(env, machine.apply)
        self.machines[int(env.pid)] = machine
        self.logs[int(env.pid)] = log

        def driver():
            script = self.scripts.get(int(env.pid), [])
            slot = 0
            for command in script:
                yield from log.propose(slot, command)
                slot += 1
            while log.applied_upto < self.total_slots - 1:
                advanced = yield env.gate_wait(log.commit_gate, timeout=10.0)
                if not advanced and env.leader() == env.pid:
                    # Leader responsibility: drive unfilled slots to keep
                    # the log prefix-complete (no-op fill).
                    next_slot = log.applied_upto + 1
                    yield from log.propose(next_slot, KVCommand("get", "noop"))
            env.decide(tuple(sorted(machine.snapshot().items())))

        return [("smr-listener", log.listener()), ("smr-driver", driver())]


def _run(scripts, total_slots, n=3, m=3, omega=None, deadline=5000):
    config = ClusterConfig(
        n_processes=n, n_memories=m, deadline=deadline,
        **({"omega": omega} if omega else {}),
    )
    harness = _SmrHarness(scripts, total_slots)
    cluster = Cluster(harness, config)
    result = cluster.run([None] * n)
    return harness, result


class TestReplication:
    def test_all_replicas_converge(self):
        script = [KVCommand("put", f"k{i}", i) for i in range(6)]
        harness, result = _run({0: script}, total_slots=6)
        assert result.all_decided and result.agreed
        snapshots = [m.snapshot() for m in harness.machines.values()]
        assert all(s == snapshots[0] for s in snapshots)
        assert snapshots[0] == {f"k{i}": i for i in range(6)}

    def test_commands_apply_in_slot_order(self):
        script = [
            KVCommand("put", "x", 1),
            KVCommand("put", "x", 2),
            KVCommand("delete", "x"),
            KVCommand("put", "x", 3),
        ]
        harness, result = _run({0: script}, total_slots=4)
        assert result.agreed
        machine = harness.machines[1]
        assert machine.snapshot() == {"x": 3}
        assert [slot for slot, _cmd, _r in machine.applied] == [0, 1, 2, 3]

    def test_steady_state_commits_are_two_delays_each(self):
        script = [KVCommand("put", f"k{i}", i) for i in range(5)]
        harness, result = _run({0: script}, total_slots=5)
        # Leader commits slot i at 2(i+1): 5 slots by t=10.
        leader_log = harness.logs[0]
        assert leader_log.applied_upto == 4
        assert result.kernel.metrics.decisions[0].decided_at <= 12.0

    def test_get_returns_committed_value(self):
        machine = KVStateMachine()
        machine.apply(0, KVCommand("put", "a", 10))
        assert machine.apply(1, KVCommand("get", "a")) == 10
        assert machine.apply(2, KVCommand("get", "missing")) is None

    def test_unknown_command_is_skipped_deterministically(self):
        machine = KVStateMachine()
        machine.apply(0, "not-a-command")
        assert machine.applied_count == 1
        assert machine.snapshot() == {}

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            KVCommand("increment", "x")


class TestLeaderHandover:
    def test_takeover_preserves_committed_prefix(self):
        """Leader A commits slots 0-2; leadership moves to B which proposes
        slots 3-4.  B must adopt A's slots, never overwrite them."""
        scripts = {
            0: [KVCommand("put", "a", 1), KVCommand("put", "b", 2),
                KVCommand("put", "c", 3)],
            1: [KVCommand("put", "a", 1), KVCommand("put", "b", 2),
                KVCommand("put", "c", 3), KVCommand("put", "d", 4),
                KVCommand("put", "e", 5)],
        }
        omega = leader_schedule([(0.0, 0), (8.0, 1)])
        harness, result = _run(scripts, total_slots=5, omega=omega, deadline=8000)
        assert result.all_decided and result.agreed
        final = harness.machines[2].snapshot()
        assert final == {"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}

    def test_contending_proposers_agree_per_slot(self):
        """Both processes propose different commands for the same slots;
        every replica must apply the same winner per slot."""
        scripts = {
            0: [KVCommand("put", "winner", "p1")],
            1: [KVCommand("put", "winner", "p2")],
        }
        omega = leader_schedule([(0.0, 0), (4.0, 1)])
        harness, result = _run(scripts, total_slots=1, omega=omega, deadline=8000)
        assert result.agreed
        values = {m.snapshot().get("winner") for m in harness.machines.values()}
        assert len(values) == 1


class _ListenerHarness(ConsensusProtocol):
    """p1 hand-delivers decisions to p2's listener in a scripted order and
    records every catch-up pull p2 answers with."""

    name = "smr-listener-harness"

    def __init__(self, order, pipeline_depth):
        self.order = order
        self.pipeline_depth = pipeline_depth
        self.pulls = []
        self.follower = None

    def regions(self, n, m):
        return smr_regions(n)

    def tasks(self, env, value):
        from repro.consensus.messages import Decision

        log = ReplicatedLog(
            env, KVStateMachine().apply, pipeline_depth=self.pipeline_depth
        )
        if int(env.pid) == 1:
            self.follower = log
            return [("listener", log.listener())]

        def leader():
            for slot in self.order:
                yield env.send(
                    1, (slot, Decision(value=KVCommand("put", "k", slot))),
                    topic=log.topic,
                )
                yield env.sleep(0.25)

        def pull_sink():
            while True:
                envelope = yield from env.recv(topic=log.sync_topic)
                self.pulls.append(envelope.payload)

        return [("leader", leader()), ("pulls", pull_sink())]


class TestListenerPullRule:
    def _run(self, order, pipeline_depth=2):
        harness = _ListenerHarness(order, pipeline_depth)
        cluster = Cluster(harness, ClusterConfig(2, 3, deadline=1000))
        cluster.start([None] * 2)
        cluster.kernel.run(until=50.0)
        return harness

    def test_an_early_neighbour_is_not_a_missed_broadcast(self):
        # the leader had slots 0 and 1 in flight; 1's decision overtook 0's
        harness = self._run([1, 0])
        assert harness.pulls == []
        assert harness.follower.applied_upto == 1

    def test_a_gap_the_pipeline_cannot_explain_is_pulled(self):
        harness = self._run([2, 1])  # slot 0 never arrives
        assert harness.pulls == [("pull", 0)]
        assert harness.follower.applied_upto == -1

    def test_a_serial_leader_keeps_the_one_slot_rule(self):
        harness = self._run([1, 0], pipeline_depth=1)
        assert harness.pulls == [("pull", 0)]
        assert harness.follower.applied_upto == 1
