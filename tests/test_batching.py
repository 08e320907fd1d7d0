"""Command batching: one consensus instance carries many commands.

Covers the edge cases the service layer depends on: empty batches are
deterministic no-ops, a batch of one reproduces the seed's
single-command semantics, duplicate ``(client, request_id)`` commands
apply at most once, and a 1-shard/batch-1 :class:`ShardedKV` matches the
unsharded :class:`ReplicatedLog` decision for decision on the same seed.
"""

import pytest

from repro.consensus.base import ConsensusProtocol
from repro.core.cluster import Cluster, ClusterConfig
from repro.shard import ScriptedClient, ShardConfig, ShardedKV
from repro.smr.kv import KVCommand, KVStateMachine
from repro.smr.log import Batch, ReplicatedLog, SmrConfig, smr_regions


class TestBatchValue:
    def test_batch_is_ordered_and_sized(self):
        commands = (KVCommand("put", "a", 1), KVCommand("put", "b", 2))
        batch = Batch(commands)
        assert len(batch) == 2
        assert tuple(batch) == commands

    def test_empty_batch_is_still_a_log_entry(self):
        batch = Batch()
        assert len(batch) == 0
        assert bool(batch), "an empty batch is a no-op entry, not a falsy value"

    def test_batch_normalises_any_iterable(self):
        batch = Batch([KVCommand("put", "a", 1)])
        assert isinstance(batch.commands, tuple)


class TestBatchApplication:
    def test_empty_batch_applies_as_noop(self):
        machine = KVStateMachine()
        machine.apply(0, KVCommand("put", "x", 1))
        results = machine.apply(1, Batch())
        assert results == []
        assert machine.snapshot() == {"x": 1}
        assert machine.batches_applied == 1
        assert machine.empty_batches == 1  # tracked apart, for fill stats
        assert machine.applied_count == 1  # no per-command entries added

    def test_batch_of_one_equals_single_command(self):
        """batch_max=1 must reproduce the seed's unbatched behaviour."""
        single, batched = KVStateMachine(), KVStateMachine()
        script = [
            KVCommand("put", "x", 1),
            KVCommand("get", "x"),
            KVCommand("delete", "x"),
            KVCommand("get", "x"),
        ]
        for slot, command in enumerate(script):
            single_result = single.apply(slot, command)
            batch_results = batched.apply(slot, Batch((command,)))
            assert batch_results == [single_result]
        assert single.snapshot() == batched.snapshot()
        assert single.applied_count == batched.applied_count
        # the same (slot, command, result) entries, in the same order
        assert single.applied == batched.applied

    def test_batch_applies_in_order_within_slot(self):
        machine = KVStateMachine()
        results = machine.apply(
            0,
            Batch(
                (
                    KVCommand("put", "k", "first"),
                    KVCommand("put", "k", "second"),
                    KVCommand("get", "k"),
                )
            ),
        )
        assert results == [None, None, "second"]
        assert machine.snapshot() == {"k": "second"}

    def test_non_command_entries_inside_batch_are_skipped(self):
        machine = KVStateMachine()
        results = machine.apply(0, Batch(("not-a-command",)))
        assert results == [None]
        assert machine.snapshot() == {}


class TestDeduplication:
    def test_duplicate_identity_applies_at_most_once(self):
        machine = KVStateMachine()
        first = KVCommand("put", "k", "v1", client=1, request_id=0)
        machine.apply(0, first)
        machine.apply(1, KVCommand("put", "k", "v2"))  # anonymous overwrite
        # A retry of request (1, 0) must NOT re-execute the put.
        result = machine.apply(2, first)
        assert machine.snapshot() == {"k": "v2"}
        assert result is None  # the original put's result, replayed
        assert machine.duplicates == 1

    def test_duplicate_read_returns_original_result(self):
        machine = KVStateMachine()
        machine.apply(0, KVCommand("put", "k", 10))
        read = KVCommand("get", "k", client=2, request_id=7)
        assert machine.apply(1, read) == 10
        machine.apply(2, KVCommand("put", "k", 99))
        # The retried read answers from the first execution, not the
        # current state: exactly-once semantics for the client.
        assert machine.apply(3, read) == 10
        assert machine.duplicates == 1

    def test_duplicates_within_one_batch(self):
        machine = KVStateMachine()
        command = KVCommand("delete", "gone", client=3, request_id=1)
        results = machine.apply(0, Batch((command, command)))
        assert results == [None, None]
        assert machine.duplicates == 1

    def test_anonymous_commands_are_never_deduplicated(self):
        machine = KVStateMachine()
        command = KVCommand("put", "k", 1)
        machine.apply(0, command)
        machine.apply(1, command)
        assert machine.duplicates == 0
        assert command.identity is None


class _BatchLogHarness(ConsensusProtocol):
    """The leader commits a script of batches; everybody replicates."""

    name = "batch-log"

    def __init__(self, batches):
        self.batches = batches
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
            if env.leader() == env.pid:
                for slot, commands in enumerate(self.batches):
                    yield from log.propose_batch(slot, commands)
            while log.applied_upto < len(self.batches) - 1:
                yield env.gate_wait(log.commit_gate, timeout=10.0)
            env.decide(tuple(sorted(machine.snapshot().items())))

        return [("listener", log.listener()), ("driver", driver())]


class TestBatchedLog:
    def test_batched_slots_replicate_and_apply_in_order(self):
        batches = [
            (KVCommand("put", "a", 1), KVCommand("put", "b", 2)),
            (),  # an empty filler slot
            (KVCommand("put", "a", 3), KVCommand("delete", "b"),
             KVCommand("put", "c", 4)),
        ]
        harness = _BatchLogHarness(batches)
        cluster = Cluster(harness, ClusterConfig(3, 3, deadline=5_000))
        result = cluster.run([None] * 3)
        assert result.all_decided and result.agreed
        snapshots = [m.snapshot() for m in harness.machines.values()]
        assert all(s == {"a": 3, "c": 4} for s in snapshots)
        # every replica committed the identical batch per slot
        for pid, log in harness.logs.items():
            assert log.decided[0] == Batch(batches[0])
            assert log.decided[1] == Batch(())
            assert log.decided[2] == Batch(batches[2])


SCRIPT = [
    ("put", "alpha", 1),
    ("put", "beta", 2),
    ("get", "alpha", None),
    ("put", "alpha", 3),
    ("delete", "beta", None),
    ("get", "beta", None),
]


class _SeedLogHarness(ConsensusProtocol):
    """The seed's unbatched replicated log driving the same script."""

    name = "seed-log"

    def __init__(self, commands):
        self.commands = commands
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
            if env.leader() == env.pid:
                for slot, command in enumerate(self.commands):
                    yield from log.propose(slot, command)
            while log.applied_upto < len(self.commands) - 1:
                yield env.gate_wait(log.commit_gate, timeout=10.0)
            env.decide(tuple(sorted(machine.snapshot().items())))

        return [("listener", log.listener()), ("driver", driver())]


class TestShardedMatchesSeed:
    """A 1-shard/batch-1 service is the seed log, decision for decision."""

    def test_one_shard_batch_one_reproduces_seed_log(self):
        seed = 11
        commands = [
            KVCommand(op, key, value, client=0, request_id=rid)
            for rid, (op, key, value) in enumerate(SCRIPT)
        ]

        # Seed-style run: one unsharded ReplicatedLog, one command a slot.
        harness = _SeedLogHarness(commands)
        cluster = Cluster(harness, ClusterConfig(3, 3, seed=seed, deadline=5_000))
        result = cluster.run([None] * 3)
        assert result.all_decided and result.agreed
        seed_sequence = [
            harness.logs[0].decided[slot] for slot in range(len(commands))
        ]

        # Sharded run: same seed, 1 shard, batch_max=1, scripted client
        # pinned to the shard leader so submissions arrive one at a time.
        service = ShardedKV(
            ShardConfig(n_shards=1, batch_max=1, seed=seed, deadline=5_000)
        )
        client = ScriptedClient(client_id=0, script=SCRIPT, pid=service.leader_of(0))
        report = service.run_workload([client])
        assert report.completed_requests == len(SCRIPT)

        # Decision for decision: slot i committed exactly command i,
        # wrapped in a singleton batch.
        shard_log = service.logs[(service.leader_of(0), 0)]
        sharded_sequence = [
            shard_log.decided[slot] for slot in range(len(commands))
        ]
        assert [tuple(batch) for batch in sharded_sequence] == [
            (command,) for command in seed_sequence
        ]

        # And every replica of both runs converged on the identical state.
        seed_state = harness.machines[0].snapshot()
        for pid in range(3):
            assert harness.machines[pid].snapshot() == seed_state
            assert service.machine(pid, 0).snapshot() == seed_state

    def test_command_identity_survives_batching(self):
        machine = KVStateMachine()
        command = KVCommand("put", "k", 1, client=5, request_id=9)
        machine.apply(0, Batch((command,)))
        assert (5, 9) in machine.seen


class TestPropose:
    def test_invalid_op_still_rejected(self):
        with pytest.raises(ValueError):
            KVCommand("increment", "x")

    def test_smr_config_defaults_keep_seed_namespace(self):
        config = SmrConfig()
        assert config.region == "smr"
        assert config.topic == "smr"
