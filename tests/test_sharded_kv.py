"""The sharded SMR service: partitioning, routing, scaling, convergence."""

from unittest import mock

import pytest

from repro.obs.runtime import attach
from repro.reconfig import ElasticConfig
from repro.shard import (
    ClosedLoopClient,
    ConsistentHashPartitioner,
    OpenLoopClient,
    ScriptedClient,
    ShardConfig,
    ShardedKV,
    UniformKeys,
    YCSB_A,
    YCSB_B,
    ZipfianKeys,
)
from repro.shard import service as shard_service
from repro.shard.gateway import RemoteClient
from repro.shard.service import PIPELINE_DEPTH
from repro.smr.kv import KVCommand


class TestPartitioner:
    def test_deterministic_across_instances(self):
        a = ConsistentHashPartitioner(4)
        b = ConsistentHashPartitioner(4)
        keys = [f"key{i}" for i in range(500)]
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]

    def test_every_shard_owns_keys(self):
        partitioner = ConsistentHashPartitioner(8)
        counts = partitioner.distribution(f"key{i}" for i in range(2000))
        assert set(counts) == set(range(8))
        assert all(count > 0 for count in counts.values())

    def test_roughly_balanced_under_uniform_keys(self):
        partitioner = ConsistentHashPartitioner(4, vnodes=128)
        counts = partitioner.distribution(f"key{i}" for i in range(4000))
        for shard, count in counts.items():
            share = count / 4000
            assert 0.10 < share < 0.45, f"shard {shard} owns {share:.0%}"

    def test_adding_a_shard_moves_a_minority_of_keys(self):
        keys = [f"key{i}" for i in range(2000)]
        before = ConsistentHashPartitioner(4)
        after = ConsistentHashPartitioner(5)
        moved = sum(
            1 for k in keys if before.shard_for(k) != after.shard_for(k)
        )
        # consistent hashing: ~1/5 of keys move, never a full reshuffle
        assert moved / len(keys) < 0.45

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashPartitioner(0)
        with pytest.raises(ValueError):
            ConsistentHashPartitioner(2, vnodes=0)


def _converged(service, shards):
    for g in range(shards):
        snapshots = [
            service.machine(pid, g).snapshot()
            for pid in range(service.config.n_processes)
        ]
        assert all(s == snapshots[0] for s in snapshots), f"shard {g} diverged"


class TestRouting:
    def test_keys_land_only_on_their_owning_shard(self):
        service = ShardedKV(ShardConfig(n_shards=4, batch_max=4, seed=2))
        clients = [
            ClosedLoopClient(client_id=i, n_ops=10, keys=UniformKeys(200), mix=YCSB_A)
            for i in range(6)
        ]
        report = service.run_workload(clients)
        assert report.completed_requests == 60
        placed = 0
        for g in range(4):
            for key in service.snapshot(g):
                assert service.partitioner.shard_for(key) == g
                placed += 1
        assert placed > 0

    def test_all_replicas_of_all_shards_converge(self):
        service = ShardedKV(ShardConfig(n_shards=4, batch_max=8, seed=5))
        clients = [
            ClosedLoopClient(client_id=i, n_ops=8, keys=ZipfianKeys(128), mix=YCSB_A)
            for i in range(9)
        ]
        report = service.run_workload(clients)
        assert report.completed_requests == 72
        _converged(service, 4)

    def test_reads_see_writes_through_the_log(self):
        service = ShardedKV(ShardConfig(n_shards=2, batch_max=2, seed=1))
        script = [("put", "alpha", 42), ("get", "alpha", None)]
        client = ScriptedClient(client_id=0, script=script)
        report = service.run_workload([client])
        assert report.completed_requests == 2
        leader = service.leader_of(service.partitioner.shard_for("alpha"))
        machine = service.machine(leader, service.partitioner.shard_for("alpha"))
        applied = [(cmd.op, result) for _slot, cmd, result in machine.applied]
        assert applied == [("put", None), ("get", 42)]

    def test_anonymous_commands_are_rejected_by_the_frontend(self):
        service = ShardedKV(ShardConfig(n_shards=1))
        frontend = service.frontends[0]
        with pytest.raises(ValueError):
            next(frontend.submit(KVCommand("put", "k", 1)))

    def test_commands_per_request_accounting(self):
        service = ShardedKV(ShardConfig(n_shards=2, batch_max=4, seed=9))
        clients = [
            ClosedLoopClient(client_id=i, n_ops=6, keys=UniformKeys(64), mix=YCSB_B)
            for i in range(4)
        ]
        report = service.run_workload(clients)
        assert report.completed_requests == 24
        # every distinct request was committed exactly once service-wide
        assert report.committed_commands == 24
        # ...and the ledger's always-on count (what the autoscaler and the
        # e2e benchmark read) credits the same commits to the two shards
        commits = service.kernel.metrics.shard_commits
        assert sum(commits.values()) == 24 and set(commits) == {0, 1}
        assert report.elapsed > 0
        assert report.commands_per_delay > 0
        table = report.per_shard_table()
        assert "shard" in table and "g0" in table
        assert "requests" in report.summary()


class TestScaling:
    """The acceptance criterion: sharding + batching scale throughput."""

    def _run(self, n_shards, batch_max, seed=7, service=None):
        service = service or ShardedKV(
            ShardConfig(n_shards=n_shards, batch_max=batch_max, seed=seed)
        )
        clients = [
            ClosedLoopClient(
                client_id=i, n_ops=8, keys=ZipfianKeys(128), mix=YCSB_A
            )
            for i in range(24)
        ]
        report = service.run_workload(clients)
        assert report.completed_requests == 24 * 8
        _converged(service, n_shards)
        return report

    def test_four_shards_commit_4x_the_baseline(self):
        baseline = self._run(n_shards=1, batch_max=1)
        sharded = self._run(n_shards=4, batch_max=8)
        ratio = sharded.commands_per_delay / baseline.commands_per_delay
        assert ratio >= 4.0, (
            f"4 shards / batch 8: {sharded.commands_per_delay:.2f} cmds/delay, "
            f"1 shard / batch 1: {baseline.commands_per_delay:.2f} — "
            f"only {ratio:.1f}x"
        )

    def test_batching_alone_raises_throughput(self):
        unbatched = self._run(n_shards=1, batch_max=1)
        batched = self._run(n_shards=1, batch_max=8)
        assert batched.commands_per_delay > 1.5 * unbatched.commands_per_delay
        assert batched.mean_batch_fill > 1.5

    def test_baseline_commits_one_command_per_two_delays(self):
        # Sanity-pins the scaling comparison: the 1-shard/batch-1 service
        # inherits the seed's two-delay-per-commit fast path — the paper's
        # claim is per slot, and every slot still decides exactly two
        # delays after it is posted.  With one command per batch every
        # queued command is a full batch, so the leader keeps
        # PIPELINE_DEPTH slots in flight and commits PIPELINE_DEPTH / 2
        # commands per delay.
        service = ShardedKV(ShardConfig(n_shards=1, batch_max=1, seed=7))
        runtime = attach(service.kernel, profile=False)
        baseline = self._run(n_shards=1, batch_max=1, service=service)
        slots = [s for s in runtime.spans if s.name == "log.phase2"]
        assert len(slots) >= 24 * 8 and runtime.dropped == 0
        assert {s.end - s.start for s in slots} == {2.0}
        assert baseline.commands_per_delay == pytest.approx(
            PIPELINE_DEPTH / 2, rel=0.15
        )
        with mock.patch.object(shard_service, "PIPELINE_DEPTH", 1):
            serial = self._run(n_shards=1, batch_max=1)
        assert serial.commands_per_delay == pytest.approx(0.5, rel=0.15)


class TestOpenLoop:
    def test_open_loop_clients_complete_and_converge(self):
        service = ShardedKV(ShardConfig(n_shards=2, batch_max=8, seed=4))
        clients = [
            OpenLoopClient(
                client_id=i,
                n_ops=10,
                keys=UniformKeys(64),
                mix=YCSB_A,
                interarrival=1.0,
            )
            for i in range(4)
        ]
        report = service.run_workload(clients)
        assert report.completed_requests == 40
        _converged(service, 2)
        latency = report.latency_summary()
        assert latency.count == 40
        assert latency.p99 >= latency.p50 >= 0

    def test_open_loop_saturation_fills_batches(self):
        # Arrivals faster than the 2-delay commit path must pile into
        # batches instead of stretching the queue forever.
        service = ShardedKV(ShardConfig(n_shards=1, batch_max=8, seed=4))
        clients = [
            OpenLoopClient(
                client_id=i,
                n_ops=16,
                keys=UniformKeys(32),
                mix=YCSB_A,
                interarrival=0.25,
            )
            for i in range(2)
        ]
        report = service.run_workload(clients)
        assert report.completed_requests == 32
        assert report.mean_batch_fill > 1.5


class TestBackToBackWorkloads:
    def test_second_run_reports_only_its_own_traffic(self):
        service = ShardedKV(ShardConfig(n_shards=2, batch_max=4, seed=6))

        def burst(client_base, n_clients=4, ops=6):
            return [
                ClosedLoopClient(
                    client_id=client_base + i,
                    n_ops=ops,
                    keys=UniformKeys(64),
                    mix=YCSB_A,
                )
                for i in range(n_clients)
            ]

        first = service.run_workload(burst(0))
        second = service.run_workload(burst(100))
        for report in (first, second):
            assert report.ok
            assert report.completed_requests == 24
            # per-run deltas: each report accounts for exactly its traffic
            assert report.committed_commands == 24
            assert report.elapsed > 0
        _converged(service, 2)

    def test_reused_client_ids_are_rejected(self):
        from repro.errors import ConfigurationError

        service = ShardedKV(ShardConfig(n_shards=1, batch_max=2, seed=6))
        service.run_workload(
            [ScriptedClient(client_id=0, script=[("put", "k", "v1")])]
        )
        # A reused id would be silently absorbed by at-most-once dedup
        # (request (0, 0) is already in the state machines' seen map), so
        # the service must refuse it loudly.
        with pytest.raises(ConfigurationError, match="already ran"):
            service.run_workload(
                [ScriptedClient(client_id=0, script=[("put", "k", "v2")])]
            )
        assert service.snapshot(0) == {"k": "v1"}

    def test_duplicate_client_ids_within_a_workload_are_rejected(self):
        from repro.errors import ConfigurationError

        service = ShardedKV(ShardConfig(n_shards=1))
        clients = [
            ScriptedClient(client_id=1, script=[("put", "a", 1)]),
            ScriptedClient(client_id=1, script=[("put", "b", 2)]),
        ]
        with pytest.raises(ConfigurationError, match="duplicate client ids"):
            service.run_workload(clients)


class TestServiceConfig:
    def test_shard_leaders_round_robin_across_processes(self):
        service = ShardedKV(ShardConfig(n_shards=5, n_processes=3))
        assert [service.leader_of(g) for g in range(5)] == [0, 1, 2, 0, 1]

    def test_config_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ShardConfig(n_shards=0)
        with pytest.raises(ConfigurationError):
            ShardConfig(batch_max=0)

    # A zero retry timeout resent forever at virtual time 0, a negative
    # one died in the event queue, an infinite one never resent a lost
    # request (nor let a quorum reader give up), and a ring without
    # virtual nodes failed halfway through construction.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("retry_timeout", 0.0),
            ("retry_timeout", -1.0),
            ("retry_timeout", float("inf")),
            ("vnodes", 0),
            ("vnodes", -1),
        ],
    )
    @pytest.mark.parametrize("config", [ShardConfig, ElasticConfig])
    def test_timeouts_and_slot_caps_are_validated(self, config, field, value):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=field):
            config(**{field: value})

    # No process divided by zero in the boot leader map; no memory built
    # a service whose first proposal could never wake.
    @pytest.mark.parametrize(
        "field, value", [("n_processes", 0), ("n_processes", -1), ("n_memories", 0)]
    )
    @pytest.mark.parametrize("config", [ShardConfig, ElasticConfig])
    def test_processes_and_memories_are_validated(self, config, field, value):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=field):
            config(**{field: value})

    @pytest.mark.parametrize("retry_timeout", [0.0, -1.0])
    def test_remote_client_retry_timeout_is_validated(self, retry_timeout):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="retry_timeout"):
            RemoteClient(0, 1, keys=None, mix=None, route=None,
                         retry_timeout=retry_timeout)


class TestAnswerRules:
    """How a frontend's pending entry takes its answer, from the command
    plane (the local replica applies it) or from a fenced leader read (a
    value, or a NAK with ``ok=False``): both go through ``complete``."""

    def _pending(self):
        service = ShardedKV(ShardConfig(n_shards=1, read_mode="leader"))
        frontend = service.frontends[0]
        command = KVCommand("get", "k", client=7, request_id=0)
        return frontend, command, frontend._register(command)

    @staticmethod
    def _answer(entry):
        return entry.done, entry.result, entry.watermark, entry.shard

    def test_a_nak_flags_the_entry_but_never_completes_it(self):
        frontend, command, entry = self._pending()
        frontend.complete(command, "v", 3, 0, ok=False)
        assert entry.failed and entry.gate.is_set
        assert self._answer(entry) == (False, None, None, None)

    def test_an_answer_after_a_nak_completes_it(self):
        frontend, command, entry = self._pending()
        frontend.complete(command, None, None, 0, ok=False)
        frontend.complete(command, "v", watermark=4, shard=0)
        assert self._answer(entry) == (True, "v", 4, 0)

    def test_a_second_completion_or_a_late_nak_changes_nothing(self):
        frontend, command, entry = self._pending()
        frontend.complete(command, "first", watermark=4, shard=0)
        entry.gate.clear()
        frontend.complete(command, "second", watermark=5, shard=0)
        frontend.complete(command, None, None, 0, ok=False)
        assert self._answer(entry) == (True, "first", 4, 0)
        assert not entry.failed and not entry.gate.is_set

    def test_foreign_and_anonymous_commands_are_ignored(self):
        frontend, command, entry = self._pending()
        frontend.complete(("get", "k"), "v", watermark=4, shard=0)
        frontend.complete(KVCommand("get", "k"), "v", watermark=4, shard=0)
        assert self._answer(entry) == (False, None, None, None)
        assert not entry.failed and not entry.gate.is_set


class _Requests:
    """A client on *pid* that sleeps *start* delays, then issues each
    ``(op, key)`` in turn, waiting for every reply."""

    def __init__(self, client_id, ops, pid=1, start=None):
        self.client_id, self.ops, self.pid, self.start = client_id, ops, pid, start
        self.n_ops = len(ops)

    def task(self, env, frontend, recorder):
        if self.start is not None:
            yield env.sleep(self.start)
        for request_id, (op, key) in enumerate(self.ops):
            command = KVCommand(
                op, key, value=request_id, client=self.client_id, request_id=request_id
            )
            started = env.now
            if op == "get":
                result = yield from frontend.get(command)
            else:
                result = yield from frontend.submit(command)
            recorder.record(command, result, env.now - started)


class TestRequestBundles:
    """Requests one frontend routes to one remote shard leader on one
    topic at one instant ride one message (a ``RequestBundle``)."""

    K = 5

    @staticmethod
    def _posting(service):
        """Spy on every frontend's ``_post``: (instant, topic, bundle,
        joined) per request handed to a remote leader."""
        from repro.shard.router import ShardFrontend

        posts = []
        real = ShardFrontend._post

        def spy(frontend, leader, topic, command):
            send = real(frontend, leader, topic, command)
            bundle = frontend._bundles[(leader, topic)]
            posts.append((frontend.env.now, topic, bundle, send is None))
            return send

        return posts, mock.patch.object(ShardFrontend, "_post", spy)

    @staticmethod
    def _applied_once(service, report, n):
        assert report.ok and report.completed_requests == n
        assert report.committed_commands == n
        _converged(service, service.config.n_shards)

    def _puts(self, start=None):
        return [
            _Requests(c, [("put", f"k{c}")], start=start) for c in range(self.K)
        ]

    def test_same_instant_requests_post_one_envelope(self):
        # one shard led by p1; every client on p2
        service = ShardedKV(ShardConfig(n_shards=1, seed=1))
        posts, spying = self._posting(service)
        with spying:
            report = service.run_workload(self._puts())
        assert [(at, joined) for at, _topic, _bundle, joined in posts] == [
            (0.0, False)
        ] + [(0.0, True)] * (self.K - 1)
        assert len(posts[0][2].commands) == self.K
        assert service.kernel.metrics.messages_sent[1] == 1
        self._applied_once(service, report, self.K)
        assert service.frontends[1].retries == 0

    def test_a_request_one_instant_later_posts_a_new_envelope(self):
        service = ShardedKV(ShardConfig(n_shards=1, seed=1))
        clients = [_Requests(0, [("put", "a")]), _Requests(1, [("put", "b")], start=1.0)]
        posts, spying = self._posting(service)
        with spying:
            report = service.run_workload(clients)
        assert [(at, joined) for at, _topic, _bundle, joined in posts] == [
            (0.0, False), (1.0, False)
        ]
        self._applied_once(service, report, 2)

    def test_a_taken_bundle_is_never_joined(self):
        # requests to the leader land in the instant they leave: the
        # second client posts after the first bundle's delivery (its
        # zero-length sleep queues behind it) and must post its own
        from repro.sim.latency import AdversarialLatency

        def instant_requests(kind, src, dst, now):
            return 0.0 if kind == "msg" and src == 1 and dst == 0 else None

        service = ShardedKV(
            ShardConfig(n_shards=1, seed=1, latency=AdversarialLatency(instant_requests))
        )
        clients = [_Requests(0, [("put", "a")]), _Requests(1, [("put", "b")], start=0.0)]
        posts, spying = self._posting(service)
        with spying:
            report = service.run_workload(clients)
        assert [(at, joined) for at, _topic, _bundle, joined in posts] == [
            (0.0, False), (0.0, False)
        ]
        assert [len(bundle.commands) for _at, _topic, bundle, _joined in posts] == [1, 1]
        self._applied_once(service, report, 2)
        assert service.frontends[1].retries == 0  # nobody waited for a resend

    def test_a_bundle_lost_to_a_partition_is_resent_whole(self):
        from repro import FaultScript

        script = FaultScript()
        script.at(0.5).partition([0], [1, 2]).heal(at=50.0)
        service = ShardedKV(ShardConfig(n_shards=1, seed=1, faults=script))
        report = service.run_workload(self._puts())
        assert service.kernel.network.partition_dropped >= 1
        self._applied_once(service, report, self.K)
        assert service.frontends[1].retries == self.K
        assert report.shards[0].duplicates == 0

    def test_a_duplicated_bundle_is_applied_once(self):
        from repro import FaultScript

        script = FaultScript()
        script.at(0.0).duplicate_link(1, 0, until=1.5)
        service = ShardedKV(ShardConfig(n_shards=1, seed=1, faults=script))
        report = service.run_workload(self._puts(start=1.0))
        self._applied_once(service, report, self.K)
        assert service.frontends[1].retries == 0
        # the twin lands a delay later with every request aboard and
        # commits after the run's goal: dedup absorbs each one
        service.kernel.run(until=50.0)
        for pid in range(3):
            machine = service.machine(pid, 0)
            assert (machine.applied_count, machine.duplicates) == (2 * self.K, self.K)
        assert service.snapshot(0) == {f"k{c}": 0 for c in range(self.K)}

    def test_fenced_reads_share_a_bundle(self):
        from repro.shard.router import read_topic

        service = ShardedKV(ShardConfig(n_shards=1, seed=1, read_mode="leader"))
        clients = [_Requests(c, [("get", f"k{c}")]) for c in range(self.K)]
        posts, spying = self._posting(service)
        with spying:
            report = service.run_workload(clients)
        assert {topic for _at, topic, _bundle, _joined in posts} == {read_topic(0)}
        assert sum(not joined for *_rest, joined in posts) == 1
        assert report.ok and report.completed_reads == self.K
        ledger = service.kernel.metrics
        assert ledger.reads_served[0, "leader"] == self.K
        assert not ledger.read_fallbacks

    def test_each_joined_request_keeps_its_own_trace(self):
        # one command per batch: every put's trace holds its own
        # leader.batch, though all K rode the first put's message
        service = ShardedKV(ShardConfig(n_shards=1, batch_max=1, seed=1))
        runtime = attach(service.kernel, profile=False)
        report = service.run_workload(self._puts())
        self._applied_once(service, report, self.K)
        spans = runtime.spans
        submits = {s.trace_id for s in spans if s.name == "client.submit"}
        batches = [s.trace_id for s in spans if s.name == "leader.batch"]
        assert len(submits) == self.K
        assert sorted(batches) == sorted(submits)
        assert sum(s.name == "msg:shard-req-g0" for s in spans) == 1
