"""End-to-end elastic reconfiguration: splits, merges, swaps, crashes.

The acceptance scenario runs a workload *continuously* across a shard
split (2 -> 3) and a replica swap (add p4, remove p3) and checks:

* zero linearizability violations (dedup/at-most-once preserved end to
  end — the ledger's agreement monitor runs strict throughout);
* every key stays readable in every epoch (a monitor client reads a
  fixed key set — chosen so it *moves* in the split — through the whole
  run and asserts the values never disappear or regress);
* old-epoch leaders are provably fenced: after cutover their write
  attempts NAK at the memories.
"""

from dataclasses import dataclass
from typing import List

from repro import (
    AddReplica,
    AutoscalerConfig,
    ClosedLoopClient,
    ElasticConfig,
    ElasticKV,
    FaultScript,
    MergeShard,
    MoveLeader,
    RemoveReplica,
    ScriptedClient,
    SplitShard,
    UniformKeys,
)
from repro.mem.operations import WriteOp
from repro.obs.runtime import attach
from repro.reconfig.migrate import migration_client
from repro.shard.partitioner import ConsistentHashPartitioner
from repro.shard.service import shard_region
from repro.smr.kv import KVCommand
from repro.types import OpStatus, ProcessId


def moved_keys_for_split(n_shards: int, universe) -> List[str]:
    """Keys of *universe* that a split n -> n+1 hands to the new shard
    (computed on a scratch partitioner: rings are config-deterministic)."""
    scratch = ConsistentHashPartitioner(n_shards)
    scratch.stage(1, list(range(n_shards + 1)))
    return [k for k in universe if scratch.shard_for(k, version=1) == n_shards]


@dataclass
class MonitorClient:
    """Writes a fixed key set once, then re-reads it forever, asserting
    no key ever disappears or changes — across every epoch the run has."""

    client_id: int
    keys: List[str]
    rounds: int
    pid: int = 0
    gap: float = 25.0

    @property
    def n_ops(self) -> int:
        return len(self.keys) * (self.rounds + 1)

    def task(self, env, frontend, recorder):
        request_id = 0
        for key in self.keys:
            command = KVCommand(
                "put", key, value=f"stable-{key}",
                client=self.client_id, request_id=request_id,
            )
            request_id += 1
            started = env.now
            result = yield from frontend.submit(command)
            recorder.record(command, result, env.now - started)
        for _round in range(self.rounds):
            yield env.sleep(self.gap)
            for key in self.keys:
                command = KVCommand(
                    "get", key, client=self.client_id, request_id=request_id
                )
                request_id += 1
                started = env.now
                result = yield from frontend.submit(command)
                assert result == f"stable-{key}", (
                    f"key {key!r} unreadable mid-reconfiguration: got {result!r}"
                )
                recorder.record(command, result, env.now - started)


def seed_clients(n_keys: int, writers: int = 3, start_id: int = 100, pids=(0, 1)):
    """Scripted writers laying down ``k{i} -> seed-{i}`` deterministically.

    *pids* pins the writers — crash tests keep clients off the process
    they kill, since a crash takes its resident client tasks with it.
    """
    scripts = [[] for _ in range(writers)]
    for i in range(n_keys):
        scripts[i % writers].append(("put", f"k{i}", f"seed-{i}"))
    return [
        ScriptedClient(client_id=start_id + w, script=scripts[w], pid=pids[w % len(pids)])
        for w in range(writers)
    ]


def assert_store_has(service, key, value):
    owner = service.partitioner.shard_for(key)
    snapshot = service.snapshot(owner)
    assert snapshot.get(key) == value, (key, owner, snapshot.get(key), value)


def assert_region_fenced(service, shard, old_leader):
    """The paper's check: a deposed writer's post-revocation writes NAK."""
    region = shard_region(shard)
    for memory in service.kernel.memories:
        assert not memory.permission_of(region).can_write(ProcessId(old_leader))
        result = memory.apply(
            ProcessId(old_leader),
            WriteOp(region, (region, 10_000, old_leader), "zombie-write"),
        )
        assert result.status == OpStatus.NAK


class TestAcceptance:
    """The issue's acceptance scenario: split + replica swap under load."""

    def test_split_and_replica_swap_under_continuous_load(self):
        service = ElasticKV(
            ElasticConfig(
                n_shards=2,
                n_processes=4,
                initial_replicas=(0, 1, 2),
                batch_max=4,
                seed=21,
                retry_timeout=25.0,
                deadline=60_000.0,
            )
        )
        universe = [f"k{i}" for i in range(90)]
        # the monitor watches its own key namespace, chosen so it MOVES in
        # the split — the strongest readability check crosses the handoff
        moving = moved_keys_for_split(2, [f"mon{i}" for i in range(120)])
        assert len(moving) >= 5, "sampled universe must exercise the split"
        monitor = MonitorClient(client_id=1, keys=moving[:8], rounds=14, pid=1)
        live = [
            ClosedLoopClient(
                client_id=10 + i, n_ops=60, keys=UniformKeys(50, prefix="live"),
                think_time=6.0, pid=i % 2,
            )
            for i in range(3)
        ]
        seeds = seed_clients(90)
        service.schedule_reconfig(260.0, SplitShard())
        service.schedule_reconfig(420.0, AddReplica(3))
        service.schedule_reconfig(520.0, RemoveReplica(2))
        report = service.run_workload(seeds + [monitor] + live)

        assert report.ok, report.summary()
        assert service.kernel.metrics.violations == []
        assert service.epoch.number == 3
        assert tuple(service.shards) == (0, 1, 2)
        assert service.epoch.replicas == (0, 1, 3)
        # every seeded key is in its (current-epoch) owner's committed store
        for i, key in enumerate(universe):
            assert_store_has(service, key, f"seed-{i}")
        # the split genuinely moved the monitor's keys to the new shard
        assert all(service.partitioner.shard_for(k) == 2 for k in moving[:8])
        # fencing: shard g2 was led by the removed p3 (least-loaded at the
        # split); after the swap its region must NAK p3's writes
        deposed = [pair for e in service.epochs for pair in e.deposed]
        assert deposed, "the swap must depose at least one leader"
        for shard, old_leader in deposed:
            if shard in service.shards and service.leader_of(shard) != old_leader:
                assert_region_fenced(service, shard, old_leader)
        # the epoch timeline tells the whole story
        kinds = [r.kind for r in service.kernel.metrics.reconfig_timeline]
        assert kinds.count("activate") == 3
        # no merge ran: splits grant via the takeover prepare, never the
        # coordinator's tombstone storm
        assert "fence" not in kinds
        assert any(r.kind == "migrate" and r.detail["keys"] > 0
                   for r in service.kernel.metrics.reconfig_timeline)

    def test_every_epoch_readable_during_merge(self):
        service = ElasticKV(
            ElasticConfig(
                n_shards=3, n_processes=3, batch_max=4, seed=23,
                retry_timeout=25.0, deadline=60_000.0,
            )
        )
        universe = [f"k{i}" for i in range(60)]
        # monitor keys currently owned by the victim shard: they move out
        victim = 2
        scratch = ConsistentHashPartitioner(3)
        doomed = [k for k in (f"mon{i}" for i in range(120))
                  if scratch.shard_for(k) == victim]
        assert len(doomed) >= 5
        monitor = MonitorClient(client_id=1, keys=doomed[:8], rounds=10, pid=0)
        seeds = seed_clients(60)
        service.schedule_reconfig(250.0, MergeShard(victim))
        report = service.run_workload(seeds + [monitor])
        assert report.ok, report.summary()
        assert service.kernel.metrics.violations == []
        assert tuple(service.shards) == (0, 1)
        for i, key in enumerate(universe):
            assert_store_has(service, key, f"seed-{i}")
        # retirement dropped the victim's leader role and every task of it
        assert sorted(service._controls) == [0, 1]
        assert not service._shard_readable(victim)
        assert not any((pid, victim) in service._group_tasks for pid in range(3))
        victim_tasks = [
            t for t in service.kernel.tasks if t.name.startswith(f"g{victim}-")
        ]
        assert victim_tasks and all(task.done for task in victim_tasks)
        # the tombstone fence: the retired region NAKs its old leader forever
        assert_region_fenced(service, victim, 2 % 3)
        fences = service.kernel.metrics.reconfigs_of("fence")
        assert any(f.subject == shard_region(victim) for f in fences)


class TestMigrationCrashSafety:
    """Satellite: crash the migration source mid-stream; at-most-once."""

    def _run(self, script, seed, n_keys=120, split_at=300.0, client_pids=(0, 2)):
        service = ElasticKV(
            ElasticConfig(
                n_shards=2, n_processes=3, batch_max=4, seed=seed,
                retry_timeout=25.0, deadline=80_000.0, faults=script,
            )
        )
        seeds = seed_clients(n_keys, writers=4, pids=client_pids)
        live = [
            ClosedLoopClient(
                client_id=50 + i, n_ops=40, keys=UniformKeys(40, prefix="live"),
                think_time=6.0, pid=client_pids[i % len(client_pids)],
            )
            for i in range(2)
        ]
        service.schedule_reconfig(split_at, SplitShard())
        report = service.run_workload(seeds + live)
        assert report.ok, report.summary()
        assert service.kernel.metrics.violations == []
        assert service.epoch.number == 1 and tuple(service.shards) == (0, 1, 2)
        universe = [f"k{i}" for i in range(n_keys)]
        for i, key in enumerate(universe):
            assert_store_has(service, key, f"seed-{i}")
        return service, universe

    def test_source_leader_crash_mid_stream(self):
        # g1's leader p2 crashes inside the migration window and recovers;
        # the stream stalls on its barrier, resumes, and nothing is lost
        # or doubled.
        script = FaultScript()
        script.at(330.0).crash_process(1).recover(at=430.0)
        service, universe = self._run(script, seed=31)
        moved = moved_keys_for_split(2, universe)
        new_leader_store = service.snapshot(2)
        machine = service.machine(service.leader_of(2), 2)
        # at-most-once: every moved key applied at the destination exactly
        # once per (key, value) migration identity — the dedup table has
        # one entry per streamed identity and the store one value per key
        for key in moved:
            assert key in new_leader_store
        migration_ids = (migration_client(1, 0), migration_client(1, 1))
        tokens = [t for t in machine.seen if t[0] in migration_ids]
        # every moved key arrived under a migration identity, and the dedup
        # table (one entry per applied identity) is what bounds re-applies
        # to at most once — re-sent identities land in `duplicates` instead
        put_keys = {rid[1] for _client, rid in tokens if rid[0] == "v"}
        assert put_keys >= set(moved)
        # crash really landed mid-epoch: the fault sits between the epoch
        # commit and its activation on the timeline
        ledger = service.kernel.metrics
        committed_at = next(r.time for r in ledger.reconfigs_of("cfg_commit"))
        activated_at = next(r.time for r in ledger.reconfigs_of("activate"))
        crash_at = next(r.time for r in ledger.faults_of("crash_proc"))
        assert committed_at < crash_at < activated_at

    def test_coordinator_crash_mid_stream_restreams_and_dedups(self):
        # p1 hosts the coordinator; killing it mid-migration forces the
        # respawned coordinator to re-run the epoch from the top — the
        # destination's dedup absorbs the replayed identities.
        script = FaultScript()
        script.at(330.0).crash_process(0).recover(at=430.0)
        service, universe = self._run(script, seed=33, client_pids=(1, 2))
        machine = service.machine(service.leader_of(2), 2)
        assert machine.duplicates > 0, (
            "a re-run migration must hit the dedup table, not re-apply"
        )
        ledger = service.kernel.metrics
        committed_at = next(r.time for r in ledger.reconfigs_of("cfg_commit"))
        activated_at = next(r.time for r in ledger.reconfigs_of("activate"))
        crash_at = next(r.time for r in ledger.faults_of("crash_proc"))
        assert committed_at < crash_at < activated_at


class TestDeleteSweep:
    def test_delete_during_dual_ownership_does_not_resurrect(self):
        """A key copied by the bulk pass then deleted at the source must
        not reappear at the new owner after cutover (the delta pass's
        delete sweep)."""
        service = ElasticKV(
            ElasticConfig(
                n_shards=2, n_processes=3, batch_max=4, seed=61,
                retry_timeout=25.0, deadline=60_000.0,
            )
        )
        moving = moved_keys_for_split(2, [f"dk{i}" for i in range(200)])
        doomed, kept = moving[0], moving[1]
        outcome = {}

        class _Deleter:
            client_id = 1
            n_ops = 4
            pid = 0

            def task(self, env, frontend, recorder):
                for request_id, command in enumerate(
                    (
                        KVCommand("put", doomed, value="v1", client=1, request_id=0),
                        KVCommand("put", kept, value="keep", client=1, request_id=1),
                    )
                ):
                    started = env.now
                    result = yield from frontend.submit(command)
                    recorder.record(command, result, env.now - started)
                # the split commits at t=100; by ~120 the bulk pass has
                # copied both keys — now delete one at the (old) owner
                yield env.sleep(120.0 - env.now)
                command = KVCommand("delete", doomed, client=1, request_id=2)
                started = env.now
                result = yield from frontend.submit(command)
                recorder.record(command, result, env.now - started)
                yield env.sleep(400.0)
                command = KVCommand("get", doomed, client=1, request_id=3)
                started = env.now
                result = yield from frontend.submit(command)
                outcome["post_cutover_get"] = result
                recorder.record(command, result, env.now - started)

        seeds = seed_clients(120)
        service.schedule_reconfig(100.0, SplitShard())
        report = service.run_workload(seeds + [_Deleter()])
        assert report.ok, report.summary()
        assert service.epoch.number == 1
        assert outcome["post_cutover_get"] is None, "deleted key resurrected!"
        assert doomed not in service.snapshot(2)
        assert service.snapshot(2).get(kept) == "keep"
        # and it went through the migration vocabulary: the new owner saw
        # the sweep's delete identity
        machine = service.machine(service.leader_of(2), 2)
        sweep_tokens = [t for t in machine.seen if t[1] == ("d", doomed)]
        assert sweep_tokens, "the delta pass must have swept the delete"


def move_leader_service(*moves, attach_obs: bool = False):
    """Seed 41's two-shard service with ``(time, MoveLeader)`` *moves*
    scheduled, run under a seeding + live workload; returns
    ``(service, report, shard 0's boot control)``."""
    service = ElasticKV(
        ElasticConfig(
            n_shards=2, n_processes=3, batch_max=4, seed=41,
            retry_timeout=25.0, deadline=40_000.0,
        )
    )
    if attach_obs:
        attach(service.kernel, profile=False)
    boot_control = service._controls[0]
    for time, move in moves:
        service.schedule_reconfig(time, move)
    live = [
        ClosedLoopClient(
            client_id=60, n_ops=40, keys=UniformKeys(30, prefix="live"),
            think_time=8.0, pid=1,
        )
    ]
    report = service.run_workload(seed_clients(40) + live)
    return service, report, boot_control


class TestLeaderMove:
    def test_move_leader_fences_the_old_one(self):
        service, report, deposed = move_leader_service((120.0, MoveLeader(0, 2)))
        assert report.ok
        assert service.leader_of(0) == 2
        assert_region_fenced(service, 0, 0)
        # the move handed the leader role over as one object
        assert sorted(service._controls) == sorted(service.shards)
        for shard, control in service._controls.items():
            assert control.pid == service.leader_of(shard)
        assert deposed.pid == 0 and deposed is not service._controls[0]
        assert deposed.tasks and all(task.done for task in deposed.tasks)
        # re-running the handover (a respawned coordinator) is a no-op
        spawned = len(service.kernel.tasks)
        service._switch_leader(0, 0, 2)
        assert len(service.kernel.tasks) == spawned
        # traffic keeps flowing through the new leader afterwards
        more = [ScriptedClient(client_id=300, script=[("put", "post", "move")], pid=1)]
        report2 = service.run_workload(more)
        assert report2.ok
        assert_store_has(service, "post", "move")

    def test_deposed_leader_task_spans_close_as_killed(self):
        # a leadership move kills the old leader's tasks; like a crash, the
        # kill must close their task spans — a done task never resumes, so
        # nothing else ever would
        service, report, first = move_leader_service(
            (120.0, MoveLeader(0, 2)), (400.0, MoveLeader(0, 1)), attach_obs=True
        )
        assert report.ok and service.leader_of(0) == 1
        obs = service.kernel.obs
        for task in service.kernel.tasks:
            if task.done:
                assert task.task_id not in obs._task_spans, task.label
        deposed = [s for s in obs.spans if s.kind == "task"
                   and s.actor in ("p3/g0-propose", "p3/g0-accept")]
        assert [(s.start, s.end) for s in deposed] == [(122.0, 402.0)] * 2
        assert all(s.attrs == {"killed": True} for s in deposed)


class TestCrashCycles:
    def test_crash_recover_cycles_keep_task_handles_bounded(self):
        # each recovery respawns a process's replicas; the handles its
        # crash killed must be replaced, not piled up per cycle
        service = ElasticKV(ElasticConfig(n_shards=2, n_processes=3, seed=3))
        kernel = service.kernel

        def handles():
            replicas = {key: len(tasks) for key, tasks in service._group_tasks.items()}
            leaders = {g: len(c.tasks) for g, c in service._controls.items()}
            return replicas, leaders, len(service._cfg_tasks[1])

        def cycle():
            kernel.crash_process(ProcessId(1))
            kernel.recover_process(ProcessId(1))

        cycle()
        after_first = handles()
        for _ in range(4):
            cycle()
        assert handles() == after_first
        assert not any(task.done for task in service._group_tasks[(1, 1)])
        assert not any(task.done for task in service._controls[1].tasks)
        report = service.run_workload(
            [ScriptedClient(client_id=1, script=[("put", "k", "v")], pid=1)]
        )
        assert report.ok


class TestScheduledRejection:
    def test_stale_scheduled_command_is_recorded_not_raised(self):
        # by fire time the victim is already merged away: the timer must
        # record a rejection, never unwind the kernel's run loop
        service = ElasticKV(
            ElasticConfig(
                n_shards=3, n_processes=3, batch_max=4, seed=47,
                retry_timeout=25.0, deadline=40_000.0,
            )
        )
        service.schedule_reconfig(100.0, MergeShard(2))
        service.schedule_reconfig(400.0, MergeShard(2))  # stale by then
        live = [
            ClosedLoopClient(
                client_id=1, n_ops=60, keys=UniformKeys(30), think_time=8.0, pid=0,
            )
        ]
        report = service.run_workload(live)
        assert report.ok
        assert tuple(service.shards) == (0, 1)
        rejected = service.kernel.metrics.reconfigs_of("rejected")
        assert rejected and "not an active shard" in rejected[0].detail["reason"]


class TestStormResilience:
    def test_cfg_region_survives_a_tombstone_storm(self):
        # the PR3 permission-chaos adversary aims Permission() at the
        # control plane's own region: every shot must NAK (non-retirable)
        # and reconfiguration keeps working afterwards
        from repro.mem.permissions import Permission

        script = FaultScript()
        script.at(50.0).permission_storm(
            pid=2, region="cfg", shots=4, spacing=5.0, permission=Permission()
        )
        service = ElasticKV(
            ElasticConfig(
                n_shards=2, n_processes=3, batch_max=4, seed=51,
                retry_timeout=25.0, deadline=40_000.0, faults=script,
            )
        )
        service.schedule_reconfig(120.0, SplitShard())
        live = [
            ClosedLoopClient(
                client_id=1, n_ops=50, keys=UniformKeys(30), think_time=6.0, pid=0,
            )
        ]
        report = service.run_workload(live)
        assert report.ok
        assert service.epoch.number == 1  # the split still went through
        storm = [
            record for record in service.kernel.metrics.faults_of("perm_change")
            if record.detail.get("region") == "cfg"
        ]
        assert storm and all(not record.detail["ok"] for record in storm)


class TestAutoscale:
    def test_zipfian_hotspot_triggers_a_split_end_to_end(self):
        service = ElasticKV(
            ElasticConfig(
                n_shards=2, n_processes=3, batch_max=4, seed=43,
                retry_timeout=25.0, deadline=80_000.0,
                autoscaler=AutoscalerConfig(
                    interval=60.0, split_above=40.0, cooldown=10_000.0,
                    max_shards=3,
                ),
            )
        )
        clients = [
            ClosedLoopClient(
                client_id=i, n_ops=120, keys=UniformKeys(60), think_time=1.0,
            )
            for i in range(4)
        ]
        report = service.run_workload(clients)
        assert report.ok, report.summary()
        assert service.epoch.number == 1, "the hot service must have split"
        assert tuple(service.shards) == (0, 1, 2)
        assert service.autoscaler.proposals
        assert service.kernel.metrics.violations == []
