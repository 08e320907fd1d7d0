"""The read-path overhaul: one-sided quorum reads, permission-fenced
leader reads, session-consistent local reads.

Layer by layer:

* memory — the new one-sided ops (``ProbeOp``, floor-filtered
  ``ReadSnapshotOp``) enforce permissions exactly like their peers;
* consensus — the grant probe is live for the fence holder and dead the
  instant somebody else grabs the region;
* metrics — latency windows are bounded rings and the autoscaler's
  incremental p99 reads survive the bound;
* service — every read mode answers correctly, reports its achieved
  read/write mix, and the fault plane (revocation storms, crash+recover,
  elastic cutovers) forces fallbacks, never stale reads.
"""

import dataclasses

import pytest

from repro import FaultScript
from repro.errors import ConfigurationError, StalenessViolation
from repro.mem.layout import MemoryLayout
from repro.mem.memory import Memory
from repro.mem.operations import (
    ChangePermissionOp,
    ProbeOp,
    ReadSnapshotOp,
    WriteOp,
)
from repro.mem.permissions import Permission, exclusive_grab_policy
from repro.mem.regions import RegionSpec
from repro.metrics.ledger import DEFAULT_LATENCY_WINDOW, LatencyWindow, MetricsLedger
from repro.obs.runtime import attach
from repro.obs.whatif import LatencyOverride, ScaleLink
from repro.reconfig import ElasticConfig, ElasticKV, MoveLeader, SplitShard
from repro.shard import (
    READ_LEADER,
    READ_LOCAL,
    READ_QUORUM,
    ClosedLoopClient,
    OperationMix,
    ScriptedClient,
    ShardConfig,
    ShardedKV,
    ZipfianKeys,
)
from repro.shard.service import shard_region
from repro.smr.kv import KVCommand
from repro.types import MemoryId, OpStatus, ProcessId

P1, P2, P3 = ProcessId(0), ProcessId(1), ProcessId(2)


# ----------------------------------------------------------------------
# memory layer: the new one-sided ops
# ----------------------------------------------------------------------
class TestProbeOp:
    def _memory(self):
        spec = RegionSpec(
            "r",
            ("r",),
            Permission.exclusive_writer(0, range(3)),
            legal_change=exclusive_grab_policy(range(3)),
        )
        return Memory(MemoryId(0), MemoryLayout([spec]))

    def test_write_probe_tracks_the_grant(self):
        memory = self._memory()
        assert memory.apply(P1, ProbeOp("r", "write")).status is OpStatus.ACK
        assert memory.apply(P2, ProbeOp("r", "write")).status is OpStatus.NAK
        # p2 grabs the region: the fence moves with it, atomically
        grab = ChangePermissionOp("r", Permission.exclusive_writer(1, range(3)))
        assert memory.apply(P2, grab).status is OpStatus.ACK
        assert memory.apply(P1, ProbeOp("r", "write")).status is OpStatus.NAK
        assert memory.apply(P2, ProbeOp("r", "write")).status is OpStatus.ACK

    def test_read_probe_and_unknown_region(self):
        memory = self._memory()
        assert memory.apply(P3, ProbeOp("r", "read")).status is OpStatus.ACK
        assert memory.apply(P1, ProbeOp("nope", "write")).status is OpStatus.NAK

    def test_probe_touches_no_register(self):
        memory = self._memory()
        memory.apply(P1, ProbeOp("r", "write"))
        assert memory.registers == {}

    def test_access_validated_at_construction(self):
        with pytest.raises(ValueError):
            ProbeOp("r", "execute")


class TestReadSnapshotOp:
    def _memory(self):
        spec = RegionSpec("r", ("r",), Permission.open(range(3)))
        memory = Memory(MemoryId(0), MemoryLayout([spec]))
        for slot in range(5):
            memory.apply(P1, WriteOp("r", ("r", slot, 0), f"v{slot}"))
        memory.apply(P1, WriteOp("r", ("r", "wm", 0), 4))
        memory.apply(P1, WriteOp("r", ("r", -1, 0), "probe"))
        return memory

    def test_floor_filters_integer_indexed_entries(self):
        memory = self._memory()
        view = memory.apply(P2, ReadSnapshotOp("r", ("r",), floor=3)).value
        assert ("r", 3, 0) in view and ("r", 4, 0) in view
        assert ("r", 2, 0) not in view and ("r", -1, 0) not in view

    def test_named_registers_always_ride_along(self):
        memory = self._memory()
        view = memory.apply(P2, ReadSnapshotOp("r", ("r",), floor=100)).value
        assert view == {("r", "wm", 0): 4}

    def test_none_floor_is_a_plain_snapshot(self):
        memory = self._memory()
        view = memory.apply(P2, ReadSnapshotOp("r", ("r",))).value
        assert len(view) == 7

    def test_permissions_enforced(self):
        spec = RegionSpec("r", ("r",), Permission(readwrite=frozenset([P1])))
        memory = Memory(MemoryId(0), MemoryLayout([spec]))
        assert memory.apply(P2, ReadSnapshotOp("r", ("r",), 0)).status is OpStatus.NAK


class TestRegionsDoNotSeeEachOther:
    """A one-sided read costs what its own regions hold: a sibling shard's
    log in the same memories changes neither the answer, the two delays,
    nor the memory operations the read issues."""

    def _read_beside(self, sibling_slots):
        from repro.sim.environment import ProcessEnv
        from repro.sim.kernel import Kernel, SimConfig
        from repro.smr.kv import KVCommand, KVStateMachine
        from repro.smr.log import ReplicatedLog, SmrConfig, smr_regions, smr_rx_regions

        regions = []
        for region, leader in (("smr-a", 0), ("smr-b", 1)):
            regions += smr_regions(3, leader, region) + smr_rx_regions(3, region)
        kernel = Kernel(SimConfig(n_processes=3, n_memories=3, seed=1),
                        MemoryLayout(regions))

        def log_of(pid, region, leader):
            config = SmrConfig(initial_leader=leader, region=region,
                               topic=region, publish_watermark=True)
            return ReplicatedLog(ProcessEnv(kernel, ProcessId(pid)),
                                 KVStateMachine().apply, config=config,
                                 leader_fn=lambda: leader)

        def writer(log, n_slots):
            for slot in range(n_slots):
                yield from log.propose(slot, KVCommand("put", f"k{slot}", slot))

        kernel.spawn(0, "shard-a", writer(log_of(0, "smr-a", 0), 3))
        kernel.spawn(1, "shard-b", writer(log_of(1, "smr-b", 1), sibling_slots))
        kernel.run(until=1e9)
        assert len(kernel.memories[0].registers) >= 3 + sibling_slots

        before = [dataclasses.replace(m.counts) for m in kernel.memories]
        outcome = []

        def reader():
            started = kernel.now
            watermark = yield from log_of(2, "smr-a", 0).quorum_read()
            outcome.append((watermark, kernel.now - started))

        kernel.spawn(2, "reader", reader())
        kernel.run(until=1e9)
        issued = [
            {name: getattr(m.counts, name) - getattr(was, name)
             for name in vars(was)}
            for m, was in zip(kernel.memories, before)
        ]
        return outcome, issued

    def test_quorum_read_beside_a_5000_slot_sibling_shard(self):
        alone, alone_ops = self._read_beside(0)
        crowded, crowded_ops = self._read_beside(5_000)
        assert alone == crowded == [(2, 2.0)]
        assert alone_ops == crowded_ops
        assert sum(ops["snapshots"] for ops in alone_ops) >= 4  # a majority of 2-op chains


# ----------------------------------------------------------------------
# metrics: bounded latency windows (the unbounded-growth fix)
# ----------------------------------------------------------------------
class TestLatencyWindow:
    def test_ring_is_bounded_but_total_keeps_counting(self):
        window = LatencyWindow(bound=8)
        for i in range(100):
            window.append(float(i), float(i))
        assert len(window) == 8
        assert window.total == 100
        assert window.latencies() == [float(i) for i in range(92, 100)]

    def test_bound_of_one_keeps_only_the_newest(self):
        window = LatencyWindow(bound=1)
        for i in range(5):
            window.append(float(i), float(i))
        assert len(window) == 1
        assert window.total == 5
        assert window.latencies() == [4.0]
        with pytest.raises(ValueError):
            LatencyWindow(bound=0)  # a ring must retain at least one sample

    @pytest.mark.parametrize("bound", [1, 3, 8])
    @pytest.mark.parametrize("extra", [0, 1, "bound+1"])
    def test_wraparound_reads_match_a_deque(self, bound, extra):
        # the ring's columns wrap at `bound`: exactly full, one past it,
        # and 2 * bound + 1 samples (wrapped twice, oldest mid-ring)
        from collections import deque

        n = bound + (bound + 1 if extra == "bound+1" else extra)
        window = LatencyWindow(bound=bound)
        reference = deque(maxlen=bound)
        for i in range(n):
            window.append(float(i), 10.0 + i)
            reference.append((float(i), 10.0 + i))
        assert list(window) == list(reference)
        assert window.latencies() == [latency for _t, latency in reference]

    def test_ledger_applies_the_bound(self):
        ledger = MetricsLedger(strict_safety=False)
        for i in range(DEFAULT_LATENCY_WINDOW + 6):
            ledger.record_shard_latency(0, float(i), float(i), kind="read")
        assert len(ledger.shard_latencies[0]) == DEFAULT_LATENCY_WINDOW
        assert ledger.shard_latencies[0].total == DEFAULT_LATENCY_WINDOW + 6
        assert len(ledger.shard_read_latencies[0]) == DEFAULT_LATENCY_WINDOW


# ----------------------------------------------------------------------
# consensus: the grant probe
# ----------------------------------------------------------------------
class TestGrantProbe:
    def test_pmp_probe_follows_the_grant(self):
        from repro.consensus.probes import probe_write_grant
        from repro.consensus.protected_memory_paxos import REGION, pmp_regions
        from repro.mem.layout import MemoryLayout
        from repro.sim.environment import ProcessEnv
        from repro.sim.kernel import Kernel, SimConfig

        kernel = Kernel(
            SimConfig(n_processes=3, n_memories=3),
            MemoryLayout(pmp_regions(3, initial_leader=0)),
        )
        leader = ProcessEnv(kernel, P1)
        outcomes = {}

        def probe_task(name, env):
            held = yield from probe_write_grant(env, REGION, timeout=50.0)
            outcomes[name] = held

        kernel.spawn(0, "probe-held", probe_task("held", leader))
        kernel.run(until=100.0)
        assert outcomes["held"] is True

        # another process grabs exclusivity at every memory: the fence dies
        usurper_env = ProcessEnv(kernel, P2)

        def grab():
            for mid in usurper_env.memories:
                yield from usurper_env.change_permission(
                    mid, REGION, Permission.exclusive_writer(1, range(3))
                )

        kernel.spawn(1, "grab", grab())
        kernel.run(until=200.0)
        kernel.spawn(0, "probe-lost", probe_task("lost", leader))
        kernel.run(until=300.0)
        assert outcomes["lost"] is False


# ----------------------------------------------------------------------
# service: the three non-consensus read modes
# ----------------------------------------------------------------------
def _mixed_clients(n, n_ops, read_mode=None, think=0.0, base=0):
    return [
        ClosedLoopClient(
            client_id=base + i,
            n_ops=n_ops,
            keys=ZipfianKeys(64, prefix="rk"),
            mix=OperationMix(read_fraction=0.9),
            think_time=think,
            read_mode=read_mode,
        )
        for i in range(n)
    ]


class TestReadModes:
    @pytest.mark.parametrize("mode", [READ_LEADER, READ_QUORUM, READ_LOCAL])
    def test_mode_serves_all_reads_without_consensus(self, mode):
        service = ShardedKV(
            ShardConfig(
                n_shards=2, batch_max=4, seed=3, read_mode=mode,
                deadline=100_000.0,
            )
        )
        report = service.run_workload(_mixed_clients(9, 20))
        assert report.ok
        ledger = service.kernel.metrics
        assert ledger.total_reads_served(mode) == report.completed_reads
        assert ledger.staleness_violations == 0
        # reads never enter the log in this mode: committed commands are
        # exactly the writes
        assert report.committed_commands == report.completed_writes

    def test_read_your_writes_value_correctness(self):
        script = [("put", "alpha", "a1"), ("get", "alpha", None),
                  ("put", "alpha", "a2"), ("get", "alpha", None),
                  ("put", "beta", "b1"), ("get", "beta", None)]
        for mode in (READ_LEADER, READ_QUORUM, READ_LOCAL):
            service = ShardedKV(
                ShardConfig(n_shards=2, seed=7, read_mode=mode, deadline=50_000.0)
            )
            client = ScriptedClient(client_id=1, script=script)
            report = service.run_workload([client])
            assert report.ok
            # replay against the leader machine: final state is correct
            state = service.snapshot(
                service.partitioner.shard_for("alpha")
            )
            assert state["alpha"] == "a2"
            assert service.kernel.metrics.staleness_violations == 0

    def test_per_client_mode_override(self):
        service = ShardedKV(
            ShardConfig(n_shards=2, seed=5, read_mode=READ_LEADER,
                        deadline=100_000.0)
        )
        clients = _mixed_clients(3, 15) + _mixed_clients(
            3, 15, read_mode=READ_QUORUM, base=50
        )
        report = service.run_workload(clients)
        assert report.ok
        ledger = service.kernel.metrics
        assert ledger.total_reads_served(READ_LEADER) > 0
        assert ledger.total_reads_served(READ_QUORUM) > 0

    def test_read_mode_validation(self):
        with pytest.raises(ConfigurationError):
            ShardConfig(read_mode="psychic")

    def test_mode_override_on_disabled_read_plane_refuses_loudly(self):
        """A client asking for a non-consensus mode on a consensus-only
        service must error, not silently measure the wrong path."""
        service = ShardedKV(ShardConfig(n_shards=2, seed=3))
        client = ScriptedClient(
            client_id=1, script=[("get", "k", None)], read_mode=READ_QUORUM
        )
        with pytest.raises(ConfigurationError):
            service.run_workload([client])

    def test_overlapping_open_loop_reads_do_not_trip_the_wire(self):
        """An open-loop client shares one session across in-flight
        requests; replies completing out of watermark order are legal
        concurrency (the floor is captured at issue time), not staleness."""
        from repro.shard import OpenLoopClient

        for mode in (READ_LEADER, READ_QUORUM):
            service = ShardedKV(
                ShardConfig(n_shards=2, seed=23, read_mode=mode,
                            deadline=200_000.0)
            )
            clients = [
                OpenLoopClient(
                    client_id=i, n_ops=25, keys=ZipfianKeys(32, prefix="ok"),
                    mix=OperationMix(read_fraction=0.9), interarrival=0.5,
                )
                for i in range(4)
            ]
            report = service.run_workload(clients)
            assert report.ok
            assert service.kernel.metrics.staleness_violations == 0

    def test_default_consensus_mode_spawns_no_read_plane(self):
        service = ShardedKV(ShardConfig(n_shards=2, seed=1))
        names = {task.name for task in service.kernel.tasks}
        assert not any("rd-" in name for name in names)
        controls = service._controls.values()
        assert all(c.read_queue is None and c.read_gate is None for c in controls)


class _SlowToReader(LatencyOverride):
    """Nominal delays, except that memory responses to process *pid*
    take *mem_factor* times longer and messages to it *link_factor*
    times: its quorum reads stay in flight long after their legs landed,
    and the leader's commit broadcast cannot catch its replica up.
    ``fifo=False`` forfeits the FIFO queue-pair promise, so reads take
    the sequential two-round path."""

    def __init__(self, pid, mem_factor, link_factor, fifo=True):
        super().__init__(rules=[ScaleLink(link_factor, dst=pid)])
        self.pid = pid
        self.mem_factor = mem_factor
        self.fifo_memory_ops = fifo

    def memory_response_delay(self, pid, mid, now, rng):
        delay = super().memory_response_delay(pid, mid, now, rng)
        return delay * self.mem_factor if int(pid) == self.pid else delay


class _TimedClient:
    """Issues ``(at, op, key, value)`` steps, each at virtual time *at* or
    when the previous one returned, whichever is later; ``log`` keeps
    ``(invoked, returned, result)`` per step."""

    def __init__(self, client_id, pid, steps):
        self.client_id = client_id
        self.pid = pid
        self.steps = steps
        self.n_ops = len(steps)
        self.log = []

    def task(self, env, frontend, recorder):
        for request_id, (at, op, key, value) in enumerate(self.steps):
            if env.now < at:
                yield env.sleep(at - env.now)
            command = KVCommand(
                op, key, value=value, client=self.client_id, request_id=request_id
            )
            invoked = env.now
            if op == "get":
                result = yield from frontend.get(command)
            else:
                result = yield from frontend.submit(command)
            recorder.record(command, result, env.now - invoked)
            self.log.append((invoked, env.now, result))


def _quorum_fanouts(service, pid):
    """Quorum-read fan-outs *pid* posted in a fault-free run: each one
    carries a floor-filtered entry snapshot to every memory, and nothing
    else posts that op without a crash or a takeover."""
    ops = service.kernel.metrics.mem_ops[(pid, "ReadSnapshotOp")]
    return ops // service.config.n_memories


#: ``(chain_delivery, fifo)``: the fused read chain, the same chain one
#: signalled work request at a time, and the sequential two-round read
_READ_PATHS = [("fused", True), ("segmented", True), ("fused", False)]
_READ_PATH_IDS = ["fused", "segmented", "sequential"]


class TestSharedQuorumReads:
    """Readers of one shard on one process share a quorum read until its
    first leg lands (``ReplicatedLog.quorum_read``)."""

    def _service(self, latency=None, chain_delivery="fused"):
        service = ShardedKV(
            ShardConfig(
                n_shards=1, n_processes=3, n_memories=3, seed=1,
                read_mode=READ_QUORUM, deadline=5_000.0,
                **({} if latency is None else {"latency": latency}),
            )
        )
        service.kernel.config.chain_delivery = chain_delivery
        return service

    def _window(self, chain_delivery, fifo):
        """Reader A's read lands at t=1 but answers late.  A put on the
        leader completes by t=6; reader B, on A's process, starts at t=8.
        Returns the three clients' logs."""
        latency = _SlowToReader(P3, mem_factor=10.0, link_factor=100.0, fifo=fifo)
        service = self._service(latency, chain_delivery)
        assert service.kernel.fifo_memory_ops is fifo
        clients = [
            _TimedClient(1, P3, [(0.0, "get", "k", None)]),
            _TimedClient(2, P1, [(2.0, "put", "k", "new")]),
            _TimedClient(3, P3, [(8.0, "get", "k", None)]),
        ]
        assert service.run_workload(clients).ok
        assert service.kernel.metrics.staleness_violations == 0
        return [client.log[0] for client in clients]

    @pytest.mark.parametrize("chain_delivery, fifo", _READ_PATHS, ids=_READ_PATH_IDS)
    def test_no_reader_joins_a_read_that_observed_memory(self, chain_delivery, fifo):
        """B starts after the put's reply, while A's landed read is still
        in flight: joining it would answer B from views taken before the
        put committed.  B posts its own read and sees the put."""
        a, put, b = self._window(chain_delivery, fifo)
        assert a[0] < 1.0 < put[1] < b[0] < a[1]
        assert (a[2], b[2]) == (None, "new")
        assert b[1] > a[1]

    @pytest.mark.parametrize("chain_delivery, fifo", _READ_PATHS, ids=_READ_PATH_IDS)
    def test_the_join_rule_bites(self, chain_delivery, fifo):
        """Under the seeded bug B joins A's landed read and misses the put."""
        from repro.check.regressions import seeded_bug

        with seeded_bug("join-landed-quorum-read"):
            a, _put, b = self._window(chain_delivery, fifo)
        assert b[1:] == (a[1], None)

    def test_readers_at_one_instant_share_one_fanout(self):
        """Two readers on one process, invoked at the same instant: one
        fused read fan-out, both answered two delays later, and the
        joiner's ``log.quorum_read`` span says it joined."""
        service = self._service()
        runtime = attach(service.kernel, profile=False)
        readers = [
            _TimedClient(c, P3, [(5.0, "get", "k", None)]) for c in (1, 2)
        ]
        assert service.run_workload(readers).ok
        assert _quorum_fanouts(service, P3) == 1
        assert [reader.log for reader in readers] == [[(5.0, 7.0, None)]] * 2
        reads = [span for span in runtime.spans if span.name == "log.quorum_read"]
        assert [(span.start, span.end, span.attrs.get("joined")) for span in reads] == [
            (5.0, 7.0, None), (5.0, 7.0, True)
        ]

    def test_a_joiner_gives_up_at_its_own_timeout(self):
        """With every memory crashed the shared read never lands; each
        joiner falls back at its own deadline, not its issuer's."""
        service = self._service()
        for mid in range(3):
            service.kernel.crash_memory(MemoryId(mid))
        log = service.logs[(int(P3), 0)]
        env = service.cluster.env_for(P3)
        ends = {}

        def reader(name, start, timeout):
            yield env.sleep(start)
            outcome = yield from log.quorum_read(timeout=timeout)
            ends[name] = (env.now, outcome)

        service.cluster.spawn(P3, "issuer", reader("issuer", 1.0, 50.0))
        service.cluster.spawn(P3, "joiner", reader("joiner", 2.0, 10.0))
        service.kernel.run(until=100.0)
        assert ends == {"issuer": (51.0, None), "joiner": (12.0, None)}
        assert _quorum_fanouts(service, P3) == 1


class TestAchievedMix:
    def test_report_counts_served_mix_per_shard(self):
        service = ShardedKV(
            ShardConfig(n_shards=2, seed=9, read_mode=READ_QUORUM,
                        deadline=100_000.0)
        )
        # a deterministic script: 6 puts, 9 gets => achieved 0.6 read mix
        ops = []
        for i in range(6):
            ops.append(("put", f"mk{i}", f"v{i}"))
        for i in range(9):
            ops.append(("get", f"mk{i % 6}", None))
        report = service.run_workload([ScriptedClient(client_id=2, script=ops)])
        assert report.ok
        assert report.completed_reads == 9
        assert report.completed_writes == 6
        assert report.achieved_read_fraction == pytest.approx(0.6)
        per_shard = sum(s.reads for s in report.shards.values())
        assert per_shard == 9
        # the per-shard table carries the achieved mix column
        assert "rmix" in report.per_shard_table()


# ----------------------------------------------------------------------
# fault plane composition: storms, crashes, cutovers
# ----------------------------------------------------------------------
class TestFenceUnderFaults:
    def test_permission_storm_forces_fallback_never_stale(self):
        script = FaultScript()
        script.at(30.0).permission_storm(
            pid=2, region=shard_region(0), shots=6, spacing=4.0
        )
        service = ShardedKV(
            ShardConfig(
                n_shards=2, n_processes=3, batch_max=4, seed=5,
                read_mode=READ_LEADER, retry_timeout=30.0, deadline=300_000.0,
                faults=script,
            )
        )
        report = service.run_workload(_mixed_clients(12, 40))
        assert report.ok
        ledger = service.kernel.metrics
        # the storm revoked the leader's grant mid-run: some fenced reads
        # had to refuse and fall back to consensus...
        assert ledger.read_fallbacks[(0, READ_LEADER)] > 0
        # ...and not one read was served stale
        assert ledger.staleness_violations == 0
        assert ledger.faults_of("perm_change")

    def test_leader_crash_recovery_with_local_reads(self):
        script = FaultScript()
        script.at(80.0).crash_process(0).recover(at=160.0)
        service = ShardedKV(
            ShardConfig(
                n_shards=2, n_processes=3, batch_max=4, seed=13,
                read_mode=READ_LOCAL, retry_timeout=25.0, deadline=300_000.0,
                faults=script,
            )
        )
        # clients pinned away from the crash victim so they survive it
        clients = [
            ClosedLoopClient(
                client_id=i, n_ops=30, keys=ZipfianKeys(48, prefix="ck"),
                mix=OperationMix(read_fraction=0.8), pid=1 + (i % 2),
            )
            for i in range(6)
        ]
        report = service.run_workload(clients)
        assert report.ok
        assert service.kernel.metrics.staleness_violations == 0

    def test_quorum_reads_survive_a_partitioned_leader(self):
        """A minority-side client can still read one-sided: memory ops
        cross the partition (memories are not processes)."""
        script = FaultScript()
        script.at(50.0).partition({0, 1}, {2}).heal(at=250.0)
        service = ShardedKV(
            ShardConfig(
                n_shards=1, n_processes=3, batch_max=4, seed=21,
                read_mode=READ_QUORUM, retry_timeout=30.0, deadline=300_000.0,
                faults=script,
            )
        )
        # seed a value before the partition, then have the minority read it
        seeder = ScriptedClient(
            client_id=1, script=[("put", f"pk{i}", f"v{i}") for i in range(8)],
            pid=0,
        )
        minority_reader = ScriptedClient(
            client_id=2,
            script=[("get", f"pk{i % 8}", None) for i in range(20)],
            pid=2,
            read_mode=READ_QUORUM,
        )
        report = service.run_workload([seeder, minority_reader])
        assert report.ok
        ledger = service.kernel.metrics
        assert ledger.total_reads_served(READ_QUORUM) == 20
        assert ledger.staleness_violations == 0


class TestElasticCompose:
    def test_deposed_leader_naks_local_reads_via_the_fence(self):
        """After a MoveLeader cutover the old leader's grant probe must
        fail at the memories — a deposed leader can never serve a fenced
        read again."""
        service = ElasticKV(
            ElasticConfig(
                n_shards=2, n_processes=3, batch_max=4, seed=31,
                read_mode=READ_LEADER, retry_timeout=25.0, deadline=200_000.0,
            )
        )
        old_leader = service.leader_of(0)
        new_leader = (old_leader + 1) % 3
        service.schedule_reconfig(60.0, MoveLeader(0, new_leader))
        report = service.run_workload(_mixed_clients(6, 25, think=2.0))
        assert report.ok
        assert service.leader_of(0) == new_leader
        outcomes = {}

        def probe(name, log):
            held = yield from log.fence_probe(timeout=50.0)
            outcomes[name] = held

        kernel = service.kernel
        kernel.spawn(old_leader, "probe-old", probe("old", service.logs[(old_leader, 0)]))
        kernel.spawn(new_leader, "probe-new", probe("new", service.logs[(new_leader, 0)]))
        kernel.run(until=kernel.now + 200.0)
        assert outcomes == {"old": False, "new": True}
        assert kernel.metrics.staleness_violations == 0

    def test_acceptance_storm_partition_and_split(self):
        """The E18 chaos composition: a permission storm, a partition +
        heal, and a live 2→3 split under a read-mostly mixed-mode
        workload — every request completes, zero staleness violations."""
        script = FaultScript()
        script.at(100.0).permission_storm(
            pid=2, region=shard_region(0), shots=5, spacing=5.0
        )
        script.at(150.0).partition({0, 1}, {2}).heal(at=400.0)
        service = ElasticKV(
            ElasticConfig(
                n_shards=2, n_processes=3, batch_max=4, seed=11,
                read_mode=READ_LEADER, retry_timeout=30.0, deadline=400_000.0,
                faults=script,
            )
        )
        service.schedule_reconfig(220.0, SplitShard())
        seeds = [
            ScriptedClient(
                client_id=100 + w,
                script=[("put", f"zk{i}", f"s{i}") for i in range(w, 48, 3)],
            )
            for w in range(3)
        ]
        clients = (
            _mixed_clients(4, 30, think=2.0)
            + _mixed_clients(3, 30, read_mode=READ_QUORUM, think=2.0, base=40)
        )
        report = service.run_workload(seeds + clients)
        assert report.ok, report.summary()
        assert service.shards == [0, 1, 2]  # the split activated
        ledger = service.kernel.metrics
        assert ledger.staleness_violations == 0
        assert ledger.total_reads_served() > 0
        # the storm forced the fenced path to degrade at least once
        assert ledger.total_read_fallbacks() > 0


class TestStalenessTripwire:
    def test_stale_read_raises_under_strict_safety(self):
        ledger = MetricsLedger(strict_safety=True)
        with pytest.raises(StalenessViolation):
            ledger.record_stale_read("synthetic")
        assert ledger.staleness_violations == 1

    def test_recorded_without_raising_when_lenient(self):
        ledger = MetricsLedger(strict_safety=False)
        ledger.record_stale_read("synthetic")
        assert ledger.stale_reads == ["synthetic"]
