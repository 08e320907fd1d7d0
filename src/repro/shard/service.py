"""The sharded replicated KV service: N consensus groups, one kernel.

This is the scaling layer the paper's systems descendants (Mu, DARE,
APUS) build above a single replicated log.  State is partitioned across
``n_shards`` independent SMR groups by consistent hashing; every process
hosts one replica of every group, each group pins its own leader
(``shard % n_processes``) so proposal work spreads across processes, and
each leader drains its request queue into :class:`~repro.smr.log.Batch`
entries so a single two-delay Protected Memory Paxos instance commits up
to ``batch_max`` client commands.

The paper's leader decides an instance with one two-delay write under
its exclusive permission, and instances live in disjoint registers —
nothing makes slot ``k+1`` wait for slot ``k``.  A crash-tolerant shard
leader therefore keeps up to ``PIPELINE_DEPTH`` slots in flight (several
work requests outstanding on one queue pair, completions polled from one
completion queue: the shard's pending gate), but posts slot ``k+1`` early
only while a full batch is already waiting — overlap at the queue only
while it is backed up, so an unsaturated shard behaves exactly as a
one-slot-at-a-time leader and batch fill never falls.  The launch, NAK
and park rules are on :meth:`ShardedKV._proposer`.

Crash-tolerant shards run :class:`~repro.smr.log.ReplicatedLog`
(Protected Memory Paxos per slot).  Shards listed in
``ShardConfig.bft_shards`` instead run Fast & Robust per slot — the
Byzantine backend of :mod:`repro.smr.byzantine_log` — with the same
batching and routing on top; their slot regions are declared up front,
so each BFT shard carries a ``bft_max_slots`` cap.

A shard's leader role — what its exclusive write grant lets the holder
do — is one :class:`ShardControl` (commit pipeline, fenced-read intake,
leader task handles), built at boot, at a split and at a leadership
move, which deposes the old one whole as ``changePermission`` moves the
grant whole.  Crash recovery keeps it; retirement drops it.  Replica
state stays keyed by ``(pid, shard)``.

The service owns assembly (regions for every group union-ed into one
:class:`~repro.core.cluster.MultiGroupCluster`), the per-process
:class:`~repro.shard.router.ShardFrontend`, and the workload run loop
that drives client tasks to completion and aggregates per-shard metrics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Generator, List, Optional, Sequence, Tuple

from repro.broadcast.nonequivocating import neb_regions
from repro.consensus.cheap_quorum import CheapQuorumConfig, cq_regions
from repro.consensus.fast_robust import FastRobust, FastRobustConfig
from repro.core.cluster import ClusterConfig, MultiGroupCluster
from repro.errors import ConfigurationError
from repro.mem.regions import RegionSpec
from repro.metrics.workload import ShardStats, WorkloadReport
from repro.shard.partitioner import ConsistentHashPartitioner
from repro.shard.router import (
    READ_CONSENSUS,
    READ_MODES,
    ReadPaths,
    ShardFrontend,
    read_reply_topic,
    read_topic,
    request_topic,
)
from repro.sim.futures import Gate
from repro.sim.latency import LatencyModel, NominalLatency
from repro.smr.kv import KVCommand, KVStateMachine
from repro.smr.log import Batch, ReplicatedLog, SmrConfig, smr_regions, smr_rx_regions


#: how often an idle shard leader re-checks its request queue
IDLE_POLL = 2.0
#: slots a crash-tolerant shard leader keeps in flight (see ``_proposer``).
#: Two hides the round trip behind the next batch: measured once, depths
#: 3 and 4 buy 7 % more on the saturated workload's mean latency, and
#: every extra slot in flight is one more to re-drive serially per NAK.
PIPELINE_DEPTH = 2
#: how long a Byzantine shard's followers wait for the leader's slot value
BFT_LEADER_TIMEOUT = 50.0
#: burn-rate evaluation period (virtual units) when ``ShardConfig.slo``
#: arms the sampling ticker itself
SLO_INTERVAL = 25.0


def shard_region(shard: int) -> str:
    """Region/topic namespace of one crash-tolerant shard's log."""
    return f"smr-g{shard}"


@dataclass
class ShardConfig:
    """Everything needed to stand up one sharded replicated KV service."""

    n_shards: int = 4
    n_processes: int = 3
    n_memories: int = 3
    #: max commands one consensus instance carries (1 = seed behaviour)
    batch_max: int = 8
    #: virtual nodes per shard on the consistent-hash ring
    vnodes: int = 64
    seed: int = 0
    latency: LatencyModel = field(default_factory=NominalLatency)
    deadline: float = 50_000.0
    #: client resend interval; dedup makes resends idempotent
    retry_timeout: float = 200.0
    #: shard ids served by the Byzantine Fast & Robust backend
    bft_shards: Tuple[int, ...] = ()
    #: per-BFT-shard slot cap (slot regions are declared up front)
    bft_max_slots: int = 8
    #: fault timeline (FaultScript) to install; process crash/recover
    #: events target shards through their leader —
    #: one shard can churn while the untouched shards keep serving
    faults: Optional[object] = None
    #: default routing of client ``get``s: ``consensus`` (reads are
    #: commands — seed behaviour), ``leader`` (permission-fenced reads
    #: from the leader's applied state), ``quorum`` (one-sided majority
    #: reads, no leader involvement) or ``local`` (session-consistent
    #: reads from the submitting process's own replica).  Anything but
    #: ``consensus`` stands up the read plane — read-index regions,
    #: watermark publication, per-shard read servers and reply pumps —
    #: and lets clients override the mode per request.
    read_mode: str = READ_CONSENSUS
    #: declarative SLOs (:class:`repro.obs.slo.Objective`) evaluated on the
    #: obs runtime's virtual-time ticker.  Only active when an obs runtime
    #: is attached before ``run_workload`` — without one the service keeps
    #: its zero-observability cost and the objectives are inert.
    slo: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError("need at least one shard")
        if self.batch_max < 1:
            raise ConfigurationError("batch_max must be >= 1")
        if not self.retry_timeout > 0:
            raise ConfigurationError(
                f"retry_timeout must be > 0, got {self.retry_timeout!r}"
            )
        if self.bft_max_slots < 1:
            raise ConfigurationError("bft_max_slots must be >= 1")
        bad = [g for g in self.bft_shards if not 0 <= g < self.n_shards]
        if bad:
            raise ConfigurationError(f"bft_shards out of range: {bad}")
        if self.read_mode not in READ_MODES:
            raise ConfigurationError(
                f"unknown read_mode {self.read_mode!r}; pick one of {READ_MODES}"
            )
        if self.read_mode != READ_CONSENSUS and self.bft_shards:
            raise ConfigurationError(
                "non-consensus read paths are crash-tolerant only: a "
                "Byzantine shard's fence/watermark registers could be lied "
                "about by its leader — route BFT reads through consensus"
            )
        for objective in self.slo:
            shard = getattr(objective, "shard", None)
            if shard is not None and not 0 <= shard < self.n_shards:
                raise ConfigurationError(
                    f"objective {objective.name!r} scopes shard {shard}, "
                    f"but the service has {self.n_shards}"
                )

    @property
    def read_paths_enabled(self) -> bool:
        """True when the non-consensus read plane is stood up."""
        return self.read_mode != READ_CONSENSUS


def _is_migration_client(client: Any) -> bool:
    """Migration identities are ``("mig", epoch, source)`` tuples."""
    return isinstance(client, tuple) and bool(client) and client[0] == "mig"


def _migration_applies(machine: KVStateMachine) -> Tuple[int, int]:
    """``(distinct_tokens, total_applies)`` of migration traffic on
    *machine* — what workload accounting subtracts so reports count
    client commands, not the transfers an elastic epoch streamed."""
    tokens = sum(1 for token in machine.seen if _is_migration_client(token[0]))
    applies = sum(
        1
        for _slot, command, _result in machine.applied
        if isinstance(command, KVCommand) and _is_migration_client(command.client)
    )
    return (tokens, applies)


class _Recorder:
    """Collects per-request completions as client tasks finish them.

    Stats entries are created lazily: an elastic run can add shards while
    the workload is in flight, and completions are attributed to the key's
    owner in the routing ring at completion time.
    """

    def __init__(self, service: "ShardedKV") -> None:
        self._service = service
        self.completed = 0
        self.stats: Dict[int, ShardStats] = {
            g: ShardStats(shard=g) for g in service.shards
        }

    def record(self, command: KVCommand, result: Any, latency: float) -> None:
        shard = self._service.partitioner.shard_for(command.key)
        stats = self.stats.get(shard)
        if stats is None:
            stats = self.stats[shard] = ShardStats(shard=shard)
        stats.latencies.append(latency)
        # achieved read/write mix, counted per COMPLETION: what the shard
        # actually served, not what the workload intended to send
        if command.op == "get":
            kind = "read"
            stats.reads += 1
            stats.read_latencies.append(latency)
        else:
            kind = "write"
            stats.writes += 1
        now = self._service.kernel.now
        self._service.kernel.metrics.record_shard_latency(shard, now, latency, kind)
        self.completed += 1


class ShardControl:
    """One shard's leader role, handed over whole by a leadership move.

    ``queue``/``gate``/``inflight`` are the commit pipeline (``inflight``:
    posted-but-unsettled ``(slot, commands, phase, PostedWrite)``, oldest
    first, owned by the proposer); ``read_queue``/``read_gate`` the fenced
    read intake (None without the read plane); ``tasks`` the leader-role
    task handles of the current incarnation.
    """

    __slots__ = ("shard", "pid", "queue", "gate", "inflight",
                 "read_queue", "read_gate", "tasks")

    def __init__(self, shard: int, pid: int, reads: bool) -> None:
        self.shard = shard
        self.pid = pid
        self.queue: Deque[KVCommand] = deque()
        self.gate = Gate(f"g{shard}-pending")
        self.inflight: Deque[Tuple[int, tuple, Any, Any]] = deque()
        self.read_queue: Optional[Deque[Tuple[KVCommand, int]]] = deque() if reads else None
        self.read_gate = Gate(f"g{shard}-reads") if reads else None
        self.tasks: List[Any] = []

    def depose(self, kernel) -> None:
        """End this leader role: its tasks die, its queued commands and
        parked reads are dropped (clients resend, dedup absorbs)."""
        for task in self.tasks:
            kernel.kill_task(task)
        self.queue.clear()
        if self.read_queue is not None:
            self.read_queue.clear()


class ShardedKV:
    """A multi-group replicated KV service inside one simulation kernel."""

    def __init__(self, config: Optional[ShardConfig] = None) -> None:
        self.config = cfg = config or ShardConfig()
        self.partitioner = ConsistentHashPartitioner(cfg.n_shards, vnodes=cfg.vnodes)
        #: active shard ids, in id order.  Static here; the elastic
        #: subclass rewrites it (and the leader map) at epoch activation.
        self.shards: List[int] = list(range(cfg.n_shards))
        self._leader_map: Dict[int, int] = self._initial_leaders()

        self.cluster = self._make_cluster(self._boot_regions())
        self.kernel = self.cluster.kernel
        # Per-shard fault targeting: when a process crashes its led shards
        # stall (queued commands die with it) and when it recovers, fresh
        # replica state is rebuilt per shard — crash-tolerant shards only;
        # a BFT replica that crashes stays down (Fast & Robust has no
        # recovery protocol, and its slot regions are single-use).
        self.kernel.failures.on_crash(self._on_process_crash)
        self.kernel.failures.on_recover(self._respawn_process)
        #: processes that crashed at least once — their (unrecoverable) BFT
        #: replicas are exempt from the convergence goal
        self._ever_crashed: set = set()

        #: the leader role of every live group, one control per shard
        self._controls: Dict[int, ShardControl] = {
            g: ShardControl(g, self.leader_of(g), cfg.read_paths_enabled)
            for g in self.shards
        }
        #: enqueue-time trace context per command identity — how a client
        #: request's causal chain crosses the leader's queue handoff (the
        #: draining proposer parents its batch span under the first
        #: command's context).  Only populated while an observability
        #: runtime is attached; popped at drain time.
        self._cmd_ctx: Dict[Tuple[Any, Any], Any] = {}
        self.machines: Dict[Tuple[int, int], KVStateMachine] = {}
        self.logs: Dict[Tuple[int, int], ReplicatedLog] = {}
        self.frontends: Dict[int, ShardFrontend] = {}
        self._used_client_ids: set = set()
        #: task handles per (pid, shard) replica, so reconfiguration can
        #: retire a group or a replica
        self._group_tasks: Dict[Tuple[int, int], List[Any]] = {}

        for pid in range(cfg.n_processes):
            self.frontends[pid] = self._make_frontend(pid)
            if cfg.read_paths_enabled:
                self._spawn_read_reply_pump(pid)
        self._spawn_replicas()

    # ------------------------------------------------------------------
    # assembly hooks (overridden by the elastic service)
    # ------------------------------------------------------------------
    def _initial_leaders(self) -> Dict[int, int]:
        """Boot leader map: groups round-robin across processes."""
        return {g: g % self.config.n_processes for g in self.shards}

    def _boot_regions(self) -> List[RegionSpec]:
        """The memory regions every boot shard's backend needs."""
        cfg = self.config
        regions: List[RegionSpec] = []
        for g in self.shards:
            leader = self.leader_of(g)
            if g in cfg.bft_shards:
                for slot in range(cfg.bft_max_slots):
                    regions.extend(
                        cq_regions(cfg.n_processes, leader, namespace=self._cq_ns(g, slot))
                    )
                    regions.extend(
                        neb_regions(range(cfg.n_processes), namespace=self._neb_ns(g, slot))
                    )
            else:
                regions.extend(
                    smr_regions(cfg.n_processes, leader, region=shard_region(g))
                )
                if cfg.read_paths_enabled:
                    regions.extend(
                        smr_rx_regions(cfg.n_processes, region=shard_region(g))
                    )
        return regions

    def _make_frontend(self, pid: int) -> ShardFrontend:
        """One process's request router (boot and crash-recovery rebuilds)."""
        cfg = self.config
        read_paths = None
        if cfg.read_paths_enabled:
            read_paths = ReadPaths(
                default_mode=cfg.read_mode,
                leader_read_submit=self._submit_leader_read,
                quorum_read=self._quorum_read,
                local_read=self._local_read,
                readable=self._shard_readable,
                ledger=self.kernel.metrics,
            )
        return ShardFrontend(
            self.cluster.env_for(pid),
            shard_for=self.partitioner.shard_for,
            leader_of=self.leader_of,
            local_submit=self._local_submit,
            retry_timeout=cfg.retry_timeout,
            read_paths=read_paths,
        )

    def _make_cluster(self, regions: Sequence[RegionSpec]) -> MultiGroupCluster:
        cfg = self.config
        return MultiGroupCluster(
            ClusterConfig(
                n_processes=cfg.n_processes,
                n_memories=cfg.n_memories,
                latency=cfg.latency,
                seed=cfg.seed,
                deadline=cfg.deadline,
            ),
            regions,
            faults=cfg.faults,
        )

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    @property
    def active_replicas(self) -> List[int]:
        """Processes hosting shard replicas (all of them, when static)."""
        return list(range(self.config.n_processes))

    def leader_of(self, shard: int) -> int:
        """The shard's current leader (static round-robin by default;
        rewritten per epoch by the elastic service)."""
        return self._leader_map[shard]

    def shards_led_by(self, pid: int) -> List[int]:
        """The shards whose leader runs on *pid* (fault-targeting helper:
        crashing *pid* churns exactly these shards)."""
        return [g for g in self.shards if self.leader_of(g) == pid]

    def _cq_ns(self, shard: int, slot: int) -> str:
        return f"g{shard}cq{slot}"

    def _neb_ns(self, shard: int, slot: int) -> str:
        return f"g{shard}neb{slot}"

    def machine(self, pid: int, shard: int) -> KVStateMachine:
        return self.machines[(pid, shard)]

    def snapshot(self, shard: int) -> Dict[str, Any]:
        """The shard leader's current committed store."""
        return self.machines[(self.leader_of(shard), shard)].snapshot()

    def replica_divergence(self) -> List[str]:
        """Model-checking oracle: replicas must agree slot for slot.

        For every shard, every pair of replicas must have applied the same
        command with the same result at every log slot both have reached —
        replicas may trail (shorter applied prefix) but never disagree.
        Returns human-readable error strings, empty when consistent.
        """
        errors: List[str] = []
        for shard in self.shards:
            applied = {
                pid: {
                    slot: (command, result)
                    for slot, command, result in self.machines[(pid, shard)].applied
                }
                for pid in self.active_replicas
                if (pid, shard) in self.machines
            }
            pids = sorted(applied)
            for i, pa in enumerate(pids):
                for pb in pids[i + 1:]:
                    for slot in applied[pa].keys() & applied[pb].keys():
                        if applied[pa][slot] != applied[pb][slot]:
                            errors.append(
                                f"shard {shard} slot {slot}: p{pa + 1} applied "
                                f"{applied[pa][slot]!r} but p{pb + 1} applied "
                                f"{applied[pb][slot]!r}"
                            )
        return errors

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def _spawn_replicas(self) -> None:
        cfg = self.config
        for g in self.shards:
            leader = self.leader_of(g)
            for pid in self.active_replicas:
                if g in cfg.bft_shards:
                    env = self.cluster.env_for(pid)
                    machine = KVStateMachine()
                    self.machines[(pid, g)] = machine
                    self.cluster.spawn(
                        pid, f"g{g}-bft-p{pid+1}", self._bft_driver(g, env, machine)
                    )
                    if pid == leader:
                        self.cluster.spawn(pid, f"g{g}-accept", self._acceptor(g, env))
                else:
                    self._spawn_pmp_replica(pid, g)

    def _spawn_pmp_replica(self, pid: int, shard: int, recovered: bool = False) -> None:
        """Assemble one crash-tolerant replica of *shard* on *pid*: state
        machine, log, and the task set its role needs.  Serves both boot
        (``_spawn_replicas``) and crash recovery (``_respawn_process``,
        with ``recovered=True``: the log re-prepares instead of assuming
        permissions, and followers pull the committed prefix)."""
        leader = self.leader_of(shard)
        env = self.cluster.env_for(pid)
        machine = KVStateMachine()
        self.machines[(pid, shard)] = machine
        log = ReplicatedLog(
            env,
            self._make_apply(pid, shard, machine),
            SmrConfig(
                initial_leader=leader,
                region=shard_region(shard),
                topic=shard_region(shard),
                publish_watermark=self.config.read_paths_enabled,
            ),
            leader_fn=lambda g=shard: self.leader_of(g),
            recovered=recovered,
            pipeline_depth=self._pipeline_depth(),
        )
        self.logs[(pid, shard)] = log
        # a respawn replaces the handles its crash already killed
        self._group_tasks[(pid, shard)] = replica_tasks = [
            self.cluster.spawn(pid, f"g{shard}-listen-p{pid+1}", log.listener()),
            self.cluster.spawn(pid, f"g{shard}-sync-p{pid+1}", log.sync_server()),
        ]
        if pid == leader:
            self._spawn_leader_role(pid, shard)
        elif recovered:
            replica_tasks.append(
                self.cluster.spawn(pid, f"g{shard}-catchup-p{pid+1}", log.catchup())
            )

    def _spawn_leader_role(self, pid: int, shard: int) -> None:
        """Spawn the leader-side tasks of *shard* on *pid* (proposer +
        request intake) into the shard's control, replacing a crashed
        incarnation's handles; a move deposes them, not the replica."""
        env, log = self.cluster.env_for(pid), self.logs[(pid, shard)]
        spawn = self.cluster.spawn
        tasks = [
            spawn(pid, f"g{shard}-propose", self._proposer(shard, env, log)),
            spawn(pid, f"g{shard}-accept", self._acceptor(shard, env)),
        ]
        if self.config.read_paths_enabled:
            tasks += [
                spawn(pid, f"g{shard}-rd-accept", self._read_acceptor(shard, env)),
                spawn(pid, f"g{shard}-rd-serve", self._read_server(shard, env, log)),
            ]
        self._controls[shard].tasks = tasks

    def _make_apply(self, pid: int, shard: int, machine: KVStateMachine):
        """Apply committed entries and answer this process's waiting clients.

        Frontends are looked up per apply, not captured: a recovered
        process's rebuilt frontend must answer, not its dead predecessor.
        (Per-shard commit crediting happens on the leader's propose path,
        not here — followers must not pay bookkeeping on the apply hot
        path just to find out they are not the leader.)
        """

        def apply_fn(slot: int, value: Any) -> None:
            results = machine.apply(slot, value)
            frontend = self.frontends[pid]
            if isinstance(value, Batch):
                for command, result in zip(value.commands, results):
                    frontend.complete(command, result, watermark=slot, shard=shard)
            else:
                frontend.complete(value, results, watermark=slot, shard=shard)

        return apply_fn

    # ------------------------------------------------------------------
    # per-shard server tasks
    # ------------------------------------------------------------------
    def _note_cmd_ctx(self, command: KVCommand) -> None:
        """Stash the enqueuing task's trace context for the drain side."""
        obs = self.kernel.obs
        if obs is not None and obs.current_task is not None:
            token = command.identity
            if token is not None:
                self._cmd_ctx[token] = obs.current_task.ctx

    def _pop_cmd_ctx(self, batch: Sequence[KVCommand]):
        """Retire the batch's stashed contexts; returns the first one."""
        parent = None
        pop = self._cmd_ctx.pop
        for command in batch:
            ctx = pop(command.identity, None)
            if parent is None:
                parent = ctx
        return parent

    def _local_submit(self, shard: int, command: KVCommand) -> None:
        """Enqueue a request arriving on the shard leader's own process,
        waking its proposer only when the wake can launch something:

        * the queue became non-empty with nothing in flight — an idle
          proposer drains whatever is queued;
        * the queue reached a full batch with a slot in flight and room
          in the pipeline — the one case a busy proposer launches early.

        Every other append finds the proposer either about to look at
        the queue anyway (the next verdict wakes it) or unable to act,
        so it skips the signal round-trip.
        """
        if self.kernel.obs is not None:
            self._note_cmd_ctx(command)
        control = self._controls[shard]
        queue = control.queue
        queue.append(command)
        queued = len(queue)
        if queued == 1 or queued == self.config.batch_max:
            in_flight = len(control.inflight)
            if in_flight == 0:
                wake = queued == 1
            else:
                wake = (
                    queued == self.config.batch_max
                    and in_flight < self._pipeline_depth()
                )
            if wake:
                self.kernel.pulse_gate(control.gate)

    def _acceptor(self, shard: int, env) -> Generator:
        """Leader-side intake: requests from remote frontends."""
        recv_request = env.recv_effect(topic=request_topic(shard))
        while True:
            envelope = yield recv_request
            if envelope is None:
                continue
            self._local_submit(shard, envelope.payload)

    def _drainable(self, shard: int, command: KVCommand) -> bool:
        """May *shard*'s leader commit *command*?  Always, when static.

        The elastic service overrides this with the seal filter: once an
        epoch transition seals a shard, commands for keys that moved away
        are dropped here — never committed, never answered — so the
        client's resend re-routes them to the new-epoch owner and dedup
        keeps the whole affair at-most-once.
        """
        return True

    def _drain(self, control: ShardControl) -> Tuple[KVCommand, ...]:
        shard, queue = control.shard, control.queue
        batch: List[KVCommand] = []
        while queue and len(batch) < self.config.batch_max:
            command = queue.popleft()
            if self._drainable(shard, command):
                batch.append(command)
            elif self._cmd_ctx:
                # seal-dropped: retire its stashed trace context too
                self._cmd_ctx.pop(command.identity, None)
        return tuple(batch)

    def _pipeline_depth(self) -> int:
        """Slots a crash-tolerant leader may keep in flight here.

        With the read plane up each slot's chain ends in a plain write of
        the watermark register; two chains in flight under a non-FIFO
        latency model can land ``k+1`` then ``k`` at a majority and
        regress it — a new-then-old quorum read.  Such services propose
        one slot at a time.
        """
        if self.config.read_paths_enabled and not self.kernel.fifo_memory_ops:
            return 1
        return PIPELINE_DEPTH

    def _open_batch(self, obs, shard: int, slot: int, batch: Sequence[KVCommand]):
        """Open *slot*'s ``leader.batch`` phase under its first command's
        enqueue-time context (None when observability is detached)."""
        return obs and obs.phase_under(
            "leader.batch",
            self._pop_cmd_ctx(batch),
            shard=shard,
            slot=slot,
            size=len(batch),
        )

    def _credit_commit(self, shard: int, decided: Any, obs) -> None:
        """Per-shard commit rate (what the autoscaler differentiates),
        credited once by the committing leader — not per replica."""
        if type(decided) is Batch and decided.commands:
            self.kernel.metrics.count_shard_commit(shard, len(decided.commands))
            if obs:
                obs.registry.histogram("shard.batch_fill", shard=shard).observe(
                    len(decided.commands)
                )

    def _proposer(self, shard: int, env, log: ReplicatedLog) -> Generator:
        """Leader loop of a crash-tolerant shard: a completion loop on the
        shard's pending gate — harvest, launch, park.

        A restarted leader (``recovered`` log: permissions not assumed)
        first re-runs the takeover prepare and re-commits every previously
        accepted slot before serving new traffic.

        **Harvest.**  Posted slots whose verdict is in are settled oldest
        first (commit, broadcast, credit).  Slots are assigned in drain
        order and the log applies in slot order, so clients, session
        floors, migration barriers and followers see one order.

        **Launch.**  With nothing in flight the leader drains whatever is
        queued and posts it — an unsaturated shard behaves exactly as a
        one-slot-at-a-time leader.  With a slot in flight it posts the
        next one early only when a full batch (``batch_max`` commands) is
        already waiting, up to ``PIPELINE_DEPTH`` slots: instances live in
        disjoint registers, so nothing in the protocol makes slot ``k+1``
        wait for slot ``k``, and a backed-up queue stops paying a round
        trip of queueing per batch.  Launching on anything less (greedy)
        halves the batch fill of unsaturated shards for no latency gain.

        **NAK.**  Each slot is its own instance: a majority ACK with no
        NAK decides it even if an earlier in-flight slot NAKed.  But a
        NAK means the grant is gone, so the leader launches nothing more,
        lets the pipeline drain, and re-drives each NAKed ``(slot,
        batch)`` in slot order through the serial ``propose_batch``
        (back-off, prepare, adopt; parks while somebody else leads) — one
        prepare at a time — before it pipelines again.  The same serial
        path carries fresh batches whenever this process is not plainly
        leading (grant not held, or the leader map names somebody else).

        **Park.**  While slots are in flight the verdict wakes the loop,
        so it parks without the ``IDLE_POLL`` timer (a timer per batch
        would be a dead heap entry per batch).  A deposed, retired or
        crashed proposer simply abandons its posted writes; the next
        takeover prepare adopts whatever reached a majority.
        """
        pid = int(env.pid)
        control = self._controls[shard]
        gate = control.gate
        queue = control.queue
        inflight = control.inflight
        inflight.clear()  # a predecessor's posted writes died with it
        batch_max = self.config.batch_max
        if not log.permissions_held:
            yield from log.recover_leader()
        #: ``(slot, commands, phase, after_nak)`` awaiting the serial path
        serial: List[Tuple[int, tuple, Any, bool]] = []
        while True:
            obs = env.obs
            while inflight and inflight[0][3].state.fired:
                slot, batch, phase, posted = inflight.popleft()
                if phase:
                    phase.resume()
                committed = yield from log.settle(posted)
                if committed:
                    if phase:
                        phase.finish()
                    self._credit_commit(shard, posted.entries[0][1], obs)
                else:
                    if phase:
                        phase.suspend()
                    # only the first re-drive backs off: once it holds
                    # the grant again the rest are ordinary proposals
                    serial.append((slot, batch, phase, not serial))
            pipelining = (
                not serial
                and log.permissions_held
                and self.leader_of(shard) == pid
            )
            if inflight and not pipelining:
                yield env.gate_wait(gate)  # drain before going serial
                continue
            if pipelining:
                depth = self._pipeline_depth()
                while queue and (
                    not inflight
                    or (len(inflight) < depth and len(queue) >= batch_max)
                ):
                    batch = self._drain(control)
                    if not batch:
                        break  # the seal filter emptied the queue
                    slot = inflight[-1][0] + 1 if inflight else log.applied_upto + 1
                    phase = self._open_batch(obs, shard, slot, batch)
                    posted = yield from log.post_batch(slot, batch, gate)
                    if phase:
                        phase.suspend()
                    inflight.append((slot, batch, phase, posted))
            elif not serial and queue:
                batch = self._drain(control)
                if batch:
                    slot = log.applied_upto + 1
                    phase = self._open_batch(obs, shard, slot, batch)
                    serial.append((slot, batch, phase, False))
            if serial:
                for slot, batch, phase, after_nak in serial:
                    if phase:
                        phase.resume()
                    try:
                        decided = yield from log.propose_batch(slot, batch, after_nak)
                    finally:
                        if phase:
                            phase.finish()
                    self._credit_commit(shard, decided, obs)
                serial.clear()
                continue
            # Nothing to commit — including a queue the seal filter
            # emptied (an elastic source mid-cutover): parking beats
            # burning a consensus instance on an empty batch per client
            # retry cycle.
            yield env.gate_wait(gate, timeout=None if inflight else IDLE_POLL)

    def _bft_driver(self, shard: int, env, machine: KVStateMachine) -> Generator:
        """One replica of a Byzantine shard: Fast & Robust per slot.

        Followers enter each instance with a no-op and adopt the leader's
        batch on the fast path.  Followers start waiting for slot ``i`` as
        soon as slot ``i-1`` decides, so an idle leader must still commit
        a heartbeat (empty batch) within ``BFT_LEADER_TIMEOUT`` — but no
        faster: each heartbeat burns one of the ``bft_max_slots``
        pre-declared slots, so the leader waits for work at half the
        follower timeout before giving up and proposing empty.
        """
        cfg = self.config
        leader = self.leader_of(shard)
        protocol = FastRobust(
            FastRobustConfig(
                cheap_quorum=CheapQuorumConfig(
                    leader=leader,
                    leader_timeout=BFT_LEADER_TIMEOUT,
                    unanimity_timeout=2 * BFT_LEADER_TIMEOUT,
                )
            )
        )
        frontend = self.frontends[int(env.pid)]
        for slot in range(cfg.bft_max_slots):
            if int(env.pid) == leader:
                control = self._controls[shard]
                if not control.queue:
                    yield env.gate_wait(control.gate, timeout=BFT_LEADER_TIMEOUT / 2)
                value: Any = Batch(self._drain(control))
                if self._cmd_ctx:
                    self._pop_cmd_ctx(value.commands)
            else:
                value = Batch()  # follower no-op input; leader's batch wins
            decided = yield from protocol.run_instance(
                env,
                value,
                cq_namespace=self._cq_ns(shard, slot),
                neb_namespace=self._neb_ns(shard, slot),
                instance=(shard, slot),
            )
            results = machine.apply(slot, decided)
            if isinstance(decided, Batch):
                if decided.commands and int(env.pid) == leader:
                    self.kernel.metrics.count_shard_commit(shard, len(decided.commands))
                for command, result in zip(decided.commands, results):
                    frontend.complete(command, result, watermark=slot, shard=shard)

    # ------------------------------------------------------------------
    # the read plane (non-consensus read serving)
    # ------------------------------------------------------------------
    def _shard_readable(self, shard: int) -> bool:
        """May the read plane serve *shard*?  Live crash-tolerant groups
        only — Byzantine groups and retired/unknown ids ride consensus."""
        return shard in self._controls and shard not in self.config.bft_shards

    def _submit_leader_read(self, shard: int, command: KVCommand, src: int) -> None:
        """Enqueue one fenced read at *shard*'s leader (local or accepted).

        A shard this process no longer leads (deposed, retired) simply
        drops the request — the client's resend re-resolves the leader.
        """
        control = self._controls.get(shard)
        if control is None:
            return
        queue = control.read_queue
        queue.append((command, src))
        if len(queue) == 1:
            self.kernel.pulse_gate(control.read_gate)

    def _read_acceptor(self, shard: int, env) -> Generator:
        """Leader-side intake of fenced reads from remote frontends."""
        recv_read = env.recv_effect(topic=read_topic(shard))
        while True:
            envelope = yield recv_read
            if envelope is None:
                continue
            self._submit_leader_read(shard, envelope.payload, int(envelope.src))

    def _reply_read(
        self, env, src: int, command: KVCommand, value: Any,
        watermark: Optional[int], ok: bool, shard: int,
    ) -> Generator:
        """Answer one fenced read: a direct completion when the requester
        is this process, a reply message to its pump otherwise."""
        if src == int(env.pid):
            self.frontends[src].complete_read(
                command.identity, value, watermark, ok, shard
            )
        else:
            yield env.send(
                src,
                (command.identity, value, watermark, ok, shard),
                topic=read_reply_topic(src),
            )

    def _read_server(self, shard: int, env, log: ReplicatedLog) -> Generator:
        """Leader loop of the fenced read path: drain, snapshot, probe, reply.

        Every read pending at drain time is answered under ONE fence
        probe — the values are taken from local applied state first, then
        a single one-sided permission probe validates that the exclusive
        write grant was still live at a majority afterwards, which makes
        each answer linearizable at the probe instant.  A failed probe
        (revocation storm, takeover, epoch fence) NAKs the whole batch:
        clients fall back to the command plane — degraded, never stale.
        """
        cfg = self.config
        control = self._controls[shard]
        queue, gate = control.read_queue, control.read_gate
        pid = int(env.pid)
        while True:
            if not queue:
                yield env.gate_wait(gate, timeout=IDLE_POLL)
                continue
            if not log.serves_local_reads and log.permissions_held:
                # transiently behind its own progress — a commit whose
                # watermark publish is still in flight, or takeover
                # re-commits draining the adopt cache.  The gap closes
                # through this leader's own applies (each signals the
                # commit gate), so hold the reads instead of NAKing a
                # whole batch into the consensus fallback.
                yield env.gate_wait(log.commit_gate, timeout=IDLE_POLL)
                continue
            batch = tuple(queue)
            queue.clear()
            served = None
            obs = env.obs
            phase = obs and obs.phase("read.serve", shard=shard, size=len(batch))
            if log.serves_local_reads:
                watermark = log.applied_watermark
                machine = self.machines[(pid, shard)]
                served = [
                    (command, src, machine.get(command.key))
                    for command, src in batch
                ]
                held = yield from log.fence_probe(timeout=cfg.retry_timeout)
            else:
                # the grant is known lost (revocation observed, or a
                # recovered leader pre-prepare): refuse without probing
                held = False
            if phase:
                phase.finish(held=held)
            if held:
                for command, src, value in served:
                    yield from self._reply_read(
                        env, src, command, value, watermark, True, shard
                    )
            else:
                for command, src in batch:
                    yield from self._reply_read(
                        env, src, command, None, None, False, shard
                    )

    def _spawn_read_reply_pump(self, pid: int) -> None:
        """(Re)start one process's read-reply pump (boot and recovery)."""
        self.cluster.spawn(pid, f"rd-pump-p{pid+1}", self._read_reply_pump(pid))

    def _read_reply_pump(self, pid: int) -> Generator:
        """Deliver remote read replies to this process's live frontend.

        The frontend is looked up per reply, not captured: after a crash
        the rebuilt frontend must be the one answered.
        """
        env = self.cluster.env_for(pid)
        recv_reply = env.recv_effect(topic=read_reply_topic(pid))
        while True:
            envelope = yield recv_reply
            if envelope is None:
                continue
            token, value, watermark, ok, shard = envelope.payload
            self.frontends[pid].complete_read(token, value, watermark, ok, shard)

    def _quorum_read(self, pid: int, shard: int, command: KVCommand) -> Generator:
        """One-sided quorum read of *command*'s key against *shard*.

        Runs entirely on the reading process: the local replica's log
        assembles the committed watermark and any missing entries from a
        majority of memories (ingesting them locally as a side effect)
        and the value is served from the caught-up local state machine.
        Returns ``(value, watermark)``, or ``None`` when the read cannot
        be served one-sided and must fall back.
        """
        log = self.logs.get((pid, shard))
        if log is None:
            return None
        watermark = yield from log.quorum_read(timeout=self.config.retry_timeout)
        if watermark is None:
            return None
        machine = self.machines.get((pid, shard))
        if machine is None:
            return None
        return machine.get(command.key), watermark

    def _local_read(
        self, pid: int, shard: int, command: KVCommand, floor: int
    ) -> Generator:
        """Session-consistent read from this process's own replica.

        Parks on the replica's commit gate until the applied watermark
        reaches the session *floor* (read-your-writes: the client's own
        completed writes are below it by construction), then serves local
        state.  The log is re-looked-up per wait so a crash-recovery
        rebuild is picked up; returns ``None`` when this process hosts no
        replica of the shard at all.
        """
        env = self.cluster.env_for(pid)
        while True:
            log = self.logs.get((pid, shard))
            if log is None:
                return None
            if log.applied_upto >= floor:
                machine = self.machines[(pid, shard)]
                return machine.get(command.key), log.applied_upto
            yield env.gate_wait(log.commit_gate, timeout=self.config.retry_timeout)

    # ------------------------------------------------------------------
    # failure hooks (per-shard fault targeting)
    # ------------------------------------------------------------------
    def _on_process_crash(self, pid) -> None:
        """A crash kills the led shards' pending queues with the leader.

        Remote frontends keep retrying their in-flight commands, so the
        lost queue entries are re-submitted once the leader's acceptor is
        respawned — at-most-once dedup in the state machine makes the
        retries idempotent.
        """
        self._ever_crashed.add(int(pid))
        for shard in self.shards_led_by(int(pid)):
            # its tasks died with the process; recovery respawns into it
            self._controls[shard].depose(self.kernel)

    def _respawn_process(self, pid) -> None:
        """Rebuild one recovered process's replica state, shard by shard.

        Every crash-tolerant shard gets a fresh state machine and a
        ``recovered`` log: led shards re-take leadership (prepare, adopt,
        re-commit), follower shards pull the committed prefix from their
        leader.  The process's frontend is rebuilt too — its previous
        incarnation's pending table died with its clients.  BFT shards are
        not respawned: Fast & Robust has no recovery path, and a recovered
        replica would re-enter already-consumed slot regions.
        """
        pid = int(pid)
        cfg = self.config
        self.frontends[pid] = self._make_frontend(pid)
        if cfg.read_paths_enabled:
            self._spawn_read_reply_pump(pid)
        for g in self.shards:
            if g not in cfg.bft_shards:
                self._spawn_pmp_replica(pid, g, recovered=True)

    # ------------------------------------------------------------------
    # workload driving
    # ------------------------------------------------------------------
    def _converged(self) -> bool:
        """Every live replica of every shard has applied the same prefix.

        Crashed processes are exempt while down; so are the BFT replicas
        of any process that ever crashed (Fast & Robust replicas do not
        recover — see ``_respawn_process``).
        """
        crashed = self.kernel.crashed_processes
        bft = self.config.bft_shards
        for g in self.shards:
            counts = {
                self.machines[(pid, g)].applied_count
                for pid in self.active_replicas
                if pid not in crashed
                and not (g in bft and pid in self._ever_crashed)
            }
            if len(counts) > 1:
                return False
        return True

    def run_workload(
        self,
        clients: Sequence[Any],
        deadline: Optional[float] = None,
    ) -> WorkloadReport:
        """Drive *clients* to completion; returns the aggregated report.

        Clients without a pinned ``pid`` are spread round-robin across
        processes.  The run ends when every request completed and all
        replicas converged (or at the deadline, whichever is first —
        check ``report.ok`` for shortfalls, e.g. an exhausted BFT
        shard's slot budget).  Counters are reported as deltas from the
        start of this call, so a service may run several workloads
        back to back.
        """
        recorder = _Recorder(self)
        # (client, request_id) is the at-most-once identity and the state
        # machines remember it forever, so a client id may drive at most
        # one workload per service: a reused id would silently absorb the
        # new run's commands as duplicates.  Reject it loudly instead.
        ids = [client.client_id for client in clients]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate client ids in workload: {ids}")
        reused = self._used_client_ids.intersection(ids)
        if reused:
            raise ConfigurationError(
                f"client ids {sorted(reused)} already ran on this service; "
                "later workloads need fresh ids for exactly-once semantics"
            )
        self._used_client_ids.update(ids)
        total = sum(client.n_ops for client in clients)
        started_at = self.kernel.now
        # Arm the SLO plane: objectives declared on the config become live
        # the moment an obs runtime is attached (and stay inert otherwise,
        # preserving the zero-cost-when-detached contract).
        obs = self.kernel.obs
        if obs is not None and self.config.slo:
            if obs.slo is None:
                obs.track_slo(self.config.slo)
            if not obs.sampling:
                horizon = deadline if deadline is not None else self.config.deadline
                obs.start_sampling(SLO_INTERVAL, until=horizon)
        # Baselines capture the leader MACHINE, not just counters: a shard
        # merged away mid-run keeps its machine (and its committed work
        # must still be reported) even after the topology forgets it.
        baseline = {
            g: (machine, machine.applied_count, machine.duplicates,
                machine.batches_applied, machine.empty_batches,
                _migration_applies(machine))
            for g in self.shards
            for machine in (self.machines[(self.leader_of(g), g)],)
        }
        pool = self.active_replicas
        for index, client in enumerate(clients):
            pid = client.pid if client.pid is not None else pool[index % len(pool)]
            env = self.cluster.env_for(pid)
            self.cluster.spawn(
                pid,
                f"client-c{client.client_id}",
                client.task(env, self.frontends[pid], recorder),
            )

        def goal() -> bool:
            return recorder.completed >= total and self._converged()

        self.cluster.run_until(goal, deadline)

        # Close out every shard the run touched: the boot set (baselines,
        # including any shard merged away mid-run) plus shards added by a
        # mid-run split (zero baselines).  Migration transfers ride the
        # same logs but are NOT client traffic: their applies (and their
        # dedup'd replays) are subtracted so committed_commands keeps
        # meaning "distinct client commands this workload committed".
        closing = dict(baseline)
        for g in self.shards:
            if g not in closing:
                machine = self.machines[(self.leader_of(g), g)]
                closing[g] = (machine, 0, 0, 0, 0, (0, 0))
        for g, (machine, applied0, duplicates0, batches0, empty0, mig0) in (
            closing.items()
        ):
            mig_tokens, mig_applies = _migration_applies(machine)
            mig_tokens0, mig_applies0 = mig0
            mig_first = mig_tokens - mig_tokens0
            mig_dup = (mig_applies - mig_applies0) - mig_first
            stats = recorder.stats.setdefault(g, ShardStats(shard=g))
            stats.duplicates = (machine.duplicates - duplicates0) - mig_dup
            stats.committed_commands = (
                (machine.applied_count - applied0)
                - (machine.duplicates - duplicates0)
                - mig_first
            )
            # idle heartbeats (empty batches) are excluded so batch fill
            # measures how well real traffic amortised consensus instances
            stats.committed_batches = (
                (machine.batches_applied - batches0)
                - (machine.empty_batches - empty0)
            )
        return WorkloadReport(
            shards=recorder.stats,
            completed_requests=recorder.completed,
            elapsed=self.kernel.now - started_at,
            expected_requests=total,
        )
