"""The elastic sharded KV: epoch-based membership over permission fences.

:class:`ElasticKV` extends the static :class:`~repro.shard.service.ShardedKV`
with the reconfiguration plane:

* a **config log** (:mod:`repro.reconfig.config_log`) — itself replicated
  over Protected Memory Paxos — commits typed membership commands, and
  every replica folds them into the same numbered epoch sequence;
* a **coordinator** task on the config leader executes each committed
  epoch:  stage ring → spawn new groups → bulk migrate → seal →
  barrier → delta migrate → activate, with permission fences at the
  memories wherever an old-epoch writer must be *provably* unable to
  write once the epoch turns over;
* a **migrator** streams moved key ranges through the destination
  groups' own logs with deterministic at-most-once identities;
* an optional **autoscaler** watches the metrics ledger and feeds
  split proposals into the same pipeline.

Crash safety is by idempotence, not checkpoints: every coordinator step
either re-ACKs (permission fences, region registration, group spawns are
guarded), re-commits as a no-op (config commands dedup in the fold), or
dedups at the destination state machine (migration identities are
deterministic).  A coordinator respawned by the recovery hooks simply
re-runs the pending epoch from the top.  Recovery hooks in general
re-spawn a returning process's replicas into the *current* epoch — the
shard set and leader map at recovery time, plus any group a pending
epoch has already spawned — never the boot topology.

The cutover dance per migration source (the dual-ownership window):

1. **bulk** — stream moved keys to their new owners while clients still
   route (reads included) to the old ring;
2. **seal** — commit :class:`SealShard`: the source's drain filter stops
   committing moved-key commands (for a merge, fence the whole region to
   the tombstone instead — the changePermission storm);
3. **barrier** — commit a probe through the source log: everything the
   source ever committed for moved keys is now in the migrator's view;
4. **delta** — re-stream; unchanged keys dedup, late writes land their
   frozen final values;
5. **activate** — commit :class:`ActivateEpoch`: routing flips, stalled
   clients' resends re-route to the new owners, dedup keeps the handoff
   at-most-once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.mem.operations import ChangePermissionOp
from repro.mem.permissions import Permission, epoch_fence_policy
from repro.mem.regions import RegionSpec
from repro.reconfig.autoscale import Autoscaler, AutoscalerConfig
from repro.reconfig.config_log import ConfigLog, config_regions
from repro.reconfig.epochs import (
    RK_ACTIVATE,
    RK_ADD_REPLICA,
    RK_REMOVE_REPLICA,
    RK_SEAL,
    ActivateEpoch,
    ConfigState,
    Epoch,
    SealShard,
)
from repro.reconfig.migrate import Migrator
from repro.shard.service import (
    ShardConfig,
    ShardControl,
    ShardedKV,
    _is_migration_client,
    shard_region,
)
from repro.types import process_name


#: post-fence drain: time for a fenced source's in-flight writes to
#: resolve (ACK or NAK) before the delta pass reads the frozen store
FENCE_SETTLE = 6.0
#: coordinator idle re-check period
COORDINATOR_POLL = 10.0


@dataclass
class ElasticConfig(ShardConfig):
    """ShardConfig plus the elastic knobs.

    ``n_processes`` is the *pool* (every process exists from boot and can
    host replicas); ``initial_replicas`` says who actually does at epoch
    0 — the rest are warm spares an :class:`AddReplica` can activate.
    """

    #: processes hosting replicas at epoch 0 (None: the whole pool)
    initial_replicas: Optional[Tuple[int, ...]] = None
    #: hard cap on concurrently active shards (autoscaler ceiling)
    max_shards: int = 16
    #: autoscaler policy; None runs manual-reconfig only
    autoscaler: Optional[AutoscalerConfig] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_shards < self.n_shards:
            raise ConfigurationError("max_shards must cover the boot shards")
        if self.initial_replicas is None:
            self.initial_replicas = tuple(range(self.n_processes))
        else:
            self.initial_replicas = tuple(sorted(set(int(p) for p in self.initial_replicas)))
            bad = [p for p in self.initial_replicas if not 0 <= p < self.n_processes]
            if bad:
                raise ConfigurationError(f"initial replicas outside the pool: {bad}")
            if not self.initial_replicas:
                raise ConfigurationError("need at least one initial replica")


#: the retired-region permission: nobody reads, nobody writes, forever
TOMBSTONE = Permission()


class ElasticKV(ShardedKV):
    """A sharded replicated KV whose membership is itself replicated."""

    def __init__(self, config: Optional[ElasticConfig] = None) -> None:
        cfg = config or ElasticConfig()
        self._state = ConfigState(
            cfg.n_shards, cfg.n_processes, cfg.initial_replicas,
            max_shards=cfg.max_shards,
        )
        self._cfg_log = ConfigLog(
            self._state, leader_fn=self._config_leader, on_fold=self._on_fold
        )
        #: operator/autoscaler proposals awaiting commit, in arrival order
        self._cfg_queue: deque = deque()
        self._cfg_tasks: Dict[int, List[Any]] = {}
        self._control_tasks: List[Any] = []
        self._cfg_wake: Any = None
        super().__init__(cfg)
        self.autoscaler: Optional[Autoscaler] = (
            Autoscaler(cfg.autoscaler) if cfg.autoscaler is not None else None
        )
        for pid in range(cfg.n_processes):
            self._spawn_config_replica(pid)
        self._spawn_control_plane(self._config_leader())

    # ------------------------------------------------------------------
    # assembly hooks
    # ------------------------------------------------------------------
    def _initial_leaders(self) -> Dict[int, int]:
        return dict(self._state.active_epoch.leaders)

    def _log_regions(self, shard: int, leader: Optional[int]) -> List[RegionSpec]:
        """One elastic shard-log region.  Unlike the static service's
        regions, the legal-change policy is the epoch fence: grants move
        with leadership and retirement is a sticky tombstone.  A region
        born without a leader (a split's new group) starts read-only —
        the new leader's takeover prepare is the granting storm."""
        processes = range(self.config.n_processes)
        region = shard_region(shard)
        initial = (
            Permission.read_only(processes)
            if leader is None
            else Permission.exclusive_writer(leader, processes)
        )
        return [
            RegionSpec(
                region_id=region,
                prefix=(region,),
                initial_permission=initial,
                legal_change=epoch_fence_policy(processes),
            )
        ]

    def _boot_regions(self) -> List[RegionSpec]:
        return super()._boot_regions() + config_regions(
            self.config.n_processes, self._config_leader()
        )

    # ------------------------------------------------------------------
    # topology (epoch-driven)
    # ------------------------------------------------------------------
    @property
    def active_replicas(self) -> List[int]:
        return list(self._state.active_epoch.replicas)

    @property
    def epoch(self) -> Epoch:
        """The epoch client traffic currently runs in."""
        return self._state.active_epoch

    @property
    def epochs(self) -> List[Epoch]:
        return self._state.epochs

    def _config_leader(self) -> int:
        """The config log's leader: the lowest active replica."""
        return min(self._state.active_epoch.replicas)

    # ------------------------------------------------------------------
    # proposals
    # ------------------------------------------------------------------
    def propose_reconfig(self, command: Any) -> None:
        """Queue *command* for commit through the config log.

        Validated against the latest folded epoch (obvious nonsense is
        rejected here, loudly); the fold re-validates at commit time,
        because the configuration may move between propose and commit.
        """
        reason = self._state.check(command)
        if reason is not None:
            raise ConfigurationError(f"rejected {command!r}: {reason}")
        self._cfg_queue.append(command)
        self.kernel.pulse_gate(self._cfg_wake)

    def schedule_reconfig(self, time: float, command: Any) -> None:
        """Propose *command* at virtual *time* (scenario scripting).

        Fire-time validation failures (the configuration moved between
        scheduling and firing — e.g. an earlier command already merged
        the shard this command targets) are recorded as rejections, exactly
        like an invalid committed command: a stale timer must never
        unwind the kernel's run loop.
        """

        def fire() -> None:
            try:
                self.propose_reconfig(command)
            except ConfigurationError as error:
                self._state.rejected.append((command, str(error)))
                self.kernel.metrics.record_reconfig(
                    self.kernel.now, "rejected", repr(command), reason=str(error)
                )

        self.kernel.call_at(time, fire)

    # ------------------------------------------------------------------
    # fold reactions (run on whichever replica folds the slot first)
    # ------------------------------------------------------------------
    def _on_fold(self, command: Any, epoch: Optional[Epoch], accepted: bool) -> None:
        now = self.kernel.now
        ledger = self.kernel.metrics
        if epoch is not None:
            self.partitioner.stage(epoch.ring_version, epoch.shards)
            ledger.record_reconfig(
                now,
                "cfg_commit",
                f"e{epoch.number}",
                command=repr(command),
                shards=list(epoch.shards),
                replicas=[process_name(p) for p in epoch.replicas],
            )
        elif accepted and command.kind == RK_SEAL:
            ledger.record_reconfig(
                now, "seal", f"g{command.shard}", epoch=command.epoch
            )
        elif accepted and command.kind == RK_ACTIVATE:
            self._apply_activation(self._state.active_epoch)
        if self._cfg_wake is not None:
            self.kernel.pulse_gate(self._cfg_wake)

    def _apply_activation(self, epoch: Epoch) -> None:
        """The cutover instant: routing and leadership flip to *epoch*."""
        self.partitioner.activate(epoch.ring_version)
        self.shards = list(epoch.shards)
        self._leader_map = dict(epoch.leaders)
        self.kernel.metrics.record_reconfig(
            self.kernel.now,
            "activate",
            f"e{epoch.number}",
            shards=list(epoch.shards),
            ring_version=epoch.ring_version,
        )

    # ------------------------------------------------------------------
    # the drain filter (seal semantics)
    # ------------------------------------------------------------------
    def _drainable(self, shard: int, command) -> bool:
        if _is_migration_client(command.client):
            return True  # migration puts and barrier probes always commit
        pending = self._state.next_pending()
        if pending is not None and shard in pending.sealed:
            if self.partitioner.shard_for(command.key, version=pending.ring_version) != shard:
                return False  # sealed: this key is leaving the shard
        if self.partitioner.shard_for(command.key) != shard:
            return False  # post-cutover straggler: the resend re-routes
        return True

    # ------------------------------------------------------------------
    # config log plumbing
    # ------------------------------------------------------------------
    def _spawn_config_replica(self, pid: int, recovered: bool = False) -> None:
        env = self.cluster.env_for(pid)
        log = self._cfg_log.make_replica(env, recovered=recovered)
        self._cfg_tasks[pid] = tasks = [
            self.cluster.spawn(pid, f"cfg-listen-p{pid+1}", log.listener()),
            self.cluster.spawn(pid, f"cfg-sync-p{pid+1}", log.sync_server()),
        ]
        if recovered and pid != self._config_leader():
            tasks.append(self.cluster.spawn(pid, f"cfg-catchup-p{pid+1}", log.catchup()))

    def _spawn_control_plane(self, pid: int) -> None:
        """(Re)place the coordinator — and autoscaler, if any — on *pid*."""
        for task in self._control_tasks:
            self.kernel.kill_task(task)
        self._control_tasks = []
        env = self.cluster.env_for(pid)
        self._cfg_wake = env.new_gate("cfg-wake")
        # The migrator's streamed-token memo is coordinator-process state:
        # a fresh coordinator cannot know what its predecessor sent, so it
        # re-streams from the top and relies on destination-side dedup —
        # that reliance is exactly what the crash tests exercise.
        self.migrator = Migrator(self.partitioner)
        self._control_tasks.append(
            self.cluster.spawn(pid, "reconfig-coordinator", self._coordinator(env))
        )
        if self.autoscaler is not None:
            self._control_tasks.append(
                self.cluster.spawn(pid, "autoscaler", self._autoscaler_task(env))
            )

    # ------------------------------------------------------------------
    # the coordinator
    # ------------------------------------------------------------------
    def _coordinator(self, env) -> Generator:
        """Commit queued proposals; execute pending epochs; hand off when
        an epoch moves config leadership elsewhere.

        Starts by reconciling the active epoch's post-activation cleanup:
        a predecessor that crashed between activation and cleanup leaves
        retired groups or removed replicas still running, and this is the
        idempotent re-run that finishes the job.
        """
        self._reconcile_cleanup()
        while True:
            if int(env.pid) != self._config_leader():
                # Deposed with the epoch that moved the leadership; make
                # sure the successor control plane actually exists before
                # standing down (a crashed predecessor may never have
                # reached the handoff in step 8).
                self._spawn_control_plane(self._config_leader())
                return
            if self._cfg_queue:
                command = self._cfg_queue[0]
                yield from self._cfg_log.commit(env, command)
                # pop only after the commit: a coordinator that crashed
                # mid-commit leaves the proposal queued, and the fold's
                # duplicate guard makes the re-commit a no-op
                if self._cfg_queue and self._cfg_queue[0] is command:
                    self._cfg_queue.popleft()
                continue
            pending = self._state.next_pending()
            if pending is not None:
                yield from self._execute_epoch(env, pending)
                continue
            yield env.gate_wait(self._cfg_wake, timeout=COORDINATOR_POLL)

    def _execute_epoch(self, env, epoch: Epoch) -> Generator:
        """Drive one committed epoch to activation (idempotent throughout)."""
        cfg = self.config
        ledger = self.kernel.metrics
        number = epoch.number
        frontend = self.frontends[int(env.pid)]
        obs = env.obs
        phase = obs and obs.phase("reconfig.epoch", epoch=number)
        try:
            yield from self._execute_epoch_inner(
                env, epoch, cfg, ledger, number, frontend
            )
        finally:
            if phase:
                phase.finish()

    def _execute_epoch_inner(
        self, env, epoch: Epoch, cfg, ledger, number: int, frontend
    ) -> Generator:
        self.partitioner.stage(epoch.ring_version, epoch.shards)

        # 1. new shard groups (split): register the fenced region, spawn
        #    replicas; the new leader's takeover prepare is the grant storm.
        for shard in epoch.shards:
            if shard not in self._controls:
                self._add_shard_group(shard, epoch.leaders[shard])

        # 2. a joining replica starts catching up before cutover
        if epoch.source is not None and epoch.source.kind == RK_ADD_REPLICA:
            self._join_replica(epoch.source.pid)

        # 3. bulk migration: old owners keep serving (dual ownership)
        for source in epoch.migration_sources:
            moved = yield from self.migrator.stream(
                env, frontend, self.machines[(int(env.pid), source)],
                source, number, epoch.ring_version,
            )
            ledger.record_reconfig(
                env.now, "migrate", f"g{source}", epoch=number, phase="bulk", keys=moved
            )

        # 4. seal the sources.  A retiring shard is sealed by force — the
        #    permission storm fences its whole region to the tombstone, so
        #    its old-epoch leader's in-flight writes NAK at the memories.
        #    A fenced shard can commit no barrier, so the coordinator's
        #    replica instead pulls the committed prefix from the victim's
        #    leader explicitly: a commit broadcast lost to link chaos
        #    before the fence would otherwise never be retransmitted (no
        #    later commit can trigger the listener's gap-pull), and the
        #    delta pass must not miss an acknowledged write.
        for source in epoch.migration_sources:
            if source in epoch.retired:
                yield from self._fence_region(env, shard_region(source), TOMBSTONE)
                yield env.sleep(FENCE_SETTLE)
                yield from self.logs[(int(env.pid), source)].catchup()
            elif source not in epoch.sealed:
                yield from self._cfg_log.commit(env, SealShard(number, source))

        # 5. barrier + delta: catch everything committed since the bulk
        #    pass — late puts land their frozen values, and the delete
        #    sweep reaps destination copies of keys the source dropped
        def peer_machine(destination: int):
            return self.machines.get((int(env.pid), destination))

        for source in epoch.migration_sources:
            if source not in epoch.retired:
                yield from self.migrator.barrier(env, frontend, source, number)
            delta = yield from self.migrator.stream(
                env, frontend, self.machines[(int(env.pid), source)],
                source, number, epoch.ring_version,
                old_version=self._state.active_epoch.ring_version,
                peer_machine_of=peer_machine,
            )
            ledger.record_reconfig(
                env.now, "migrate", f"g{source}", epoch=number, phase="delta", keys=delta
            )

        # 6. leadership handovers: depose the old leader, let the new one's
        #    recovered log re-prepare (the fence lands at the memories).
        for shard, old_leader in epoch.deposed:
            if shard not in epoch.retired:
                self._switch_leader(shard, old_leader, epoch.leaders[shard])

        # 7. cutover
        yield from self._cfg_log.commit(env, ActivateEpoch(number))

        # 8. post-activation cleanup
        for shard in epoch.retired:
            if shard in self._controls:
                self._retire_group(shard)
        if epoch.source is not None and epoch.source.kind == RK_REMOVE_REPLICA:
            self._retire_replica(epoch.source.pid)
        if self._config_leader() != int(env.pid):
            # the coordinator loop notices on its next turn and hands the
            # control plane to the new config leader before standing down
            ledger.record_reconfig(
                env.now, "control_move", process_name(self._config_leader())
            )

    def _reconcile_cleanup(self) -> None:
        """Finish the ACTIVE epoch's post-activation cleanup, idempotently.

        Normally a no-op: step 8 of ``_execute_epoch`` already did this.
        It matters when a predecessor coordinator crashed between the
        activation commit and the cleanup — the epoch is active
        everywhere, yet a retired shard's leader still proposes into its
        tombstoned region and a removed replica's tasks still run.
        """
        active = self._state.active_epoch
        for shard in active.retired:
            if shard in self._controls:
                self._retire_group(shard)
        if active.source is not None and active.source.kind == RK_REMOVE_REPLICA:
            pid = active.source.pid
            if any(key[0] == pid for key in self._group_tasks):
                self._retire_replica(pid)

    # ------------------------------------------------------------------
    # epoch building blocks
    # ------------------------------------------------------------------
    def _add_shard_group(self, shard: int, leader: int) -> None:
        """Stand up one new consensus group for *shard* led by *leader*."""
        # a split allocates a group that did not exist at boot: register
        # its regions on the live kernel (crashed memories included)
        self.kernel.register_regions(self._group_regions(shard, None))
        self._controls[shard] = ShardControl(shard, leader, self.reads is not None)
        self._leader_map[shard] = leader  # additive; routing flips at cutover
        for pid in self.active_replicas:
            self._spawn_pmp_replica(pid, shard, recovered=True)
        self.kernel.metrics.record_reconfig(
            self.kernel.now, "spawn_group", f"g{shard}", leader=process_name(leader)
        )

    def _switch_leader(self, shard: int, old: int, new: int) -> None:
        """Depose *old* as *shard*'s leader and install *new*.

        The old leader's proposer/acceptor die here; its queued commands
        are dropped (clients resend, dedup absorbs).  The new leader's
        existing replica log re-prepares — the ``changePermission`` at
        each memory is what *provably* fences the old leader out.

        Idempotent: a coordinator re-running the epoch after a crash must
        not stack a second proposer/acceptor pair onto a handover its
        predecessor already performed (two proposers would interleave on
        one shared log's slot state).
        """
        control = self._controls[shard]
        if control.pid == new and any(not task.done for task in control.tasks):
            return  # the handover already happened (and survived)
        control.depose(self.kernel)
        self._controls[shard] = ShardControl(shard, new, self.reads is not None)
        self._leader_map[shard] = new
        self._spawn_leader_role(new, shard)
        self.kernel.metrics.record_reconfig(
            self.kernel.now,
            "lead",
            f"g{shard}",
            old=process_name(old),
            new=process_name(new),
        )

    def _join_replica(self, pid: int) -> None:
        """Spawn *pid*'s replicas of every live group (catch-up included)."""
        for shard in list(self._controls):
            if (pid, shard) not in self.machines or self.logs.get((pid, shard)) is None:
                self._spawn_pmp_replica(pid, shard, recovered=True)
        self.kernel.metrics.record_reconfig(
            self.kernel.now, "join", process_name(pid)
        )

    def _retire_replica(self, pid: int) -> None:
        """Kill a removed replica's group tasks (its config replica stays:
        pool membership — and the ability to rejoin — is permanent)."""
        for control in self._controls.values():
            if control.pid == pid:
                control.depose(self.kernel)
        for key in [k for k in self._group_tasks if k[0] == pid]:
            for task in self._group_tasks.pop(key):
                self.kernel.kill_task(task)
            self.logs.pop(key, None)
        self.kernel.metrics.record_reconfig(
            self.kernel.now, "leave", process_name(pid)
        )

    def _retire_group(self, shard: int) -> None:
        """Tear down a merged-away shard's group everywhere.

        State machines stay readable (forensics, tests); the log region
        stays tombstoned at the memories — that permanence is the fence.
        """
        self._controls.pop(shard).depose(self.kernel)
        for pid in range(self.config.n_processes):
            for task in self._group_tasks.pop((pid, shard), ()):
                self.kernel.kill_task(task)
        self._leader_map.pop(shard, None)
        self.kernel.metrics.record_reconfig(
            self.kernel.now, "retire", f"g{shard}"
        )

    def _fence_region(self, env, region: str, permission: Permission) -> Generator:
        """The changePermission storm: install *permission* at every
        memory, resuming on a majority (a crashed memory's fence lands
        when it revives — permission state is hardware state)."""
        fence = ChangePermissionOp(region, permission)
        state = yield env.fanout_to_all(fence)
        self.kernel.metrics.record_reconfig(
            env.now,
            "fence",
            region,
            permission=permission.summary(),
            acked=state.acked,
        )

    # ------------------------------------------------------------------
    # autoscaling
    # ------------------------------------------------------------------
    def _autoscaler_task(self, env) -> Generator:
        policy = self.autoscaler
        while True:
            yield env.sleep(policy.config.interval)
            busy = self._state.has_pending() or bool(self._cfg_queue)
            for proposal in policy.observe(
                env.now, self.kernel.metrics, self.shards, busy
            ):
                try:
                    self.propose_reconfig(proposal)
                except ConfigurationError as error:
                    # e.g. the policy's own ceiling exceeds the cluster's
                    # max_shards — record and keep sampling, never unwind
                    self._state.rejected.append((proposal, str(error)))
                    self.kernel.metrics.record_reconfig(
                        env.now, "rejected", repr(proposal), reason=str(error)
                    )

    # ------------------------------------------------------------------
    # failure hooks: recover into the CURRENT epoch
    # ------------------------------------------------------------------
    def _respawn_process(self, pid) -> None:
        """Rebuild a recovered process against the epoch of *now*.

        Shard replicas are spawned for every live group — the active
        epoch's shards plus any group a pending epoch has already stood
        up (a migration destination mid-split must come back, or the
        in-flight transfer of this process's completions would stall).
        The boot topology the process crashed out of is irrelevant.
        """
        pid = int(pid)
        self._boot_process(pid)
        hosts = set(self._state.active_epoch.replicas) | set(
            self._state.latest.replicas
        )
        if pid in hosts:
            for shard in list(self._controls):
                self._spawn_pmp_replica(pid, shard, recovered=True)
        self._spawn_config_replica(pid, recovered=True)
        if pid == self._config_leader():
            self._spawn_control_plane(pid)

    # ------------------------------------------------------------------
    # goal
    # ------------------------------------------------------------------
    def _converged(self) -> bool:
        """Elastic convergence additionally requires a quiet control
        plane: no queued proposal, no committed-but-inactive epoch."""
        if self._cfg_queue or self._state.has_pending():
            return False
        return super()._converged()

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def moved_by_epoch(self) -> Dict[int, int]:
        """Migration transfers submitted per epoch (bulk + delta) from
        the ledger's reconfig timeline.  Counts what crossed the wire:
        after a coordinator crash the re-streamed identities are included
        even though the destination dedup'd them (the destination
        machines' ``duplicates`` counters hold the re-apply truth)."""
        moved: Dict[int, int] = {}
        for record in self.kernel.metrics.reconfigs_of("migrate"):
            epoch = record.detail["epoch"]
            moved[epoch] = moved.get(epoch, 0) + record.detail["keys"]
        return moved


def region_fenced_errors(service, shard: int, old_leader: int) -> List[str]:
    """Model-checking oracle: a deposed leader must be fenced out.

    The paper's permission-fence check, as data rather than an assert: on
    every live memory the old leader must lack write permission on the
    shard's region, and an actual zombie write must NAK.  Returns error
    strings, empty when the fence holds.  Crashed memories are skipped —
    they answer nothing, fenced or not.
    """
    from repro.mem.operations import WriteOp
    from repro.types import OpStatus, ProcessId

    region = shard_region(shard)
    errors: List[str] = []
    pid = ProcessId(old_leader)
    for mid, memory in enumerate(service.kernel.memories):
        if memory.crashed:
            continue
        if memory.permission_of(region).can_write(pid):
            errors.append(
                f"mu{mid + 1}: deposed leader p{old_leader + 1} still holds "
                f"write permission on {region}"
            )
            continue
        result = memory.apply(
            pid, WriteOp(region, (region, 10_000, old_leader), "zombie-write")
        )
        if result.status != OpStatus.NAK:
            errors.append(
                f"mu{mid + 1}: zombie write by deposed leader "
                f"p{old_leader + 1} was {result.status.value}, expected nak"
            )
    return errors
