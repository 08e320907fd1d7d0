"""The read plane: the service side of every read that skips consensus.

The paper's permission fence gives a shard two reads that need no
consensus instance, and the service adds a third:

* the **fenced leader read** — the shard leader answers from its applied
  state, and one one-sided probe of its exclusive write grant at a
  majority of memories, taken after the values, makes every answer of
  the batch linearizable at the probe instant;
* the **one-sided quorum read** — the reading process assembles the
  commit watermark and any missing entries from a majority of memories,
  with no leader involvement;
* the **local read** — the reading process's own replica, once it has
  applied up to the client's session floor.

:class:`ReadPlane` serves all three for one
:class:`~repro.shard.service.ShardedKV`: the read-index region of every
group, each shard leader's fenced-read intake and batched probe server,
one reply pump per process, and the quorum and local reads the frontend
runs in the client's task.  The service builds it when ``read_mode`` is
not ``consensus`` and holds ``None`` otherwise;
:class:`~repro.shard.router.ShardFrontend` routes a get to it and falls
back to the command plane on any refusal.  Every answer the plane builds
from a completion is built in this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List

from repro.mem.regions import RegionSpec
from repro.shard.router import read_reply_topic
from repro.smr.kv import KVCommand
from repro.smr.log import ReplicatedLog, smr_rx_regions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.service import ShardedKV

#: how often an idle shard leader re-checks a queue — its proposer's
#: commands and its read server's fenced reads
IDLE_POLL = 2.0


class ReadPlane:
    """The non-consensus reads of one sharded service."""

    def __init__(self, service: "ShardedKV") -> None:
        cfg = service.config
        self.service = service
        #: the mode a get that names none rides
        self.default_mode = cfg.read_mode
        #: may the plane serve this shard?  (the service decides)
        self.readable = service._shard_readable
        self._n_processes = cfg.n_processes
        self._timeout = cfg.retry_timeout

    @property
    def ledger(self):
        """The metrics ledger the frontend counts reads and fallbacks in."""
        return self.service.kernel.metrics

    def regions(self, region: str) -> List[RegionSpec]:
        """The read-index region of one group's log *region*."""
        return smr_rx_regions(self._n_processes, region=region)

    # ------------------------------------------------------------------
    # fenced leader reads
    # ------------------------------------------------------------------
    def submit(self, shard: int, command: KVCommand, src: int) -> None:
        """Enqueue one fenced read at *shard*'s leader (local or accepted).

        A shard this process no longer leads (deposed, retired) simply
        drops the request — the client's resend re-resolves the leader.
        """
        control = self.service._controls.get(shard)
        if control is None:
            return
        queue = control.read_queue
        queue.append((command, src))
        if len(queue) == 1:
            self.service.kernel.pulse_gate(control.read_gate)

    def server(self, shard: int, env, log: ReplicatedLog) -> Generator:
        """Leader loop of the fenced read path: drain, snapshot, probe, reply.

        Every read pending at drain time is answered under ONE fence
        probe — the values are taken from local applied state first, then
        a single one-sided permission probe validates that the exclusive
        write grant was still live at a majority afterwards, which makes
        each answer linearizable at the probe instant.  A failed probe
        (revocation storm, takeover, epoch fence) NAKs the whole batch:
        clients fall back to the command plane — degraded, never stale.
        """
        control = self.service._controls[shard]
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
                machine = self.service.machines[(pid, shard)]
                served = [
                    (command, src, machine.get(command.key))
                    for command, src in batch
                ]
                held = yield from log.fence_probe(timeout=self._timeout)
            else:
                # the grant is known lost (revocation observed, or a
                # recovered leader pre-prepare): refuse without probing
                held = False
            if phase:
                phase.finish(held=held)
            if held:
                for command, src, value in served:
                    yield from self._reply(
                        env, src, (command, value, watermark, shard, True)
                    )
            else:
                for command, src in batch:
                    yield from self._reply(
                        env, src, (command, None, None, shard, False)
                    )

    def _reply(self, env, src: int, answer: tuple) -> Generator:
        """Deliver one fenced read's ``(command, value, watermark, shard,
        ok)``: a direct completion when the requester is this process, a
        message to its reply pump otherwise."""
        if src == int(env.pid):
            self.service.frontends[src].complete(*answer)
        else:
            yield env.send(src, answer, topic=read_reply_topic(src))

    def pump(self, pid: int) -> Generator:
        """Deliver remote fenced-read answers to *pid*'s live frontend.

        The frontend is looked up per reply, not captured: after a crash
        the rebuilt frontend must be the one answered.
        """
        frontends = self.service.frontends
        recv_reply = self.service.cluster.env_for(pid).recv_effect(
            topic=read_reply_topic(pid)
        )
        while True:
            envelope = yield recv_reply
            if envelope is not None:
                frontends[pid].complete(*envelope.payload)

    # ------------------------------------------------------------------
    # reads served on the reading process
    # ------------------------------------------------------------------
    def quorum_read(self, pid: int, shard: int, command: KVCommand) -> Generator:
        """One-sided quorum read of *command*'s key against *shard*.

        Runs entirely on the reading process: the local replica's log
        assembles the committed watermark and any missing entries from a
        majority of memories (ingesting them locally as a side effect)
        and the value is served from the caught-up local state machine.
        Returns ``(value, watermark)``, or ``None`` when the read cannot
        be served one-sided and must fall back.
        """
        service = self.service
        log = service.logs.get((pid, shard))
        if log is None:
            return None
        watermark = yield from log.quorum_read(timeout=self._timeout)
        if watermark is None:
            return None
        machine = service.machines.get((pid, shard))
        if machine is None:
            return None
        return machine.get(command.key), watermark

    def local_read(
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
        service = self.service
        env = service.cluster.env_for(pid)
        while True:
            log = service.logs.get((pid, shard))
            if log is None:
                return None
            if log.applied_upto >= floor:
                return service.machines[(pid, shard)].get(command.key), log.applied_upto
            yield env.gate_wait(log.commit_gate, timeout=self._timeout)
