"""A replicated log: one consensus instance per slot.

Each slot gets its own protocol instance with registers/messages namespaced
by slot index, so instances never interfere.  The leader (slot proposer)
carries its decision into the next slot — the paper's "default leader in
the next instance" — which keeps every slot on the protocol's fast path:
with Protected Memory Paxos each committed command costs two delays.

The log feeds inputs in, observes decisions, and applies them to a state
machine callback in slot order.  Its proposer is the repo's one Protected
Memory Paxos: the single-shot protocol is this log with one slot, whose
callback is the process's decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.consensus.ballots import Ballot
from repro.errors import ConfigurationError
from repro.consensus.messages import Decision
from repro.consensus.probes import (
    max_confirmed_watermark,
    probe_write_grant,
    quorum_chain,
    verdict_fanout,
    watermark_key,
    watermark_snapshot,
)
from repro.mem.operations import (
    BatchOp,
    ChangePermissionOp,
    ReadSnapshotOp,
    SnapshotOp,
    WriteOp,
)
from repro.mem.permissions import (
    Permission,
    exclusive_grab_policy,
    static_permissions,
)
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv
from repro.sim.futures import Gate
from repro.types import BOTTOM, RegionId, is_bottom

SMR_REGION = "smr"
SMR_TOPIC = "smr"
#: how often a follower re-checks Ω, and the base of the randomised
#: back-off between failed attempts / catch-up pulls (virtual delays)
LEADER_POLL = 2.0
RETRY_BACKOFF = 4.0
#: adopted slots a recovering leader re-commits per phase-2 chain
RECOVERY_WINDOW = 64

#: prepare-probe slot used by leader recovery: a slot index no data slot
#: ever uses, so the probe write cannot clobber a forgotten commit
_RECOVERY_PROBE_SLOT = -1
#: the ballot below every real one, a fresh log's ``highest_seen``
_NO_BALLOT = Ballot.zero()


@dataclass(frozen=True)
class PmpSlot:
    """One slot: ``(minProposal, acceptedProposal, value)``."""

    min_prop: Ballot
    acc_prop: Optional[Ballot]
    value: Any


def takeover(
    env: ProcessEnv, region: RegionId, probe_key: tuple, ballot: Ballot, majority: int
) -> Generator:
    """Algorithm 7's memory-side prepare: grab the exclusive write
    permission on *region*, publish *ballot* at *probe_key* and snapshot
    the whole region — ONE chain per memory, posted to every memory at
    once and settled at *majority* completions.

    The grab policy ACKs any legitimate self-grab (including a no-op
    re-grab), so a chain aborts exactly where a refused probe write would
    have: a tombstoned region NAKs at WR 0.  Returns the region view of
    each memory that completed, or ``None`` when any of their chains
    aborted (somebody else holds the grant).
    """
    grab = Permission.exclusive_writer(int(env.pid), range(env.n_processes))
    probe = PmpSlot(min_prop=ballot, acc_prop=None, value=BOTTOM)
    chain = BatchOp((
        ChangePermissionOp(region, grab),
        WriteOp(region, probe_key, probe),
        SnapshotOp(region, (region,)),
    ))
    state = yield env.fanout_to_all(chain, need=majority)
    results = [r for r in state.results if r is not None]
    if not all(r.ok for r in results):
        return None
    return [r.value[2] for r in results]


def fold_takeover_views(views, probe_key: tuple, ballot: Ballot):
    """Fold a takeover's region views: ``(highest min_prop, key[1] ->
    (ballot, value) of the highest accepted proposal)``.

    ``key[1]`` is the slot in the replicated log (``(region, slot, pid)``
    registers) and the writer in Aligned Paxos (``(region, pid)``).  The
    caller's own probe register and ballot-only probes (``acc_prop is
    None``) carry no value.

    The ballot is folded over the WHOLE snapshot before the caller decides
    "outbid": every register carries its own ballot, so stopping at the
    first one that outbids *ballot* would teach the caller one register's
    worth of ballot per failed prepare — O(L) prepares for a recovering
    log leader.  Both folds are strict maxima over ballots, and one
    accepted ballot carries one value per ``key[1]``, so no order of the
    views, or of the keys inside them, can change the result.
    """
    highest = ballot
    best: Dict[Any, Tuple[Ballot, Any]] = {}
    for view in views:
        for key, other in view.items():
            if key == probe_key or not isinstance(other, PmpSlot):
                continue
            if other.min_prop > highest:
                highest = other.min_prop
            if other.acc_prop is not None and not is_bottom(other.value):
                current = best.get(key[1])
                if current is None or other.acc_prop > current[0]:
                    best[key[1]] = (other.acc_prop, other.value)
    return highest, best


def rx_region_of(region: str) -> str:
    """The read-index sibling region of one log region.

    Holds the per-writer commit-watermark registers the one-sided quorum
    read path reads (and writes back).  It is a *separate* region because
    its permission shape differs from the log's: the log region is
    exclusive-writer (the PMP fence), while watermark write-backs must be
    open to every process — a quorum reader is not the leader.
    """
    return region + "-rx"


def smr_rx_regions(n_processes: int, region: str = SMR_REGION) -> List[RegionSpec]:
    """The read-index region for one log: open access, static permissions.

    Open writes are safe here: registers are per-writer (no cross-process
    clobbering), values are monotone committed watermarks, and nothing in
    the region ever decides consensus — it only *indexes* what the fenced
    log region already committed.
    """
    rx = rx_region_of(region)
    processes = range(n_processes)
    return [
        RegionSpec(
            region_id=rx,
            prefix=(rx,),
            initial_permission=Permission.open(processes),
            legal_change=static_permissions,
        )
    ]


class Batch:
    """An ordered group of commands committed by one consensus instance.

    Batching amortises the per-slot cost: a single two-delay Protected
    Memory Paxos instance carries ``len(batch)`` client commands, which the
    state machine then applies in order.  An empty batch is a legal no-op
    filler (leader change, heartbeat).  A ``__slots__`` value object (one
    per committed slot, and batches travel inside decision messages);
    treat instances as immutable.
    """

    __slots__ = ("commands",)
    #: fields the crypto canonical encoder signs (see repro.crypto.signatures)
    _signable_fields_ = ("commands",)

    def __init__(self, commands: Tuple[Any, ...] = ()) -> None:
        self.commands = tuple(commands)

    def __eq__(self, other: Any) -> bool:
        if type(other) is not Batch:
            return NotImplemented
        return self.commands == other.commands

    def __hash__(self) -> int:
        return hash(self.commands)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch({self.commands!r})"

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self):
        return iter(self.commands)

    def __bool__(self) -> bool:
        # An empty batch is still a real log entry (a no-op), so Batch
        # truthiness follows "is a batch", not "has commands".
        return True


@dataclass
class SmrConfig:
    """Configuration for the replicated log."""

    initial_leader: int = 0
    #: region/topic namespace; a multi-group service gives every consensus
    #: group its own namespace so groups sharing a kernel never interfere
    region: str = SMR_REGION
    topic: str = SMR_TOPIC
    #: publish the commit watermark to the read-index region with every
    #: committed slot (one more WR on the slot write's chain),
    #: majority-acked BEFORE any client sees the commit.  Off by default:
    #: only the one-sided quorum read path needs it.  Requires
    #: ``smr_rx_regions`` to be registered.
    publish_watermark: bool = False


def smr_regions(
    n_processes: int, initial_leader: int = 0, region: str = SMR_REGION
) -> List[RegionSpec]:
    """One dynamic-permission region covering all slots of all instances.

    Pass a distinct *region* per consensus group to lay out several
    independent replicated logs in the same memories.
    """
    processes = range(n_processes)
    return [
        RegionSpec(
            region_id=region,
            prefix=(region,),
            initial_permission=Permission.exclusive_writer(initial_leader, processes),
            legal_change=exclusive_grab_policy(processes),
        )
    ]


class PostedWrite:
    """One phase-2 fan-out between its post and its settle: the
    ``(slot, value)`` entries it carries, the fan-out effect its poster
    yields, and its open phase span."""

    __slots__ = ("entries", "effect", "phase")

    def __init__(self, entries, effect, phase) -> None:
        self.entries = entries
        self.effect = effect
        self.phase = phase

    @property
    def state(self):
        """The kernel's completion state (``state.fired`` at the verdict)."""
        return self.effect.state


class SharedRead:
    """One replica's quorum read as later readers see it: its first
    fan-out (``effect``, whose ``state`` the kernel fills at the post),
    the gate its joiners park on (made by the first joiner) and the
    issuer's outcome once it has one."""

    __slots__ = ("effect", "gate", "outcome")

    def __init__(self) -> None:
        self.effect = None
        self.gate = None
        self.outcome: Optional[int] = None


class ReplicatedLog:
    """A replicated log endpoint running Protected Memory Paxos
    (Algorithm 7) per slot — the repo's one implementation of it:
    single-shot PMP (:mod:`repro.consensus.protected_memory_paxos`) is
    this log with one slot.

    Leadership (and hence the permission skip) carries across slots:
    after deciding slot ``i`` the leader still holds exclusive write
    permission, so slot ``i+1`` is again a single two-delay write.
    """

    def __init__(
        self,
        env: ProcessEnv,
        apply_fn: Callable[[int, Any], None],
        config: Optional[SmrConfig] = None,
        leader_fn: Optional[Callable[[], int]] = None,
        recovered: bool = False,
        pipeline_depth: int = 1,
    ) -> None:
        self.env = env
        self.apply_fn = apply_fn
        self.config = config = config or SmrConfig()
        #: how many slots whoever drives this group's leader keeps in
        #: flight (``post_batch``).  The log itself proposes serially; the
        #: listener only needs the number to tell a decision that overtook
        #: its in-flight neighbour from a missed broadcast.
        self.pipeline_depth = pipeline_depth
        self.region = config.region
        self.topic = config.topic
        #: catch-up traffic (pull requests, horizon acks) rides a sibling
        #: topic so it never competes with commit broadcasts
        self.sync_topic = config.topic + "-sync"
        #: who may propose; defaults to the kernel's Ω oracle, but a sharded
        #: service pins each group to its own statically assigned leader
        self._leader_fn = leader_fn if leader_fn is not None else env.leader
        #: slot -> decided value; a slot is decided iff it is a key here
        self.decided: Dict[int, Any] = {}
        self.applied_upto = -1
        self.highest_seen = _NO_BALLOT
        #: True once this process has grabbed permissions (or started as
        #: the initial leader), letting later slots skip the prepare phase.
        #: A *recovered* initial leader must NOT assume them: its previous
        #: incarnation (or a usurper it has forgotten) may have committed
        #: values it would silently overwrite — recovery always re-prepares.
        self.permissions_held = (
            int(env.pid) == config.initial_leader and not recovered
        )
        #: slot -> accepted value discovered at leadership takeover; while
        #: permissions are held nobody else can write, so the cache stays
        #: complete and proposing a cached slot must re-propose its value
        #: (otherwise a takeover could overwrite an earlier leader's commit)
        self.adopt_cache: Dict[int, Any] = {}
        #: pulsed at every commit, made by its first waiter (see commit_gate)
        self._commit_gate: Optional[Gate] = None
        #: read-index region for watermark registers (quorum read path)
        self.rx_region = rx_region_of(self.region)
        #: highest watermark this process ever published (or started to):
        #: raised optimistically BEFORE the write leaves, so two reads
        #: interleaving their write-backs can never regress the register
        self._wm_publish_floor = -1
        #: the latest quorum read posted on this replica, until its issuer
        #: returns: a new reader joins it while none of its legs landed
        self._joinable: Optional[SharedRead] = None

    # ------------------------------------------------------------------
    @property
    def commit_gate(self) -> Gate:
        """The gate every commit pulses.  Made on first use: a log that
        nobody waits on (a single-shot instance) never builds one, and a
        pulse with no waiters would wake nobody anyway."""
        gate = self._commit_gate
        if gate is None:
            env = self.env
            gate = self._commit_gate = env.new_gate(
                f"{self.region}-commit-p{int(env.pid) + 1}"
            )
        return gate

    def _commit(self, slot: int, value: Any) -> None:
        decided = self.decided
        if slot in decided:
            return
        decided[slot] = value
        upto = self.applied_upto + 1
        while upto in decided:
            self.applied_upto = upto
            self.apply_fn(upto, decided[upto])
            upto += 1
        if self._commit_gate is not None:
            self.env.pulse(self._commit_gate)

    # ------------------------------------------------------------------
    # read paths (non-consensus)
    # ------------------------------------------------------------------
    @property
    def applied_watermark(self) -> int:
        """Highest slot applied to the local state machine, in order."""
        return self.applied_upto

    @property
    def serves_local_reads(self) -> bool:
        """May this endpoint serve permission-fenced reads from local state?

        Requires holding the grant AND having re-committed everything the
        takeover prepare adopted: between a prepare and the re-commits the
        local applied state lags values an earlier leader already
        committed, so serving it — even fenced — could be stale.

        It also requires the applied state to have caught up with this
        process's own published watermark: during the publish round of a
        commit (or a quorum read's write-back) the registers can already
        advertise a slot the local apply has not executed — a quorum
        reader may have served that slot, so answering from the lagging
        local state here would be new-then-old.  The window closes within
        the same commit step; refusing (the caller falls back) keeps the
        fenced path never-stale.
        """
        if not self.permissions_held:
            return False
        if self.adopt_cache and max(self.adopt_cache) > self.applied_upto:
            return False
        if self._wm_publish_floor > self.applied_upto:
            return False
        return True

    def fence_probe(self, timeout: Optional[float] = None) -> Generator:
        """True iff this process's exclusive write grant on the log region
        is live at a majority of memories (see :func:`probe_write_grant`)."""
        held = yield from probe_write_grant(self.env, self.region, timeout=timeout)
        return held

    def quorum_read(self, timeout: Optional[float] = None) -> Generator:
        """One-sided quorum read: no leader involvement, ABD-style.

        Reads the commit watermark registers and any missing log entries
        directly from a majority of memories, ingests the committed
        prefix into this replica, and returns the watermark the local
        state now provably covers — or ``None`` when the read cannot be
        served one-sided (majority unreachable, region fenced away by a
        reconfiguration, or a wiped memory left the prefix unassemblable)
        and the caller must fall back to the consensus path.

        Correctness:

        * the watermark max over any majority covers every write whose
          client saw a reply (leaders majority-publish before replying);
        * every slot ``<= watermark`` was majority-written before the
          watermark advanced, so this read's majority holds each one,
          and the highest-ballot copy per slot is the committed value
          (the standard Paxos invariant: later ballots re-propose it);
        * a watermark is served only when one writer's register confirms
          it at a majority of views, so it is already durable and two
          sequential quorum reads can never see new-then-old.  There is
          no write-back: the slot write and the watermark share one chain,
          so a failed chain can leave its watermark at a minority, and
          amplifying that residue would let a later reader "confirm" a
          slot no writer ever committed.

        Under FIFO queue pairs the whole read is ONE chain per memory —
        see :meth:`_quorum_read_fused` for the adoption rules.

        Readers of one replica share a read until its first leg lands.
        A reader that finds the replica's latest read with no leg of its
        first fan-out yet applied at any memory parks on it and takes its
        outcome (:meth:`_join`); otherwise it posts its own read, which
        becomes the one to join.  Safe because every memory the shared
        read observes is observed after each joiner's invocation and
        before its response, so the watermark argument above covers the
        joiner's answer unchanged; and no joiner waits longer than its
        own read would have taken, nor past its own *timeout*.
        """
        env = self.env
        shared = self._joinable_read()
        if shared is not None:
            result = yield from self._join(shared, timeout)
            return result
        majority = env.majority_of_memories()
        obs = env.obs
        phase = obs and obs.phase("log.quorum_read", floor=self.applied_upto)
        shared = SharedRead()
        try:
            result = yield from self._quorum_read_inner(majority, timeout, shared)
        finally:
            if phase:
                phase.finish()
        shared.outcome = result
        if self._joinable is shared:
            self._joinable = None
        if shared.gate is not None:
            env.pulse(shared.gate)
        return result

    def _joinable_read(self) -> Optional[SharedRead]:
        """The in-flight read a new reader of this replica may share: the
        latest one, while no leg of its first fan-out has landed.  Exact
        under any latency model and schedule: the kernel counts the legs
        it applied (``FanoutState.landed``)."""
        shared = self._joinable
        if shared is not None and shared.effect.state.landed == 0:
            return shared
        return None

    def _join(self, shared: SharedRead, timeout: Optional[float]) -> Generator:
        """Park on *shared* until its issuer has the outcome, at most
        this reader's own *timeout*.  Returns the replica's applied
        watermark, which covers the shared read's, or ``None`` (fall
        back) while the shared read has no outcome: it failed, or this
        reader's timeout came first."""
        env = self.env
        obs = env.obs
        phase = obs and obs.phase(
            "log.quorum_read", floor=self.applied_upto, joined=True
        )
        if shared.gate is None:
            shared.gate = env.new_gate(f"{self.region}-read")
        yield env.gate_wait(shared.gate, timeout=timeout)
        if phase:
            phase.finish()
        return None if shared.outcome is None else self.applied_upto

    def _post_read(self, shared: SharedRead, op, timeout: Optional[float]) -> Generator:
        """Post a read's first fan-out of *op* to every memory as the
        replica's joinable read; returns its state at the verdict."""
        effect = shared.effect = verdict_fanout(self.env, op, timeout)
        self._joinable = shared
        state = yield effect
        return state

    def _quorum_read_inner(
        self, majority: int, timeout: Optional[float], shared: SharedRead
    ) -> Generator:
        env = self.env
        if env.fifo_memory_ops:
            # Doorbell-batched read: ONE fused chain per memory carries
            # both the watermark snapshot and the entry snapshot — the
            # two sequential rounds collapse into one.  Requires FIFO
            # queue pairs (constant per-leg delays): with reordering the
            # per-view consistent-cut argument below would not bound
            # which commits an early-served entry view has seen.
            result = yield from self._quorum_read_fused(majority, timeout, shared)
            return result
        # The watermark MUST be observed before the entries are fetched:
        # slots <= watermark were majority-written before the watermark
        # reached the memory that served it, so entry reads issued AFTER
        # that observation are guaranteed to find each committed value in
        # any majority.  Overlapping the two rounds would let an entry
        # view predate a commit the (later-served) watermark view already
        # covers — the view could then hold only a fenced-out old
        # proposer's minority residue for that slot, which would pass the
        # hole check and be served as if committed.  Sequencing also
        # skips the entry fan-out entirely in the caught-up common case.
        state = yield from self._post_read(
            shared, watermark_snapshot(self.rx_region), timeout
        )
        if state.acked < majority:
            return None
        watermark, confirmed = max_confirmed_watermark(state.acked_values(), majority)
        if watermark <= self.applied_upto:
            # local state is already at least as fresh as the quorum
            return self.applied_upto
        if not confirmed:
            # A failed commit chain can leave its watermark at a minority
            # of registers; it is neither served nor written back (see
            # quorum_read).  Fall back to the consensus path before
            # paying for an entry fetch that could never be served.
            return None
        floor = self.applied_upto + 1
        fetch_op = ReadSnapshotOp(self.region, (self.region,), floor)
        state = yield env.fanout_to_all(fetch_op, need=majority, timeout=timeout)
        views = state.acked_values()
        if len(views) < majority:
            return None
        # every view was fetched after the watermark was observed, so
        # each one covers all of it
        return self._ingest(((watermark, view) for view in views), floor, watermark)

    def _quorum_read_fused(
        self, majority: int, timeout: Optional[float], shared: SharedRead
    ) -> Generator:
        """The 1-round doorbell-batched quorum read.

        Each ACKing memory returns a *consistent cut* ``(wm_view,
        entry_view)`` — both snapshots applied at one arrival instant
        (under segmented delivery the entry view is taken a round trip
        after the watermark view, so it can only hold more).
        Three rules make the single round safe where non-FIFO delivery
        needs sequencing:

        * **per-register confirmation** (``max_confirmed_watermark``):
          the max watermark is trusted only when one writer's register
          carries it at a majority of views, which proves that writer
          completed the slot under the fence;
        * **per-view qualification**: slot ``s`` is adopted only from
          views whose own watermark is ``>= s``.  A fused writer installs
          a slot and its watermark in the SAME chain and watermarks are
          monotone, so every qualifying view postdates some commit chain
          covering ``s`` — an entry view served before slot ``s``'s
          commit reached that memory can never supply a fenced-out
          proposer's residue for it;
        * **no write-back**: a confirmed watermark is already durable at
          a majority, and an unconfirmed one must not be amplified (see
          :meth:`quorum_read`) — so the round is never followed by a
          publish.

        Holes (a committed slot no qualifying view holds — wiped memory,
        or every cut predating its chain) return ``None``: consensus
        fallback, same as the sequential path.
        """
        floor = self.applied_upto + 1
        chain = quorum_chain(self.rx_region, self.region, (self.region,), floor)
        state = yield from self._post_read(shared, chain, timeout)
        if state.acked < majority:
            return None
        pairs = state.acked_values()
        watermark, confirmed = max_confirmed_watermark(
            [wm_view for wm_view, _entries in pairs], majority
        )
        if watermark <= self.applied_upto:
            # local state is already at least as fresh as the quorum
            return self.applied_upto
        if not confirmed:
            return None
        # each cut covers what its own memory's watermark covers
        cuts = (
            (max((v for v in wm.values() if isinstance(v, int)), default=-1), entries)
            for wm, entries in pairs
        )
        return self._ingest(cuts, floor, watermark)

    def _ingest(self, cuts, floor: int, watermark: int) -> Optional[int]:
        """Commit slots ``floor..watermark`` from quorum-read *cuts* and
        return the applied watermark, or ``None`` on a hole.

        A cut is ``(covers, entry_view)``: slot ``s`` is adopted from
        *entry_view* only when ``s <= covers`` — a cut that predates slot
        ``s``'s commit chain must not supply a fenced-out proposer's
        residue for it.  Per slot the highest-ballot copy wins (the
        committed value: later ballots re-propose it).  A slot no cut
        supplies is a hole in the committed prefix (wiped memory, or every
        cut predating its chain): not one-sided-servable, the consensus
        path still is.
        """
        best: Dict[int, tuple] = {}
        for covers, entry_view in cuts:
            top = min(watermark, covers)
            for key, entry in entry_view.items():
                if not isinstance(entry, PmpSlot) or entry.acc_prop is None:
                    continue  # ballot-publishing probes carry no value
                if is_bottom(entry.value):
                    continue
                slot = key[1]
                if not isinstance(slot, int) or not floor <= slot <= top:
                    continue
                current = best.get(slot)
                if current is None or entry.acc_prop > current[0]:
                    best[slot] = (entry.acc_prop, entry.value)
        for slot in range(floor, watermark + 1):
            if slot not in best and slot > self.applied_upto:
                return None
        for slot in range(floor, watermark + 1):
            if slot > self.applied_upto:  # the listener may have raced ahead
                self._commit(slot, best[slot][1])
        return self.applied_upto

    # ------------------------------------------------------------------
    def listener(self) -> Generator:
        """Learn commits broadcast by the leader; pull any gap below them.

        A commit landing more than ``pipeline_depth`` slots above the
        applied prefix means this replica missed broadcasts (a partition,
        a restart): it asks the leader to re-send the missing prefix,
        throttled to one pull per backoff.  Anything nearer is an early
        neighbour — the leader had both slots in flight and, under
        jitter, the later decision overtook the earlier one, which is
        already on its way.
        """
        env = self.env
        # One reusable receive effect: the kernel only reads its fields, so
        # the listener avoids an effect + sub-generator allocation per commit.
        recv_commit = env.recv_effect(topic=self.topic)
        last_pull = -RETRY_BACKOFF
        while True:
            envelope = yield recv_commit
            if envelope is None:
                continue
            payload = envelope.payload
            if isinstance(payload, tuple) and len(payload) == 2:
                slot, decision = payload
                if isinstance(decision, Decision):
                    self._commit(slot, decision.value)
                    if slot > self.applied_upto + self.pipeline_depth:
                        now = env.now
                        target = self._leader_fn()
                        if (
                            target != int(env.pid)
                            and now - last_pull >= RETRY_BACKOFF
                        ):
                            last_pull = now
                            yield env.send(
                                target,
                                ("pull", self.applied_upto + 1),
                                topic=self.sync_topic,
                            )

    def sync_server(self) -> Generator:
        """Serve catch-up pulls: re-send the committed prefix on request.

        This is the state-transfer half of partition/crash recovery: a
        replica that missed commit broadcasts (or restarted empty) sends
        ``("pull", from_slot)`` on the sync topic; any up-to-date replica
        answers with the committed entries as ordinary ``(slot, Decision)``
        messages — the listener ingests them with zero new code paths —
        followed by an ``("upto", n)`` horizon marker on the sync topic.
        """
        env = self.env

        def is_pull(envelope) -> bool:
            payload = envelope.payload
            return isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "pull"

        recv_pull = env.recv_effect(topic=self.sync_topic, match=is_pull)
        while True:
            envelope = yield recv_pull
            if envelope is None:
                continue
            from_slot = max(0, envelope.payload[1])
            requester = envelope.src
            for slot in range(from_slot, self.applied_upto + 1):
                yield env.send(
                    requester,
                    (slot, Decision(value=self.decided[slot])),
                    topic=self.topic,
                )
            yield env.send(requester, ("upto", self.applied_upto), topic=self.sync_topic)

    def catchup(self) -> Generator:
        """Pull the committed prefix after a restart (follower recovery).

        Re-asks the current leader every backoff until a horizon ack shows
        this replica has applied everything the leader had committed; gaps
        that appear later are handled by the listener's pull path.
        """
        env = self.env

        def is_upto(envelope) -> bool:
            payload = envelope.payload
            return isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "upto"

        while True:
            target = self._leader_fn()
            if target == int(env.pid):
                return  # leaders recover by re-proposing (recover_leader)
            yield env.send(target, ("pull", self.applied_upto + 1), topic=self.sync_topic)
            reply = yield env.recv_effect(
                topic=self.sync_topic,
                match=is_upto,
                timeout=2 * RETRY_BACKOFF,
            )
            if reply is not None and reply.payload[1] <= self.applied_upto:
                return

    def recover_leader(self) -> Generator:
        """Re-establish leadership after a restart and re-commit the past.

        Runs the full prepare (``recovered`` logs start with
        ``permissions_held`` False) — but probed at the reserved recovery
        slot, NOT at the next data slot: the prepare's ballot-publishing
        write lands on the probed slot's own key, and a restarted leader
        has forgotten which of its own keys hold committed values, so
        probing a real slot could destroy its previous incarnation's
        commit at every memory the prepare reaches.  The reserved slot can
        never hold data, the snapshot still covers the whole region, and
        ``adopt_cache`` then holds every slot any incarnation ever
        accepted.

        The adopted prefix is then re-committed in windows of
        ``RECOVERY_WINDOW`` slots — the paper's phase 2 under an exclusive
        write permission, applied to many slots in one chain per memory
        (gaps filled with the no-op ``Batch()``) — so recovery costs a
        constant number of round trips plus one per window, not one per
        slot.  Each window's decisions are re-broadcast, which is also
        what re-teaches a minority that was partitioned away while this
        leader was down.  A NAKed window commits nothing, and the loop
        backs off and re-prepares: whatever the partial chain left behind
        is adopted again.  While somebody else leads, the per-slot
        ``propose`` parks on the commit gate as before.
        """
        env = self.env
        majority = env.majority_of_memories()
        obs = env.obs
        phase = obs and obs.phase("log.recover")
        prepares = windows = 0
        try:
            while True:
                while not self.permissions_held:
                    prepares += 1
                    adopted = yield from self._prepare(
                        _RECOVERY_PROBE_SLOT, self._next_ballot(), majority, Batch()
                    )
                    if adopted is None:
                        yield self._backoff()
                first = self.applied_upto + 1
                top = max(self.adopt_cache, default=-1)
                if top < first:
                    return
                if self._leader_fn() != int(env.pid):
                    yield from self.propose(first, Batch())
                    continue
                last = min(top, first + RECOVERY_WINDOW - 1)
                entries = [
                    (slot, self.adopt_cache.get(slot, Batch()))
                    for slot in range(first, last + 1)
                    if slot not in self.decided
                ]
                windows += 1
                committed = yield from self._phase2(
                    self._next_ballot(), majority, entries
                )
                if not committed:
                    yield self._backoff()
        finally:
            if phase:
                phase.finish(
                    adopted=len(self.adopt_cache), prepares=prepares, windows=windows
                )

    # ------------------------------------------------------------------
    def _backoff(self):
        """The randomised pause a failed attempt earns before the next."""
        env = self.env
        return env.sleep(RETRY_BACKOFF * (1 + env.rng.random()))

    def propose(self, slot: int, command: Any, after_nak: bool = False) -> Generator:
        """Drive consensus for *slot*; returns the decided command.

        Retries (with permission re-acquisition) until the slot commits;
        returns the committed value, which may be another leader's command
        if this process lost leadership.  *after_nak* says the caller's
        own posted write of this slot (``post_batch``) already NAKed: that
        was the first failed attempt, so the loop opens with its back-off.
        """
        env = self.env
        pid = int(env.pid)
        decided = self.decided
        if after_nak and slot not in decided:
            yield self._backoff()
        while slot not in decided:
            if self._leader_fn() != pid:
                yield env.gate_wait(self.commit_gate, timeout=LEADER_POLL)
                continue
            majority = env.majority_of_memories()
            prop_nr = self._next_ballot()
            if self.permissions_held:
                value = self.adopt_cache.get(slot, command)
            else:
                value = yield from self._prepare(slot, prop_nr, majority, command)
            if value is not None:
                yield from self._phase2(prop_nr, majority, ((slot, value),))
            if slot not in decided:
                yield self._backoff()
        return decided[slot]

    def propose_batch(
        self, slot: int, commands: Iterable[Any], after_nak: bool = False
    ) -> Generator:
        """Commit one :class:`Batch` of commands in *slot*; returns the
        decided value (the batch, or another leader's entry on takeover)."""
        decided = yield from self.propose(slot, Batch(tuple(commands)), after_nak)
        return decided

    def post_batch(self, slot: int, commands: Iterable[Any], notify) -> Generator:
        """Post *slot*'s phase-2 write under the held grant and return its
        :class:`PostedWrite` at once — the pipelined half of
        :meth:`propose_batch`.  The verdict pulses the *notify* gate; the
        caller then :meth:`settle`s.  Only a leader that holds the grant
        may post (instances live in disjoint registers, so slot ``k+1``
        need not wait for slot ``k`` — but a prepare must never run
        beside a posted write of the same process)."""
        if not self.permissions_held:
            raise ConfigurationError(
                f"post_batch(slot={slot}) without the write grant: "
                "a leader that must prepare proposes serially"
            )
        value = self.adopt_cache.get(slot, Batch(tuple(commands)))
        posted = self._phase2_post(
            self._next_ballot(), self.env.majority_of_memories(),
            ((slot, value),), notify,
        )
        yield posted.effect  # the posted form resumes at once
        if posted.phase:
            posted.phase.suspend()  # so the next slot does not nest under it
        return posted

    def _next_ballot(self) -> Ballot:
        """A fresh ballot of this process's, above everything seen."""
        self.highest_seen = self.highest_seen.next_for(self.env.pid)
        return self.highest_seen

    def _phase2(self, prop_nr: Ballot, majority: int, entries) -> Generator:
        """Write *entries* (``(slot, value)`` pairs, ascending) under
        *prop_nr* and commit them on a majority ACK; True iff committed.

        The blocking composition of the two halves below: post in the
        parking form (the fan-out's own wait is the wait), then settle.
        A pipelining caller runs the same two halves with a gate between
        them (:meth:`post_batch` / :meth:`settle`) — there is one
        implementation of phase 2.
        """
        posted = self._phase2_post(prop_nr, majority, entries)
        yield posted.effect
        committed = yield from self.settle(posted)
        return committed

    def _phase2_post(
        self, prop_nr: Ballot, majority: int, entries, notify=None
    ) -> PostedWrite:
        """Post half of phase 2: one chain per memory, all leaving at
        the instant the caller yields ``effect``.  With publish_watermark
        the watermark write for the last slot rides the SAME chain, after
        the slot writes (so a deposed leader's NAK aborts the chain before
        the watermark can advance): every client-visible effect of the
        commit happens after the watermark is durable at a majority.

        Without *notify* the yielding task parks until the majority
        verdict; with it the fan-out is posted (see ``OpFanoutEffect``)
        and the task resumes at once.
        """
        env = self.env
        pid = int(env.pid)
        region = self.region
        writes = [
            WriteOp(region, (region, slot, pid), PmpSlot(prop_nr, prop_nr, value))
            for slot, value in entries
        ]
        if self.config.publish_watermark:
            # Floor raised BEFORE the chain leaves: a concurrent local
            # read path must refuse to serve until the apply catches up,
            # and the register stays monotone.
            target = max(int(entries[-1][0]), self._wm_publish_floor)
            self._wm_publish_floor = target
            wm_key = watermark_key(self.rx_region, pid)
            writes.append(WriteOp(self.rx_region, wm_key, target))
        op = writes[0] if len(writes) == 1 else BatchOp(writes)
        obs = env.obs
        phase = obs and obs.phase("log.phase2", slot=entries[0][0])
        return PostedWrite(
            entries, env.fanout_to_all(op, need=majority, notify=notify), phase
        )

    def settle(self, posted: PostedWrite) -> Generator:
        """Settle half of phase 2, run once ``posted.state.fired``: commit
        and broadcast the entries on a majority ACK with no NAK; True iff
        committed.  A NAK commits none of them and drops
        ``permissions_held`` (somebody grabbed the region).  Each posted
        write is judged on its own completions: a later slot that
        majority-ACKed is decided even when an earlier one NAKed — they
        are separate instances."""
        env = self.env
        state = posted.state
        entries = posted.entries
        failed = state.naked > 0
        if posted.phase:
            posted.phase.finish(failed=failed)
        if failed:
            if self.config.publish_watermark and any(
                r is not None and not r.ok and r.value.failed_index == len(entries)
                for r in state.results
            ):
                # A chain aborted at the watermark write: the open, static
                # rx region can only refuse when it was never registered.
                # Proceeding would silently re-open the staleness hole the
                # watermark closes, so this is a loud assembly error.
                raise ConfigurationError(
                    f"watermark publish to {self.rx_region!r} refused: "
                    "publish_watermark=True requires the smr_rx_regions "
                    "read-index region to be registered"
                )
            self.permissions_held = False  # somebody grabbed the region
            return False
        me = env.pid
        for slot, value in entries:
            self._commit(slot, value)
            decision = (slot, Decision(value=value))
            for dst in range(env.n_processes):
                if dst != me:
                    yield env.send(dst, decision, topic=self.topic)
        return True

    def _prepare(self, slot: int, prop_nr: Ballot, majority: int, command: Any) -> Generator:
        """The takeover prepare (:func:`takeover`), probed at *slot*'s own
        key; its snapshot covers the whole region — every slot any previous
        leader may have written, not just the one being proposed."""
        env = self.env
        probe_key = (self.region, slot, int(env.pid))
        obs = env.obs
        phase = obs and obs.phase("log.prepare", slot=slot)
        try:
            views = yield from takeover(env, self.region, probe_key, prop_nr, majority)
        finally:
            if phase:
                phase.finish()
        if views is None:
            return None
        highest, best_per_slot = fold_takeover_views(views, probe_key, prop_nr)
        if highest > prop_nr:
            self.highest_seen = max(self.highest_seen, highest)
            return None
        self.adopt_cache = {s: v for s, (_b, v) in best_per_slot.items()}
        self.permissions_held = True
        best = best_per_slot.get(slot)
        return command if best is None else best[1]
