"""Protected Memory Paxos (paper Section 5.1, Algorithm 7).

Crash-fault consensus with ``n >= f_P + 1`` processes and ``m >= 2f_M + 1``
memories that decides in **two delays** in the common case.  The trick over
Disk Paxos: at any time exactly one process holds exclusive write permission
per memory, so a leader's successful phase-2 write *simultaneously* stores
its proposal and proves no newer leader exists (a newer leader would have
grabbed the permission, making the write nak) — eliminating Disk Paxos'
confirming read and its two delays.

The initial leader ``p1`` starts with the permissions already held and may
skip the preparation phase on its first attempt (Theorem D.5's
``firstAttempt`` flag), going straight to the single phase-2 write: two
delays.  Every later attempt — by p1 or anybody else — runs the full
prepare phase: grab permission, publish the proposal number, read all
slots (one snapshot per memory).

That prepare is :func:`takeover` and its fold :func:`fold_takeover_views`.
The replicated log runs both (one prepare covers every slot); Aligned
Paxos posts its memory agents' prepares itself and runs the same fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.consensus.ballots import Ballot
from repro.consensus.messages import Decision
from repro.consensus.base import ConsensusProtocol
from repro.mem.operations import BatchOp, ChangePermissionOp, SnapshotOp, WriteOp
from repro.mem.permissions import Permission, exclusive_grab_policy
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv
from repro.types import BOTTOM, RegionId, is_bottom

REGION = "pmp"
TOPIC = "pmp"
#: how often a non-leader re-checks Ω, and the base of the randomised
#: back-off between a leader's failed attempts (virtual delays)
LEADER_POLL = 2.0
RETRY_BACKOFF = 4.0


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

    ``key[1]`` is the writer in single-shot PMP and Aligned Paxos
    (``(region, pid)`` registers) and the slot in the replicated log
    (``(region, slot, pid)``).  The caller's own probe register and
    ballot-only probes (``acc_prop is None``) carry no value.

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


@dataclass
class PmpConfig:
    #: initial leader (holds write permission from the start)
    initial_leader: int = 0
    #: ablation switch: disable the Theorem D.5 first-attempt skip, forcing
    #: even the initial leader through the full prepare phase (the
    #: permission optimization is what this flag turns off)
    skip_first_attempt: bool = True


@lru_cache(maxsize=256)
def pmp_regions(n_processes: int, initial_leader: int = 0) -> Tuple[RegionSpec, ...]:
    """One region spanning each memory's whole PMP slot array.

    Initially the fixed leader holds exclusive write permission; the
    ``legalChange`` policy lets any process grab exclusivity for itself
    (crash model — nobody lies about identity).  The specs are frozen
    values, so they are built once per shape and shared.
    """
    processes = range(n_processes)
    return (
        RegionSpec(
            region_id=REGION,
            prefix=(REGION,),
            initial_permission=Permission.exclusive_writer(initial_leader, processes),
            legal_change=exclusive_grab_policy(processes),
        ),
    )


class PmpNode:
    """One process's Protected Memory Paxos endpoint."""

    def __init__(self, env: ProcessEnv, value: Any, config: Optional[PmpConfig] = None):
        self.env = env
        self.value = value
        self.config = config or PmpConfig()
        self.highest_seen = Ballot.zero()
        self.decided = False
        self.decided_value: Any = None
        self.first_attempt = True
        #: restarted-after-crash mode: propose regardless of Ω until decided.
        #: A recovered node may have missed the (one-shot) decision
        #: broadcast, and Ω will never point at it while a stable leader is
        #: alive — so its only sound path to the decided value is through
        #: the memories: a full prepare adopts whatever was committed.
        self.recovering = False

    # ------------------------------------------------------------------
    def listener(self) -> Generator:
        """Learn decisions broadcast by whoever decided."""
        env = self.env
        while not self.decided:
            envelope = yield from env.recv(topic=TOPIC)
            if envelope is not None and isinstance(envelope.payload, Decision):
                self._learn(envelope.payload.value)

    def _learn(self, value: Any) -> None:
        if not self.decided:
            self.decided = True
            self.decided_value = value
            self.env.decide(value)

    # ------------------------------------------------------------------
    def proposer(self) -> Generator:
        env = self.env
        while not self.decided:
            if not self.recovering and env.leader() != env.pid:
                yield env.sleep(LEADER_POLL)
                continue
            yield from self._attempt()
            if not self.decided:
                yield env.sleep(RETRY_BACKOFF * (1 + env.rng.random()))

    def _attempt(self) -> Generator:
        env = self.env
        majority = env.majority_of_memories()
        prop_nr = self.highest_seen.next_for(env.pid)
        self.highest_seen = prop_nr
        skip_prepare = (
            self.config.skip_first_attempt
            and int(env.pid) == self.config.initial_leader
            and self.first_attempt
        )
        self.first_attempt = False

        if skip_prepare:
            my_value = self.value
        else:
            prepared = yield from self._prepare_phase(prop_nr, majority)
            if prepared is None:
                return
            my_value = prepared

        # Phase 2: one write per memory, in parallel.  Success on a clean
        # ACK majority both stores the value and certifies leadership
        # (Lemma D.3) — no confirming read needed.
        slot_value = PmpSlot(min_prop=prop_nr, acc_prop=prop_nr, value=my_value)
        obs = env.obs
        phase = obs and obs.phase("pmp.phase2", ballot=str(prop_nr))
        try:
            state = yield env.fanout_to_all(
                WriteOp(REGION, (REGION, int(env.pid)), slot_value), need=majority
            )
        finally:
            if phase:
                phase.finish()
        if state.naked > 0:
            return  # permission was taken: a newer leader exists; restart
        self._learn(my_value)
        yield from env.broadcast(Decision(value=my_value), topic=TOPIC, include_self=False)

    def _prepare_phase(self, prop_nr: Ballot, majority: int) -> Generator:
        """Grab permissions, publish prop_nr, read every slot
        (:func:`takeover`).

        Returns the value to propose, or None to restart.

        The ballot-publishing probe normally lands on this process's own
        value slot (which is then excluded from adoption — it only holds
        the probe).  A *recovering* node must not do that: its own slot may
        hold its previous incarnation's committed value — possibly the only
        surviving copy — so recovery probes a reserved boot key instead and
        keeps its own slot adoptable.
        """
        env = self.env
        if self.recovering:
            probe_key = (REGION, "boot", int(env.pid))
        else:
            probe_key = (REGION, int(env.pid))

        obs = env.obs
        phase = obs and obs.phase("pmp.prepare", ballot=str(prop_nr))
        try:
            views = yield from takeover(env, REGION, probe_key, prop_nr, majority)
        finally:
            if phase:
                phase.finish()
        if views is None:
            return None
        highest, best_per_writer = fold_takeover_views(views, probe_key, prop_nr)
        if highest > prop_nr:
            self.highest_seen = max(self.highest_seen, highest)
            return None
        best = max(best_per_writer.values(), key=itemgetter(0), default=None)
        return self.value if best is None else best[1]


class ProtectedMemoryPaxos(ConsensusProtocol):
    """Algorithm 7 as a pluggable protocol."""

    name = "protected-memory-paxos"

    def __init__(self, config: Optional[PmpConfig] = None) -> None:
        self.config = config or PmpConfig()

    def regions(self, n_processes: int, n_memories: int) -> List[RegionSpec]:
        return list(pmp_regions(n_processes, self.config.initial_leader))

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        node = PmpNode(env, value, self.config)
        return [("pmp-listener", node.listener()), ("pmp-proposer", node.proposer())]

    def recovery_tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        """Restart after a crash: never skip the prepare phase.

        The Theorem D.5 first-attempt skip is sound only when the leader
        *knows* nothing was committed before its write — true at boot,
        false after a crash: the previous incarnation (or another leader
        whose permission grab the restarted process has forgotten) may have
        committed a value this process must adopt, so the first attempt
        must run the full takeover read.  The node also proposes regardless
        of Ω (``recovering``): a restarted follower missed the one-shot
        decision broadcast, and the takeover read is its only sound way to
        learn the committed value.
        """
        node = PmpNode(env, value, self.config)
        node.first_attempt = False
        node.recovering = True
        return [("pmp-listener", node.listener()), ("pmp-proposer", node.proposer())]


# ---------------------------------------------------------------------------
# model-checking oracle hooks (see repro.check.scenarios)
# ---------------------------------------------------------------------------
def accepted_view(kernel) -> dict:
    """Every accepted PMP slot currently stored across all memories.

    Keyed ``(mid, register_key)``; probe slots (``acc_prop is None``) and
    bottom placeholders are excluded.  Registers wiped by a memory
    recovery simply disappear from the view — the oracle judges what the
    surviving replicated state says.
    """
    view = {}
    for mid, memory in enumerate(kernel.memories):
        for key, slot in memory.items():
            if (
                isinstance(slot, PmpSlot)
                and slot.acc_prop is not None
                and not is_bottom(slot.value)
            ):
                view[(mid, key)] = slot
    return view


def chosen_value(kernel):
    """The value carried by the maximum accepted proposal, or ``None``.

    PMP's chosen value is the one a takeover read adopts: the value of the
    highest ``acc_prop`` across all slots.  Minority slots may hold stale
    accepted values from lower, superseded proposals — those are *not*
    chosen and may legitimately disagree.  A decision oracle therefore
    checks the decided value against this maximum, never against every
    accepted slot.
    """
    best = None
    for slot in accepted_view(kernel).values():
        if best is None or slot.acc_prop > best.acc_prop:
            best = slot
    return None if best is None else best.value
