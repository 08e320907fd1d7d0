"""Aligned Paxos (paper Section 5.2, Algorithms 9-15).

Processes and memories are *equivalent agents*: consensus survives as long
as a **majority of the combined set** ``P ∪ M`` stays alive — e.g. with
n=3, m=3 any three failures split arbitrarily between processes and
memories.  The proposer runs the same two phases against both agent kinds,
translating each step (Algorithms 10-15):

====================  ===========================  =======================
step                  process agent                memory agent
====================  ===========================  =======================
communicate1          send ``Prepare(b)``          grab permission, write
                                                   ``slot[p] = (b, -, -)``
hear back 1           ``Promise``/``Nack``         snapshot all slots
communicate2          send ``Accept(b, v)``        write ``(b, b, v)``
hear back 2           ``Accepted``/``Nack``        write ACK/NAK
====================  ===========================  =======================

Two memory-side variants, per the paper's footnote 4:

* ``variant="protected"`` (default): Protected Memory Paxos style — dynamic
  permissions make phase-2 writes self-certifying; the initial leader skips
  phase 1 on its first attempt and decides in **two delays**.
* ``variant="disk"``: Disk Paxos style — no permissions; phase 2 adds a
  confirming snapshot per memory (two extra delays), no phase skipped.

Each phase broadcasts to the process agents and posts one single-target
fan-out leg per memory agent (its whole step as one op or chain), every leg
pulsing the same ``node.wake`` gate the process replies pulse.  The
proposer's completion loop counts replies plus fired legs against the
combined majority; a crashed memory's leg never fires and never wakes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Any, Generator, List, Optional, Tuple

from repro.consensus.ballots import Ballot
from repro.consensus.base import ConsensusProtocol, DirectTransport, wait_until
from repro.consensus.messages import Accept, Decision, Prepare
from repro.consensus.paxos import PaxosConfig, PaxosNode
from repro.smr.log import PmpSlot, fold_takeover_views
from repro.mem.operations import BatchOp, ChangePermissionOp, SnapshotOp, WriteOp
from repro.mem.permissions import Permission, exclusive_grab_policy
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv
from repro.types import BOTTOM

REGION = "ap"
TOPIC = "aligned"
#: Ω re-check cadence, base of the randomised retry back-off and per-round
#: quorum timeout (virtual delays); the embedded PaxosNode gets the same
LEADER_POLL = 2.0
RETRY_BACKOFF = 4.0
ROUND_TIMEOUT = 30.0


@dataclass
class AlignedConfig:
    variant: str = "protected"  # or "disk"
    initial_leader: int = 0

    def __post_init__(self) -> None:
        if self.variant not in ("protected", "disk"):
            raise ValueError(f"unknown variant {self.variant!r}")


@lru_cache(maxsize=256)
def aligned_regions(
    n_processes: int, variant: str = "protected", initial_leader: int = 0
) -> Tuple[RegionSpec, ...]:
    """The one memory region, built once per shape (frozen values)."""
    processes = range(n_processes)
    if variant == "protected":
        permission = Permission.exclusive_writer(initial_leader, processes)
        legal = exclusive_grab_policy(processes)
        return (RegionSpec(REGION, (REGION,), permission, legal_change=legal),)
    return (RegionSpec(REGION, (REGION,), Permission.open(processes)),)


class AlignedNode:
    """One process's Aligned Paxos endpoint.

    The message half reuses :class:`PaxosNode` (acceptor duties, reply
    filing, decision learning); the proposer below drives both agent kinds
    and counts a combined quorum.
    """

    def __init__(self, env: ProcessEnv, value: Any, config: Optional[AlignedConfig] = None):
        self.env = env
        self.value = value
        self.config = config or AlignedConfig()
        paxos_config = PaxosConfig(
            round_timeout=ROUND_TIMEOUT,
            retry_backoff=RETRY_BACKOFF,
            leader_poll=LEADER_POLL,
        )
        self.node = PaxosNode(
            env, DirectTransport(env, topic=TOPIC), value, config=paxos_config
        )
        self.first_attempt = True
        #: restarted-after-crash mode (PMP's restarted log leads itself
        #: alike): propose regardless of Ω until decided, and keep the
        #: node's own memory slot adoptable during phase 1 — it may hold
        #: the only surviving copy of the previous incarnation's committed
        #: value
        self.recovering = False

    # ------------------------------------------------------------------
    @property
    def decided(self) -> bool:
        return self.node.decided

    def pump(self) -> Generator:
        yield from self.node.pump()

    def proposer(self) -> Generator:
        env = self.env
        while not self.decided:
            if not self.recovering and env.leader() != env.pid:
                yield env.gate_wait(self.node.wake, timeout=LEADER_POLL)
                continue
            yield from self._attempt()
            if not self.decided:
                yield env.sleep(RETRY_BACKOFF * (1 + env.rng.random()))

    # ------------------------------------------------------------------
    def _agent_majority(self) -> int:
        total = self.env.n_processes + self.env.n_memories
        return total // 2 + 1

    def _attempt(self) -> Generator:
        env = self.env
        node = self.node
        majority = self._agent_majority()
        ballot = node.highest_seen.next_for(env.pid)
        node.highest_seen = ballot
        skip_phase1 = (
            self.config.variant == "protected"
            and int(env.pid) == self.config.initial_leader
            and self.first_attempt
        )
        self.first_attempt = False

        if skip_phase1:
            proposal = self.value
        else:
            proposal = yield from self._phase1(ballot, majority)
            if proposal is _RESTART:
                return

        ok = yield from self._phase2(ballot, proposal, majority)
        if not ok:
            return
        yield from node.transport.broadcast(Decision(value=proposal))
        node._learn(proposal)

    def _post_legs(self, op) -> Generator:
        """Post *op* to each memory agent as its own one-target fan-out
        that pulses ``node.wake`` when it completes, so each memory's
        response wakes the proposer as a process agent's reply does.
        Returns the legs' states in memory order."""
        env = self.env
        legs = []
        for mid in env.memories:
            legs.append((yield env.op_fanout(((mid, op),), 1, notify=self.node.wake)))
        return legs

    # ------------------------------------------------------------------
    def _phase1(self, ballot: Ballot, majority: int) -> Generator:
        env = self.env
        node = self.node
        protected = self.config.variant == "protected"
        grab = Permission.exclusive_writer(int(env.pid), range(env.n_processes))
        probe = PmpSlot(min_prop=ballot, acc_prop=None, value=BOTTOM)
        # A recovering node publishes its ballot under a reserved boot key:
        # its own value slot may hold the previous incarnation's committed
        # value and must stay intact and adoptable (as PMP's recovering log
        # probes its reserved slot, see ReplicatedLog.recover_leader).
        if self.recovering:
            probe_key = (REGION, "boot", int(env.pid))
        else:
            probe_key = (REGION, int(env.pid))

        # Each memory agent's phase 1 is one chain: [grab +] probe + snapshot.
        chain_ops = (WriteOp(REGION, probe_key, probe), SnapshotOp(REGION, (REGION,)))
        if protected:
            chain_ops = (ChangePermissionOp(REGION, grab),) + chain_ops

        yield from node.transport.broadcast(Prepare(ballot=ballot))
        legs = yield from self._post_legs(BatchOp(chain_ops))

        def responded() -> int:
            return len(node.promises.get(ballot, {})) + sum(leg.fired for leg in legs)

        yield from wait_until(
            env,
            node.wake,
            lambda: responded() >= majority or ballot in node.nacked or node.decided,
            timeout=ROUND_TIMEOUT,
        )
        if node.decided or ballot in node.nacked or responded() < majority:
            return _RESTART
        results = [leg.results[0] for leg in legs if leg.fired]
        if any(not r.ok for r in results):
            return _RESTART
        views = [r.value[-1] for r in results]
        highest, best_per_writer = fold_takeover_views(views, probe_key, ballot)
        if highest > ballot:
            node.highest_seen = max(node.highest_seen, highest)
            return _RESTART
        pairs = list(best_per_writer.values()) + [
            (promise.accepted_ballot, promise.accepted_value)
            for promise in node.promises.get(ballot, {}).values()
            if promise.accepted_ballot is not None
        ]
        best = max(pairs, key=itemgetter(0), default=None)
        return self.value if best is None else best[1]

    # ------------------------------------------------------------------
    def _phase2(self, ballot: Ballot, proposal: Any, majority: int) -> Generator:
        env = self.env
        node = self.node
        protected = self.config.variant == "protected"
        slot_value = PmpSlot(min_prop=ballot, acc_prop=ballot, value=proposal)

        def outpaced(view) -> bool:
            # Disk variant's confirming read: restart if a higher ballot
            # has been published at this memory.
            for key, other in view.items():
                if key == (REGION, int(env.pid)) or not isinstance(other, PmpSlot):
                    continue
                if other.min_prop > ballot:
                    return True
            return False

        # Protected: permission exclusivity certifies the lone write
        # (Lemma D.3).  Disk: the write rides one chain with its
        # confirming snapshot.
        write = WriteOp(REGION, (REGION, int(env.pid)), slot_value)
        op = write if protected else BatchOp((write, SnapshotOp(REGION, (REGION,))))

        def leg_ok(leg) -> bool:
            result = leg.results[0]
            return result.ok and (protected or not outpaced(result.value[1]))

        yield from node.transport.broadcast(Accept(ballot=ballot, value=proposal))
        legs = yield from self._post_legs(op)

        def successes() -> int:
            legs_ok = sum(1 for leg in legs if leg.fired and leg_ok(leg))
            return len(node.accepts.get(ballot, ())) + legs_ok

        def failed() -> bool:
            return ballot in node.nacked or any(
                leg.fired and not leg_ok(leg) for leg in legs
            )

        yield from wait_until(
            env,
            node.wake,
            lambda: successes() >= majority or failed() or node.decided,
            timeout=ROUND_TIMEOUT,
        )
        if node.decided:
            return False
        return successes() >= majority and not failed()


_RESTART = object()


class AlignedPaxos(ConsensusProtocol):
    """Aligned Paxos as a pluggable protocol."""

    name = "aligned-paxos"

    def __init__(self, config: Optional[AlignedConfig] = None) -> None:
        self.config = config or AlignedConfig()

    def regions(self, n_processes: int, n_memories: int) -> List[RegionSpec]:
        return list(aligned_regions(
            n_processes, self.config.variant, self.config.initial_leader
        ))

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        node = AlignedNode(env, value, self.config)
        return [("ap-pump", node.pump()), ("ap-proposer", node.proposer())]

    def recovery_tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        """Restart after a crash: same rules as Protected Memory Paxos.

        Never skip phase 1 (the first-attempt skip is only sound at boot),
        probe a reserved boot key so the previous incarnation's slot stays
        intact and adoptable, and propose regardless of Ω — a restarted
        node may have missed the one-shot decision broadcast, and the
        combined memory/process prepare is its sound way back.
        """
        node = AlignedNode(env, value, self.config)
        node.first_attempt = False
        node.recovering = True
        return [("ap-pump", node.pump()), ("ap-proposer", node.proposer())]
