"""Fast Paxos baseline (Lamport [38]): two delays, message passing only.

The paper cites Fast Paxos as the message-passing protocol that decides in
two delays in common executions while requiring ``n >= 2f_P + 1``.  We
implement the fast round with a fast quorum of *all n acceptors* (the
uncontended, failure-free common case the paper's delay metric measures)
and classic-Paxos recovery by the Ω leader otherwise:

* fast round: a proposer broadcasts its value (1 delay); each acceptor that
  has not yet accepted anything accepts it and broadcasts ``FastAccepted``
  (1 delay); any process observing all n fast-accepts for one value decides
  — 2 delays end to end.
* recovery: the coordinator runs classic prepare/accept with ballots above
  the fast round.  With a fast quorum of n, a value can only have been fast
  decided if *every* acceptor fast-accepted it, so any promise majority
  reports it unanimously; the coordinator must adopt a value that appears
  in every promise of its quorum, and is free otherwise.

Safety of the recovery rule: if v was fast-decided, all n acceptors
accepted v in the fast round, so every promise in any majority reports v
and the coordinator adopts v.  Classic rounds thereafter are plain Paxos.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.consensus.ballots import Ballot
from repro.consensus.base import (
    ConsensusProtocol,
    DirectTransport,
    Transport,
    wait_until,
)
from repro.consensus.messages import (
    Accept,
    Accepted,
    Decision,
    FastAccepted,
    FastPropose,
    Nack,
    Prepare,
    Promise,
)
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv
from repro.types import ProcessId


#: classic-recovery timings (virtual delays): per-round quorum timeout, base
#: of the randomised retry back-off, and the non-leader's Ω re-check cadence
ROUND_TIMEOUT = 20.0
RETRY_BACKOFF = 5.0
LEADER_POLL = 2.0


@dataclass
class FastPaxosConfig:
    #: fast-path wait before the coordinator starts recovery
    recovery_delay: float = 10.0


@dataclass
class _State:
    #: fast-round acceptance (at most one per acceptor)
    fast_accepted: Any = None
    has_fast_accepted: bool = False
    promised: Ballot = field(default_factory=Ballot.zero)
    accepted_ballot: Optional[Ballot] = None
    accepted_value: Any = None


class FastPaxosNode:
    """One process's Fast Paxos endpoint."""

    def __init__(
        self,
        env: ProcessEnv,
        transport: Transport,
        value: Any,
        config: Optional[FastPaxosConfig] = None,
    ) -> None:
        self.env = env
        self.transport = transport
        self.value = value
        self.config = config or FastPaxosConfig()
        self.state = _State()
        self.fast_votes: Dict[Any, Set[ProcessId]] = {}
        self.promises: Dict[Ballot, Dict[ProcessId, Promise]] = {}
        self.accepts: Dict[Ballot, Set[ProcessId]] = {}
        self.nacked: Set[Ballot] = set()
        self.highest_seen = Ballot.zero()
        self.decided = False
        self.decided_value: Any = None
        self.wake = env.new_gate(f"fast-paxos-p{int(env.pid)+1}")

    # ------------------------------------------------------------------
    def pump(self) -> Generator:
        while True:
            received = yield from self.transport.recv(timeout=None)
            if received is None:
                continue
            sender, message = received
            yield from self._dispatch(ProcessId(sender), message)

    def _dispatch(self, sender: ProcessId, message: Any) -> Generator:
        if isinstance(message, FastPropose):
            yield from self._on_fast_propose(message)
        elif isinstance(message, FastAccepted):
            self._on_fast_accepted(sender, message)
        elif isinstance(message, Prepare):
            yield from self._on_prepare(sender, message)
        elif isinstance(message, Accept):
            yield from self._on_accept(sender, message)
        elif isinstance(message, Promise):
            self.promises.setdefault(message.ballot, {})[sender] = message
            self._kick()
        elif isinstance(message, Accepted):
            self.accepts.setdefault(message.ballot, set()).add(sender)
            self._kick()
        elif isinstance(message, Nack):
            self.nacked.add(message.ballot)
            self.highest_seen = max(self.highest_seen, message.promised)
            self._kick()
        elif isinstance(message, Decision):
            self._learn(message.value)

    def _kick(self) -> None:
        self.env.pulse(self.wake)

    def _on_fast_propose(self, msg: FastPropose) -> Generator:
        state = self.state
        # Fast-round acceptance only while no classic ballot intervened.
        if state.has_fast_accepted or state.promised > Ballot.zero():
            return
        state.has_fast_accepted = True
        state.fast_accepted = msg.value
        # The fast round behaves like an accepted ballot just above zero so
        # recovery sees it in promises.
        state.accepted_ballot = Ballot(round=0, pid=0)
        state.accepted_value = msg.value
        yield from self.transport.broadcast(FastAccepted(value=msg.value))

    def _on_fast_accepted(self, sender: ProcessId, msg: FastAccepted) -> None:
        self.fast_votes.setdefault(msg.value, set()).add(sender)
        if len(self.fast_votes[msg.value]) >= self.env.n_processes:
            self._learn(msg.value)
        self._kick()

    def _on_prepare(self, sender: ProcessId, msg: Prepare) -> Generator:
        state = self.state
        self.highest_seen = max(self.highest_seen, msg.ballot)
        if msg.ballot > state.promised:
            state.promised = msg.ballot
            yield from self.transport.send(
                sender,
                Promise(
                    ballot=msg.ballot,
                    accepted_ballot=state.accepted_ballot,
                    accepted_value=state.accepted_value,
                ),
            )
        else:
            yield from self.transport.send(
                sender, Nack(ballot=msg.ballot, promised=state.promised)
            )

    def _on_accept(self, sender: ProcessId, msg: Accept) -> Generator:
        state = self.state
        if msg.ballot >= state.promised:
            state.promised = msg.ballot
            state.accepted_ballot = msg.ballot
            state.accepted_value = msg.value
            yield from self.transport.send(
                sender, Accepted(ballot=msg.ballot, value=msg.value)
            )
        else:
            yield from self.transport.send(
                sender, Nack(ballot=msg.ballot, promised=state.promised)
            )

    def _learn(self, value: Any) -> None:
        if not self.decided:
            self.decided = True
            self.decided_value = value
            self.env.decide(value)
        self._kick()

    # ------------------------------------------------------------------
    def proposer(self) -> Generator:
        """Fast round first; Ω-led classic recovery if it stalls."""
        env = self.env
        yield from self.transport.broadcast(FastPropose(value=self.value))
        yield from wait_until(
            env, self.wake, lambda: self.decided, timeout=self.config.recovery_delay
        )
        while not self.decided:
            if env.leader() != env.pid:
                yield env.gate_wait(self.wake, timeout=LEADER_POLL)
                continue
            yield from self._recover()
            if not self.decided:
                yield env.sleep(RETRY_BACKOFF * (1 + env.rng.random()))

    def _recover(self) -> Generator:
        env = self.env
        quorum = env.n_processes // 2 + 1
        ballot = self.highest_seen.next_for(env.pid)
        self.highest_seen = ballot
        yield from self.transport.broadcast(Prepare(ballot=ballot))
        arrived = yield from wait_until(
            env,
            self.wake,
            lambda: len(self.promises.get(ballot, {})) >= quorum
            or ballot in self.nacked
            or self.decided,
            timeout=ROUND_TIMEOUT,
        )
        if self.decided or not arrived or ballot in self.nacked:
            return
        proposal = self._recovery_value(ballot)
        yield from self.transport.broadcast(Accept(ballot=ballot, value=proposal))
        yield from wait_until(
            env,
            self.wake,
            lambda: len(self.accepts.get(ballot, ())) >= quorum
            or ballot in self.nacked
            or self.decided,
            timeout=ROUND_TIMEOUT,
        )
        if self.decided or len(self.accepts.get(ballot, ())) < quorum:
            return
        yield from self.transport.broadcast(Decision(value=proposal))
        self._learn(proposal)

    def _recovery_value(self, ballot: Ballot) -> Any:
        """Classic rule over reported pairs; forced when a value may have
        been fast-decided (i.e. it appears in every promise of the quorum)."""
        promises = list(self.promises.get(ballot, {}).values())
        best: Optional[Tuple[Ballot, Any]] = None
        for promise in promises:
            if promise.accepted_ballot is None:
                continue
            if best is None or promise.accepted_ballot > best[0]:
                best = (promise.accepted_ballot, promise.accepted_value)
        return self.value if best is None else best[1]


class FastPaxos(ConsensusProtocol):
    """Fast Paxos over the plain network."""

    name = "fast-paxos"

    def __init__(self, config: Optional[FastPaxosConfig] = None) -> None:
        self.config = config or FastPaxosConfig()

    def regions(self, n_processes: int, n_memories: int) -> List[RegionSpec]:
        return []

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        node = FastPaxosNode(env, DirectTransport(env, topic="fast-paxos"), value, self.config)
        return [("fp-pump", node.pump()), ("fp-proposer", node.proposer())]
