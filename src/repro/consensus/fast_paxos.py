"""Fast Paxos baseline (Lamport [38]): two delays, message passing only.

The paper cites Fast Paxos as the message-passing protocol that decides in
two delays in common executions while requiring ``n >= 2f_P + 1``.  We
implement the fast round with a fast quorum of *all n acceptors* (the
uncontended, failure-free common case the paper's delay metric measures)
on top of :class:`~repro.consensus.paxos.PaxosNode`, whose classic
prepare/accept is the recovery the Ω leader runs otherwise:

* fast round: a proposer broadcasts its value (1 delay); each acceptor that
  has not yet accepted anything accepts it and broadcasts ``FastAccepted``
  (1 delay); any process observing all n fast-accepts for one value decides
  — 2 delays end to end.
* recovery: after :data:`RECOVERY_DELAY` the proposer falls through to the
  classic proposer, with ballots above the fast round's.  A fast
  acceptance is recorded as an accepted pair at :data:`FAST_BALLOT`, the
  lowest ballot, so promises report it like any classic acceptance.

Safety of the recovery rule: with a fast quorum of n, a value can only
have been fast-decided if *every* acceptor fast-accepted it, so every
promise in any majority reports ``(FAST_BALLOT, v)`` and no higher pair
exists until a classic accept, which itself carries v — the classic
highest-ballot rule therefore adopts v.  Classic rounds thereafter are
plain Paxos.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Set, Tuple

from repro.consensus.ballots import Ballot
from repro.consensus.base import (
    ConsensusProtocol,
    DirectTransport,
    Transport,
    wait_until,
)
from repro.consensus.messages import FastAccepted, FastPropose
from repro.consensus.paxos import PaxosNode
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv
from repro.types import ProcessId

#: the accepted ballot a fast acceptance is recorded under: below every
#: classic ballot a proposer draws, above "nothing accepted"
FAST_BALLOT = Ballot(0, 0)
#: fast-path wait before the proposer starts classic recovery (delays)
RECOVERY_DELAY = 10.0


class FastPaxosNode(PaxosNode):
    """One process's Fast Paxos endpoint: a :class:`PaxosNode` (default
    :class:`~repro.consensus.paxos.PaxosConfig`) plus the fast round."""

    def __init__(self, env: ProcessEnv, transport: Transport, value: Any) -> None:
        super().__init__(env, transport, value)
        #: at most one fast-round acceptance per acceptor
        self.fast_accepted = False
        self.fast_votes: Dict[Any, Set[ProcessId]] = {}

    def _dispatch(self, sender: ProcessId, message: Any) -> Generator:
        if isinstance(message, FastPropose):
            yield from self._on_fast_propose(message)
        elif isinstance(message, FastAccepted):
            self._on_fast_accepted(sender, message)
        else:
            yield from super()._dispatch(sender, message)

    def _on_fast_propose(self, msg: FastPropose) -> Generator:
        state = self.acceptor
        # Fast-round acceptance only while no classic ballot intervened.
        if self.fast_accepted or state.promised > Ballot.zero():
            return
        self.fast_accepted = True
        state.accepted_ballot = FAST_BALLOT
        state.accepted_value = msg.value
        yield from self.transport.broadcast(FastAccepted(value=msg.value))

    def _on_fast_accepted(self, sender: ProcessId, msg: FastAccepted) -> None:
        self.fast_votes.setdefault(msg.value, set()).add(sender)
        if len(self.fast_votes[msg.value]) >= self.env.n_processes:
            self._learn(msg.value)
        self.env.pulse(self.wake)

    def proposer(self) -> Generator:
        """Fast round first; Ω-led classic recovery if it stalls."""
        yield from self.transport.broadcast(FastPropose(value=self.value))
        yield from wait_until(
            self.env,
            self.wake,
            lambda: self.decided,
            timeout=RECOVERY_DELAY,
        )
        outcome = yield from super().proposer()
        return outcome


class FastPaxos(ConsensusProtocol):
    """Fast Paxos over the plain network."""

    name = "fast-paxos"

    def regions(self, n_processes: int, n_memories: int) -> List[RegionSpec]:
        return []

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        node = FastPaxosNode(env, DirectTransport(env, topic="fast-paxos"), value)
        return [("fp-pump", node.pump()), ("fp-proposer", node.proposer())]
