"""Single-decree Paxos over a pluggable transport.

This is the crash-tolerant algorithm ``A`` the paper feeds to the Robust
Backup construction (Definition 2): run it over :class:`DirectTransport`
and it is classic message-passing Paxos (the 4-delay, ``n >= 2f+1``
baseline); run it over :class:`TrustedAdapter` and it becomes the Byzantine
tolerant Robust Backup core.

Roles are folded into one node per process: a *pump* task receives and
dispatches messages (acceptor duties are handled inline; proposer replies
are filed and a gate is signalled), and a *proposer* task drives ballots
whenever Ω says this process leads.  Everyone decides upon a ``Decision``
message; the proposer that forms an Accepted quorum decides directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.consensus.ballots import Ballot
from repro.consensus.base import ProposerOutcome, Transport, wait_until
from repro.consensus.messages import (
    Accept,
    Accepted,
    Decision,
    Nack,
    Prepare,
    Promise,
)
from repro.sim.environment import ProcessEnv
from repro.types import ProcessId


@dataclass
class PaxosConfig:
    """Tunables for one Paxos node."""

    #: promise/accepted quorum size; default: majority of n
    quorum: Optional[int] = None
    #: how long a proposer waits for a quorum before retrying
    round_timeout: float = 20.0
    #: base backoff between proposer attempts (jittered)
    retry_backoff: float = 5.0
    #: how often a non-leader checks whether it became leader
    leader_poll: float = 2.0

    def quorum_for(self, n: int) -> int:
        return self.quorum if self.quorum is not None else n // 2 + 1


@dataclass
class _AcceptorState:
    promised: Ballot = field(default_factory=Ballot.zero)
    accepted_ballot: Optional[Ballot] = None
    accepted_value: Any = None


class PaxosNode:
    """One process's Paxos endpoint (acceptor + proposer + learner)."""

    def __init__(
        self,
        env: ProcessEnv,
        transport: Transport,
        value: Any,
        config: Optional[PaxosConfig] = None,
        on_decide=None,
        instance: Any = None,
    ) -> None:
        self.env = env
        self.transport = transport
        self.value = value
        self.config = config or PaxosConfig()
        self.instance = instance
        self.quorum = self.config.quorum_for(env.n_processes)
        self.acceptor = _AcceptorState()
        self.promises: Dict[Ballot, Dict[ProcessId, Promise]] = {}
        self.accepts: Dict[Ballot, Set[ProcessId]] = {}
        self.nacked: Set[Ballot] = set()
        self.highest_seen = Ballot.zero()
        self.decided_value: Any = None
        self.decided = False
        self.wake = env.new_gate(f"paxos-wake-p{int(env.pid)+1}")
        self.on_decide = on_decide

    # ------------------------------------------------------------------
    # message pump (acceptor + learner + proposer reply filing)
    # ------------------------------------------------------------------
    def pump(self) -> Generator:
        """Receive-and-dispatch loop; runs until the process is killed."""
        while True:
            received = yield from self.transport.recv(timeout=None)
            if received is None:
                continue
            sender, message = received
            yield from self._dispatch(ProcessId(sender), message)

    def _dispatch(self, sender: ProcessId, message: Any) -> Generator:
        if isinstance(message, Prepare):
            yield from self._on_prepare(sender, message)
        elif isinstance(message, Accept):
            yield from self._on_accept(sender, message)
        elif isinstance(message, Promise):
            self._file_promise(sender, message)
        elif isinstance(message, Accepted):
            self._file_accepted(sender, message)
        elif isinstance(message, Nack):
            self._file_nack(message)
        elif isinstance(message, Decision):
            self._learn(message.value)

    def _on_prepare(self, sender: ProcessId, msg: Prepare) -> Generator:
        state = self.acceptor
        self.highest_seen = max(self.highest_seen, msg.ballot)
        if msg.ballot > state.promised:
            state.promised = msg.ballot
            reply = Promise(
                ballot=msg.ballot,
                accepted_ballot=state.accepted_ballot,
                accepted_value=state.accepted_value,
            )
            yield from self.transport.send(sender, reply)
        else:
            yield from self.transport.send(
                sender, Nack(ballot=msg.ballot, promised=state.promised)
            )

    def _on_accept(self, sender: ProcessId, msg: Accept) -> Generator:
        state = self.acceptor
        self.highest_seen = max(self.highest_seen, msg.ballot)
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

    def _file_promise(self, sender: ProcessId, msg: Promise) -> None:
        self.promises.setdefault(msg.ballot, {})[sender] = msg
        self.env.pulse(self.wake)

    def _file_accepted(self, sender: ProcessId, msg: Accepted) -> None:
        self.accepts.setdefault(msg.ballot, set()).add(sender)
        self.env.pulse(self.wake)

    def _file_nack(self, msg: Nack) -> None:
        self.nacked.add(msg.ballot)
        self.highest_seen = max(self.highest_seen, msg.promised)
        self.env.pulse(self.wake)

    def _learn(self, value: Any) -> None:
        if not self.decided:
            self.decided = True
            self.decided_value = value
            self.env.decide(value, instance=self.instance)
            if self.on_decide is not None:
                self.on_decide(value)
        self.env.pulse(self.wake)

    # ------------------------------------------------------------------
    # proposer
    # ------------------------------------------------------------------
    def proposer(self) -> Generator:
        """Drive ballots while this process is the Ω leader; returns when
        decided."""
        env = self.env
        while not self.decided:
            if env.leader() != env.pid:
                yield env.gate_wait(self.wake, timeout=self.config.leader_poll)
                continue
            yield from self._attempt()
            if not self.decided:
                backoff = self.config.retry_backoff * (1 + env.rng.random())
                yield env.sleep(backoff)
        return ProposerOutcome(decided=True, value=self.decided_value)

    def _attempt(self) -> Generator:
        env = self.env
        ballot = self.highest_seen.next_for(env.pid)
        self.highest_seen = ballot
        obs = env.obs
        phase = obs and obs.phase("paxos.prepare", ballot=str(ballot))
        try:
            yield from self.transport.broadcast(Prepare(ballot=ballot))
            arrived = yield from wait_until(
                env,
                self.wake,
                lambda: self._promise_count(ballot) >= self.quorum
                or ballot in self.nacked
                or self.decided,
                timeout=self.config.round_timeout,
            )
        finally:
            if phase:
                phase.finish()
        if self.decided or not arrived or ballot in self.nacked:
            return
        proposal = self._choose_value(ballot)
        phase = obs and obs.phase("paxos.accept", ballot=str(ballot))
        try:
            yield from self.transport.broadcast(Accept(ballot=ballot, value=proposal))
            yield from wait_until(
                env,
                self.wake,
                lambda: len(self.accepts.get(ballot, ())) >= self.quorum
                or ballot in self.nacked
                or self.decided,
                timeout=self.config.round_timeout,
            )
        finally:
            if phase:
                phase.finish()
        if self.decided or len(self.accepts.get(ballot, ())) < self.quorum:
            return
        yield from self.transport.broadcast(Decision(value=proposal))
        self._learn(proposal)

    def _promise_count(self, ballot: Ballot) -> int:
        return len(self.promises.get(ballot, {}))

    def _choose_value(self, ballot: Ballot) -> Any:
        """Standard selection: value of the highest-ballot accepted pair."""
        best: Optional[Tuple[Ballot, Any]] = None
        for promise in self.promises.get(ballot, {}).values():
            if promise.accepted_ballot is None:
                continue
            if best is None or promise.accepted_ballot > best[0]:
                best = (promise.accepted_ballot, promise.accepted_value)
        return self.value if best is None else best[1]
