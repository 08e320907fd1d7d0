"""The trusted transport: T-send / T-receive over non-equivocating broadcast.

Algorithm 3 of the paper.  ``t_send(dst, m)`` broadcasts ``(m, H, dst)``
with the sender's full history H via non-equivocating broadcast.  On
delivery, every process — addressee or not — validates the message:

1. *structural*: the sequence number continues the sender's send count, and
   sent events are contiguous;
2. *citation*: every reception the history claims is checked against this
   process's own record of what that sender actually broadcast (deferring
   while the cited broadcast has not arrived here yet);
3. *conformance*: the protocol validator confirms the message is one a
   correct process could send given that history.

A sender failing 1–3 is dropped forever: it has been converted into a
crashed process, which is the point of the Clement et al. construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from repro.broadcast.nonequivocating import Delivery, NonEquivocatingBroadcast
from repro.sim.environment import ProcessEnv
from repro.trusted.history import (
    History,
    RecvEvent,
    SentEvent,
    TO_ALL,
    sent_count,
)
from repro.trusted.validators import ConformanceValidator, PermissiveConformance
from repro.types import ProcessId


@dataclass(frozen=True)
class TMessage:
    """The broadcast payload of one T-send: message, history, destination."""

    message: Any
    history: History
    dst: Any  # ProcessId or TO_ALL


@dataclass(frozen=True)
class TDelivered:
    """One message handed to the local protocol by T-receive."""

    sender: ProcessId
    message: Any


class TrustedTransport:
    """Per-process endpoint for trusted sends and receives.

    Typical wiring::

        transport = TrustedTransport(env, validator=PaxosConformance(quorum))
        yield env.spawn("neb", transport.neb.delivery_daemon())
        yield from transport.t_broadcast(msg)
        delivered = yield from transport.t_recv(timeout=...)
    """

    def __init__(
        self,
        env: ProcessEnv,
        validator: Optional[ConformanceValidator] = None,
        namespace: str = "neb",
    ) -> None:
        self.env = env
        self.validator = validator or PermissiveConformance()
        self.history: List[Any] = []
        self.neb = NonEquivocatingBroadcast(
            env, on_deliver=self._on_deliver, namespace=namespace
        )
        self.inbox: Deque[TDelivered] = deque()
        self.inbox_gate = env.new_gate(f"t-inbox-p{int(env.pid)+1}")
        #: validated broadcasts seen so far: (sender, k) -> (message, dst)
        self.seen: Dict[Tuple[ProcessId, int], Tuple[Any, Any]] = {}
        #: senders dropped after failing validation (treated as crashed)
        self.dropped: set = set()
        #: deliveries whose citations are not yet checkable
        self.pending: List[Delivery] = []
        self.delivered_log: List[TDelivered] = []

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def t_send(self, dst: ProcessId, message: Any) -> Generator:
        """T-send *message* to *dst* (broadcast, consumed by the addressee)."""
        yield from self._send(ProcessId(dst), message)

    def t_broadcast(self, message: Any) -> Generator:
        """T-send *message* to every process."""
        yield from self._send(TO_ALL, message)

    def _send(self, dst: Any, message: Any) -> Generator:
        history = tuple(self.history)
        k = sent_count(history) + 1
        payload = TMessage(message=message, history=history, dst=dst)
        self.history.append(SentEvent(k=k, dst=dst, message=message))
        yield from self.neb.broadcast(payload)

    # ------------------------------------------------------------------
    # delivery pipeline (runs inside the broadcast daemon; zero delays)
    # ------------------------------------------------------------------
    def _on_deliver(self, delivery: Delivery) -> None:
        self.pending.append(delivery)
        self._drain_pending()

    def _drain_pending(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for delivery in list(self.pending):
                verdict = self._try_validate(delivery)
                if verdict == "defer":
                    continue
                self.pending.remove(delivery)
                progressed = True
                if verdict == "ok":
                    self._accept(delivery)
                else:
                    self._drop(delivery.sender)

    def _try_validate(self, delivery: Delivery) -> str:
        """Returns "ok", "bad", or "defer"."""
        sender = delivery.sender
        if sender in self.dropped:
            return "bad"
        payload = delivery.payload
        if not isinstance(payload, TMessage):
            return "bad"
        if sender == self.env.pid:
            return "ok"  # own sends need no self-validation
        if not self._structurally_sound(delivery.k, payload.history):
            return "bad"
        citation_verdict = self._citations_ok(sender, payload.history)
        if citation_verdict != "ok":
            return citation_verdict
        if not self.validator.validate(
            self.env, sender, delivery.k, payload.message, payload.history
        ):
            return "bad"
        return "ok"

    @staticmethod
    def _structurally_sound(k: int, history: History) -> bool:
        if sent_count(history) != k - 1:
            return False
        next_k = 1
        for event in history:
            if isinstance(event, SentEvent):
                if event.k != next_k:
                    return False
                next_k += 1
            elif not isinstance(event, RecvEvent):
                return False
        return True

    def _citations_ok(self, citer: ProcessId, history: History) -> str:
        """Check every claimed reception against our own delivery record."""
        for event in history:
            if not isinstance(event, RecvEvent):
                continue
            known = self.seen.get((event.sender, event.k))
            if known is None:
                if event.sender in self.dropped:
                    return "bad"  # cites a convicted sender's message
                return "defer"  # may genuinely not have reached us yet
            message, dst = known
            if message != event.message or dst != event.dst:
                return "bad"  # cites something the sender never broadcast
            if dst not in (TO_ALL, citer) and event.sender != citer:
                return "bad"  # cites a message addressed to somebody else
        return "ok"

    def _accept(self, delivery: Delivery) -> None:
        env = self.env
        payload: TMessage = delivery.payload
        self.seen[(delivery.sender, delivery.k)] = (payload.message, payload.dst)
        if payload.dst not in (TO_ALL, env.pid):
            return  # tracked for citations, but not addressed to us
        self.history.append(
            RecvEvent(
                sender=delivery.sender,
                k=delivery.k,
                dst=payload.dst,
                message=payload.message,
            )
        )
        delivered = TDelivered(sender=delivery.sender, message=payload.message)
        self.inbox.append(delivered)
        self.delivered_log.append(delivered)
        env.pulse(self.inbox_gate)

    def _drop(self, sender: ProcessId) -> None:
        if sender == self.env.pid:
            return
        self.dropped.add(sender)
        self.neb.convicted.add(sender)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def t_recv(self, timeout: Optional[float] = None) -> Generator:
        """Dequeue the next trusted delivery; None if *timeout* elapses."""
        deadline = None if timeout is None else self.env.now + timeout
        while not self.inbox:
            remaining = None if deadline is None else deadline - self.env.now
            if remaining is not None and remaining <= 0:
                return None
            arrived = yield self.env.gate_wait(self.inbox_gate, timeout=remaining)
            if not arrived and not self.inbox:
                return None
        return self.inbox.popleft()
