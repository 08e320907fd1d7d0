"""Message envelopes.

Every message travels in an :class:`Envelope` stamped by the kernel with the
true sender — this is the link-integrity property from Section 3: a
Byzantine process may send arbitrary *payloads* but cannot make a message
appear to come from somebody else.  ``topic`` routes messages to the
protocol layer that should consume them (several protocol stacks share one
process's inbox, e.g. Cheap Quorum panic relays next to Paxos traffic).

Envelopes are allocated once per message on the kernel's hot path, so they
are a hand-written ``__slots__`` class: construction is a plain attribute
fill.  An envelope has no id: the network's duplicate guard is its
``delivered`` flag, and a trace names a message by its span.  Treat
instances as immutable once created, except for that flag.
"""

from __future__ import annotations

from typing import Any

from repro.types import ProcessId


class Envelope:
    """One message in flight or delivered."""

    __slots__ = ("src", "dst", "topic", "payload", "sent_at", "ctx", "delivered")

    def __init__(
        self,
        src: ProcessId,
        dst: ProcessId,
        topic: str,
        payload: Any,
        sent_at: float,
    ) -> None:
        self.src = src
        self.dst = dst
        self.topic = topic
        self.payload = payload
        self.sent_at = sent_at
        #: causal trace context riding the message (a repro.obs Span opened
        #: by the send path, closed at delivery); None when obs is detached
        self.ctx: Any = None
        #: set by the network on first delivery; a second delivery of this
        #: envelope is dropped (link integrity: exactly-once)
        self.delivered = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<msg p{int(self.src)+1}->p{int(self.dst)+1} "
            f"{self.topic}: {self.payload!r}>"
        )
