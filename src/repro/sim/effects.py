"""Effects: the requests protocol generators yield to the kernel.

A protocol step is a generator; each ``yield <effect>`` hands control to the
kernel, which performs the effect and resumes the generator with the
effect's result:

================  ==========================================  ==============
effect            meaning                                      resume value
================  ==========================================  ==============
SendEffect        send a message (1 delay, non-blocking)       None
RecvEffect        park until a matching message arrives        Envelope/None*
SleepEffect       park for a fixed virtual duration            None
GateWaitEffect    park until a local gate opens                True/False*
SpawnEffect       start another task on this process           Task
OpFanoutEffect    one op/chain per target memory, park for a   FanoutState
                  quorum verdict (or the timeout); posted
                  (``notify=<Gate>``) it does not park — the
                  verdict signals the gate instead
================  ==========================================  ==============

(*) False/None indicates the optional timeout elapsed first.

Memory is touched in exactly one shape — the paper's "for every memory in
parallel: a short sequence of permission-change / write / read, continue
on ``m - f_M`` completions" — and one effect carries it: an
:class:`OpFanoutEffect` posts a *chain* (a single op, or a
:class:`~repro.mem.operations.BatchOp` of several) to each target memory
and completes once.  An op on one memory is the one-target case,
``need=1`` (see ``ProcessEnv.read``/``write``/``batch``).  How a chain
travels — one request applied atomically, or one round trip per work
request — is the kernel's ``SimConfig.chain_delivery`` pricing mode,
never the protocol's business.

``SendEffect``/``SpawnEffect`` resume immediately at the same virtual
instant — computation is instantaneous in the model.

Dispatch contract
-----------------

The kernel does **not** dispatch on ``isinstance``.  Every effect class
carries a small integer class attribute ``kind`` (one of the ``FX_*``
constants below), and the kernel indexes a flat handler table with it —
one list subscript per effect instead of a type scan.  The
contract for anything a task yields:

* ``effect.kind`` must be an ``FX_*`` integer, and the object must expose
  the fields the matching handler reads (the constructor signatures below
  are the authoritative field lists);
* the numbering is dense from zero: handler tables are built as flat
  lists.  Kinds live only in one process — traces persist entry seqs and
  labels, never kind numbers — so removing a kind may renumber the rest;
* yielding an object without a usable ``kind`` is a :class:`SimulationError`
  (the kernel reports it as a non-effect).

Effects are plain ``__slots__`` value objects rather than dataclasses: they
are allocated on every hot-path yield, and a hand-written ``__init__`` with
slots is the cheapest construction Python offers.  Treat instances as
immutable — the kernel may defer reading their fields until the effect is
performed.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.net.messages import Envelope
from repro.sim.futures import FanoutState, Gate
from repro.types import ProcessId

# ---------------------------------------------------------------------------
# Effect kinds: indices into the kernel's effect-handler table.
# ---------------------------------------------------------------------------
FX_SEND = 0
FX_RECV = 1
FX_SLEEP = 2
FX_GATE_WAIT = 3
FX_SPAWN = 4
FX_OP_FANOUT = 5


class _ParkedType:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<parked>"


#: what an effect handler returns when its task parked: the kernel stops
#: stepping the task until a wake resumes it
PARKED = _ParkedType()


class Effect:
    """Base class for everything a protocol generator may yield.

    Subclassing is optional sugar: the kernel dispatches purely on the
    ``kind`` tag (see the module docstring's dispatch contract).
    """

    __slots__ = ()
    kind: int = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: Any) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    __hash__ = None  # effects are mutable-shaped value objects; not hashable


class SendEffect(Effect):
    """Send *payload* to process *dst* on *topic* (fire-and-forget)."""

    __slots__ = ("dst", "topic", "payload")
    kind = FX_SEND

    def __init__(self, dst: ProcessId, topic: str, payload: Any) -> None:
        self.dst = dst
        self.topic = topic
        self.payload = payload


class RecvEffect(Effect):
    """Park until a message matching (*topic*, *match*) arrives."""

    __slots__ = ("topic", "match", "timeout")
    kind = FX_RECV

    def __init__(
        self,
        topic: Optional[str] = None,
        match: Optional[Callable[[Envelope], bool]] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.topic = topic
        self.match = match
        self.timeout = timeout


class SleepEffect(Effect):
    """Park for *duration* units of virtual time."""

    __slots__ = ("duration",)
    kind = FX_SLEEP

    def __init__(self, duration: float) -> None:
        self.duration = duration


class GateWaitEffect(Effect):
    """Park until *gate* is set, or *timeout* elapses."""

    __slots__ = ("gate", "timeout")
    kind = FX_GATE_WAIT

    def __init__(self, gate: Gate, timeout: Optional[float] = None) -> None:
        self.gate = gate
        self.timeout = timeout


class SpawnEffect(Effect):
    """Start *gen* as a sibling task of the current process."""

    __slots__ = ("name", "gen", "daemon")
    kind = FX_SPAWN

    def __init__(self, name: str, gen: Generator, daemon: bool = True) -> None:
        self.name = name
        self.gen = gen
        self.daemon = daemon


class OpFanoutEffect(Effect):
    """Post one op (or chain) per target memory; park for ONE completion
    verdict.

    ``targets`` is a tuple of ``(mid, op)`` pairs, all posted at the same
    instant.  The kernel tracks completions in a single shared
    :class:`~repro.sim.futures.FanoutState` and resumes the task exactly
    once, with that state, when the verdict is in:

    * ``count_acks=False`` — after *need* completions (ACK or NAK), the
      quorum-wait idiom of a phase-2 write fan-out;
    * ``count_acks=True`` — after *need* ACKs (success) or more than
      *spare_naks* NAKs (failure short-circuit), the probe-verdict idiom;
    * either way after *timeout*, when given.

    Late completions still land in ``state.results`` (the state outlives
    the wake), but never resume the task again.  Ops on crashed memories
    simply never complete, which is why quorum callers must size *need*
    accordingly: a fan-out with no timeout that could still be parked
    once every leg completed — *need* above the target count, or, counting
    ACKs, *need* + *spare_naks* above it — could never wake, so posting
    one is a :class:`~repro.errors.SimulationError`.

    A chain leg counts once toward *need* however it is delivered, and
    resolves to ACK with the tuple of sub-values, or NAK with a
    :class:`~repro.types.ChainAbort` naming the first refused sub-op
    (everything before it landed, the tail is flushed).  Fused (the
    default ``chain_delivery``), the chain is one request applied
    atomically at its arrival and priced ``request + k*issue + response``:
    two nominal delays however long.  Segmented, each work request is its
    own signalled round trip, applied at its own arrival, the next one
    posted when the previous completes.

    **Posted form** (``notify=<Gate>``): the task is resumed at once with
    the still-open state and keeps running — several fan-outs outstanding
    on one task, the work-request / completion-queue shape.  When the
    verdict is in the kernel sets ``state.fired`` and pulses *notify*
    (wake its waiters, leave it clear): one ready-lane wake, the same one
    the parking form costs.  A waiter polls ``fired`` on each state it
    posted before parking on the gate again; a dead waiter simply abandons
    its states.  The posted form takes no *timeout*.

    ``state`` is the :class:`~repro.sim.futures.FanoutState` the kernel
    opened when it posted the effect (None before): a task that kept the
    effect can watch its legs land while the issuer is parked.
    """

    __slots__ = ("targets", "need", "count_acks", "spare_naks", "timeout",
                 "notify", "state")
    kind = FX_OP_FANOUT

    def __init__(
        self,
        targets,
        need: int,
        count_acks: bool = False,
        spare_naks: int = 0,
        timeout: Optional[float] = None,
        notify: Optional[Gate] = None,
    ) -> None:
        self.targets = tuple(targets)
        self.need = need
        self.count_acks = count_acks
        self.spare_naks = spare_naks
        self.timeout = timeout
        self.notify = notify
        self.state: Optional[FanoutState] = None
