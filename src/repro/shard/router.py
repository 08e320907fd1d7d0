"""The client-facing frontend: route commands to shards, match replies.

Each process hosts one :class:`ShardFrontend`.  A client submits a
``KVCommand`` carrying a ``(client, request_id)`` identity; the frontend
hashes the key to its owning shard and routes it down one of two planes:

* the **command plane** (:meth:`ShardFrontend.submit`) — every write, and
  reads in ``consensus`` mode: hand the command to the shard's leader (a
  direct enqueue when the leader is local, a request message otherwise)
  and park until the *local* replica of the owning shard applies it — the
  standard "client attached to a replica" SMR completion rule.  Requests
  a frontend routes to one remote leader on one topic at one instant
  share one message, a :class:`RequestBundle`;
* the **read plane** (:meth:`ShardFrontend.get`) — non-consensus reads,
  routed by mode: ``leader`` sends the get to the shard leader, which
  serves it from local applied state under a one-sided permission-fence
  probe; ``quorum`` reads the commit watermark and entries directly from
  a majority of memories with no leader involvement; ``local`` serves
  from this process's own replica once it has caught up to the client's
  session floor.  The service side of all three is the
  :class:`~repro.shard.reads.ReadPlane`.  Every read-plane refusal (fence
  lost, quorum unassemblable, region fenced away mid-reconfiguration)
  falls back to the consensus plane — reads degrade to slower, never to
  stale.

Replies of both planes are matched purely by identity in one place,
:meth:`ShardFrontend.complete`, so retries are safe: the state machine
deduplicates ``(client, request_id)`` and re-returns the original
result, and a late second completion for an already-answered request is
dropped here.  Completions carry the **applied watermark** (the log slot
the local replica had applied when it answered); a :class:`ReadSession`
accumulates those per shard as the client's consistency floor —
read-your-writes and monotonic reads for the session, and the runtime
staleness tripwire for the linearizable modes (a reply below the session
floor is recorded as a staleness violation, which must never happen).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.environment import ProcessEnv
from repro.smr.kv import KVCommand
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.reads import ReadPlane

#: the four read modes a get can be routed by
READ_CONSENSUS = "consensus"  #: commit the get through the log (seed behaviour)
READ_LEADER = "leader"        #: leader-local state under a permission fence
READ_QUORUM = "quorum"        #: one-sided majority read, no leader involvement
READ_LOCAL = "local"          #: own replica at the client's session floor

READ_MODES = (READ_CONSENSUS, READ_LEADER, READ_QUORUM, READ_LOCAL)

#: one-sided quorum read attempts before falling back to consensus
QUORUM_READ_ATTEMPTS = 3


def request_topic(shard: int) -> str:
    """The message topic a shard's leader accepts client commands on."""
    return f"shard-req-g{shard}"


def read_topic(shard: int) -> str:
    """The message topic a shard's leader accepts fenced reads on."""
    return f"shard-read-g{shard}"


def read_reply_topic(pid: int) -> str:
    """The topic a process's reply pump receives remote read replies on."""
    return f"shard-rdres-p{int(pid) + 1}"


class ReadSession:
    """Per-client consistency floors: shard -> highest watermark seen.

    Carried by the client across requests; every completion (write or
    read) raises the floor of the shard that served it.  ``local``-mode
    reads wait for the local replica to reach the floor (read-your-writes
    without any leader or quorum traffic); the linearizable modes use it
    as a tripwire — they must always come back at or above it.
    """

    __slots__ = ("floors",)

    def __init__(self) -> None:
        self.floors: Dict[int, int] = {}

    def floor(self, shard: int) -> int:
        """The lowest applied watermark this session may accept of *shard*."""
        return self.floors.get(shard, -1)

    def note(self, shard: int, watermark: Optional[int]) -> None:
        """Raise the shard's floor to *watermark* (floors never regress)."""
        if watermark is not None and watermark > self.floors.get(shard, -1):
            self.floors[shard] = watermark


class RequestBundle:
    """The requests one frontend sends one shard leader, on one topic, at
    one virtual instant: one message however many ride it.

    The first request posts the bundle; a request routed to the same
    (leader, topic) later in the same instant joins it instead of paying
    its own delivery event and acceptor wake, unless the acceptor has
    already ``taken`` it (a zero-delay link delivers within the instant).
    The envelope carrying it is the whole unit the network sees — one
    delay draw, one delivery, and a drop, duplicate or partition hits
    every request aboard.  ``ctxs`` is None until a request joins with an
    observability runtime attached; it then holds each request's sending
    trace context (None for the first, which rides the message span), so
    the leader enqueues every command under its own.
    """

    __slots__ = ("commands", "ctxs", "at", "taken")

    def __init__(self, command: KVCommand, at: float) -> None:
        self.commands = [command]
        self.ctxs: Optional[List[Any]] = None
        self.at = at
        self.taken = False

    def join(self, command: KVCommand, ctx: Any) -> None:
        """Add *command* (sent under trace context *ctx*) to the bundle."""
        self.commands.append(command)
        if ctx is not None or self.ctxs is not None:
            if self.ctxs is None:
                self.ctxs = [None] * (len(self.commands) - 1)
            self.ctxs.append(ctx)


class _Pending:
    """One in-flight request on this process."""

    __slots__ = ("gate", "done", "failed", "result", "watermark", "shard")

    def __init__(self, gate: Any) -> None:
        self.gate = gate
        self.done = False
        #: a read server explicitly refused (fence lost): fall back now
        self.failed = False
        self.result: Any = None
        self.watermark: Optional[int] = None
        self.shard: Optional[int] = None


class ShardFrontend:
    """Per-process request router for a sharded replicated service."""

    def __init__(
        self,
        env: ProcessEnv,
        shard_for: Callable[[str], int],
        leader_of: Callable[[int], int],
        local_submit: Callable[[int, KVCommand], None],
        retry_timeout: float = 100.0,
        reads: Optional["ReadPlane"] = None,
    ) -> None:
        self.env = env
        self.shard_for = shard_for
        self.leader_of = leader_of
        self.local_submit = local_submit
        self.retry_timeout = retry_timeout
        #: the service's read plane; None rides every get on the command plane
        self.reads = reads
        self.pending: Dict[Tuple[Any, Any], _Pending] = {}
        self.retries = 0
        self._topics: Dict[int, str] = {}  # shard -> request topic (cached)
        self._read_topics: Dict[int, str] = {}  # shard -> read topic (cached)
        #: (leader, topic) -> the last bundle posted there
        self._bundles: Dict[Tuple[int, str], RequestBundle] = {}

    # ------------------------------------------------------------------
    # the command plane
    # ------------------------------------------------------------------
    def submit(
        self,
        command: KVCommand,
        shard: Optional[int] = None,
        session: Optional[ReadSession] = None,
    ) -> Generator:
        """Route *command* to its shard and park until it is applied here.

        Returns the command's state-machine result.  Resends after
        ``retry_timeout`` delays without an answer; dedup at the state
        machine makes resends idempotent.

        Both the owning shard and its leader are re-resolved on every
        retry: that is what carries in-flight requests across an elastic
        cutover — a command stalled against a shard that sealed (or a
        leader that was deposed) lands on the new-epoch owner on its next
        resend, and dedup keeps the whole affair at-most-once.

        Pass *shard* to pin the command to an explicit group, bypassing
        key routing — the migrator streams moved keys to their *future*
        owner (and commits barrier probes at the old one) while client
        routing still points at the old ring.  Pass *session* to raise
        the client's consistency floor with the completion's watermark.
        """
        obs = self.env.obs
        phase = obs and obs.phase("client.submit", key=command.key, op=command.op)
        entry = self._register(command)
        try:
            yield from self._route_loop(command, entry, pinned=shard)
        finally:
            if phase:
                phase.finish(shard=entry.shard)
        del self.pending[command.identity]
        if session is not None and entry.shard is not None:
            session.note(entry.shard, entry.watermark)
        return entry.result

    # ------------------------------------------------------------------
    # shared routing machinery
    # ------------------------------------------------------------------
    def _register(self, command: KVCommand) -> _Pending:
        token = command.identity
        if token is None:
            raise ValueError(
                "routed commands need client and request_id for reply matching"
            )
        if token in self.pending:
            raise ValueError(f"request {token} already in flight")
        entry = _Pending(gate=self.env.new_gate("reply"))
        self.pending[token] = entry
        return entry

    def _route_loop(
        self,
        command: KVCommand,
        entry: _Pending,
        pinned: Optional[int] = None,
        read_plane: bool = False,
    ) -> Generator:
        """The retry loop both planes share: (re)resolve the owning shard
        and its leader each attempt — which is what carries in-flight
        requests across an elastic cutover — hand the command over (a
        direct enqueue when the leader is local, else :meth:`_post`) and
        park on the entry's gate until an answer lands or the resend
        timer fires.  On the read plane a fence NAK (``entry.failed``)
        also exits, so the caller can fall back; the command plane
        ignores the flag — a stray late NAK must never abort a submit.
        """
        env = self.env
        obs = env.obs
        first = True
        attempt = 0
        while not entry.done and not (read_plane and entry.failed):
            if not first:
                self.retries += 1
            first = False
            attempt += 1
            shard = pinned if pinned is not None else self.shard_for(command.key)
            leader = self.leader_of(shard)
            phase = obs and obs.phase(
                "router.attempt", shard=shard, leader=leader, n=attempt
            )
            try:
                if leader == int(env.pid):
                    if read_plane:
                        self.reads.submit(shard, command, leader)
                    else:
                        self.local_submit(shard, command)
                else:
                    if read_plane:
                        topic = self._read_topics.get(shard)
                        if topic is None:
                            topic = self._read_topics[shard] = read_topic(shard)
                    else:
                        topic = self._topics.get(shard)
                        if topic is None:
                            topic = self._topics[shard] = request_topic(shard)
                    send = self._post(leader, topic, command)
                    if send is not None:
                        yield send
                yield env.gate_wait(entry.gate, timeout=self.retry_timeout)
            finally:
                if phase:
                    phase.finish(answered=entry.done)

    def _post(self, leader: int, topic: str, command: KVCommand):
        """Hand *command* to a remote *leader* on *topic*: join the bundle
        posted there this instant if the acceptor has not taken it yet
        (returns None), else the send effect of a new bundle."""
        env = self.env
        now = env.now
        key = (leader, topic)
        bundle = self._bundles.get(key)
        if bundle is not None and bundle.at == now and not bundle.taken:
            obs = env.obs
            bundle.join(command, obs and obs.current_task.ctx)
            return None
        self._bundles[key] = bundle = RequestBundle(command, now)
        # ProcessId is a NewType over int: skip the wrap on the
        # per-request path (hash/eq are identical).
        return env.send(leader, bundle, topic=topic)

    # ------------------------------------------------------------------
    # the read plane
    # ------------------------------------------------------------------
    def get(
        self,
        command: KVCommand,
        mode: Optional[str] = None,
        session: Optional[ReadSession] = None,
    ) -> Generator:
        """Serve a read by *mode* (service default when None).

        Non-``get`` commands, disabled read paths, ``consensus`` mode and
        unreadable shards (retired or unknown ids) all ride the command
        plane unchanged.  Every other path answers without a
        consensus instance and falls back to the command plane rather
        than ever returning state below the session floor.
        """
        if mode is not None and mode not in READ_MODES:
            raise ValueError(f"unknown read mode {mode!r}; pick one of {READ_MODES}")
        reads = self.reads
        if reads is None:
            if mode is not None and mode != READ_CONSENSUS:
                # a silent downgrade to consensus would let a mode-comparison
                # benchmark (or a misassembled service) measure the wrong
                # path without noticing — refuse loudly instead
                raise ConfigurationError(
                    f"read mode {mode!r} requested but this service's read "
                    "plane is disabled (ShardConfig.read_mode='consensus')"
                )
            result = yield from self.submit(command, session=session)
            return result
        if mode is None:
            mode = reads.default_mode
        if (
            command.op != "get"
            or mode == READ_CONSENSUS
            or not reads.readable(self.shard_for(command.key))
        ):
            result = yield from self.submit(command, session=session)
            return result
        # the consistency floor is captured at ISSUE time: a reply must
        # cover everything that completed before this read began, while
        # overlapping reads of one session (an open-loop client) may
        # legally complete out of watermark order
        floors = dict(session.floors) if session is not None else None
        obs = self.env.obs
        phase = obs and obs.phase("client.get", key=command.key, mode=mode)
        try:
            if mode == READ_LEADER:
                result = yield from self._leader_get(command, session, floors)
            elif mode == READ_QUORUM:
                result = yield from self._quorum_get(command, session, floors)
            else:  # READ_LOCAL
                result = yield from self._local_get(command, session, floors)
        finally:
            if phase:
                phase.finish()
        return result

    def _finish_read(
        self,
        session: Optional[ReadSession],
        floors: Optional[Dict[int, int]],
        shard: int,
        mode: str,
        watermark: Optional[int],
    ) -> None:
        """Per-read bookkeeping: the staleness tripwire, floor, counters.

        *floors* is the session's floor map as of the read's issue
        instant — completions that raced ahead of this (concurrent) read
        raised the live floors legally and must not trip the wire.
        """
        ledger = self.reads.ledger
        if session is not None:
            floor = floors.get(shard, -1) if floors is not None else -1
            if watermark is not None and watermark < floor:
                ledger.record_stale_read(
                    f"{mode} read of shard g{shard} answered at watermark "
                    f"{watermark} below the session's issue-time floor {floor}"
                )
            session.note(shard, watermark)
        ledger.count_read(shard, mode)

    def _fall_back(
        self,
        command: KVCommand,
        session: Optional[ReadSession],
        shard: int,
        mode: str,
    ) -> Generator:
        """The read plane refused: answer through the command plane."""
        self.reads.ledger.count_read_fallback(shard, mode)
        result = yield from self.submit(command, session=session)
        return result

    def _leader_get(
        self,
        command: KVCommand,
        session: Optional[ReadSession],
        floors: Optional[Dict[int, int]],
    ) -> Generator:
        """Permission-fenced leader read: ask the shard leader to serve
        from its applied state under a live exclusive-write grant.

        A NAK reply (the leader's fence probe failed — revocation storm,
        takeover in progress, deposed by an epoch) falls back to the
        command plane immediately; silence (crash, partition) retries
        with the shard and leader re-resolved, exactly like a command.
        """
        entry = self._register(command)
        yield from self._route_loop(command, entry, read_plane=True)
        del self.pending[command.identity]
        if entry.done:
            served = (
                entry.shard
                if entry.shard is not None
                else self.shard_for(command.key)
            )
            self._finish_read(session, floors, served, READ_LEADER, entry.watermark)
            return entry.result
        result = yield from self._fall_back(
            command, session, self.shard_for(command.key), READ_LEADER
        )
        return result

    def _quorum_get(
        self,
        command: KVCommand,
        session: Optional[ReadSession],
        floors: Optional[Dict[int, int]],
    ) -> Generator:
        """One-sided quorum read against the owning shard's memories."""
        env = self.env
        for attempt in range(QUORUM_READ_ATTEMPTS):
            shard = self.shard_for(command.key)  # re-resolve across cutovers
            outcome = yield from self.reads.quorum_read(int(env.pid), shard, command)
            if outcome is not None:
                value, watermark = outcome
                self._finish_read(session, floors, shard, READ_QUORUM, watermark)
                return value
            if attempt + 1 < QUORUM_READ_ATTEMPTS:
                yield env.sleep(
                    self.retry_timeout * (attempt + 1) / QUORUM_READ_ATTEMPTS
                )
        result = yield from self._fall_back(command, session, shard, READ_QUORUM)
        return result

    def _local_get(
        self,
        command: KVCommand,
        session: Optional[ReadSession],
        floors: Optional[Dict[int, int]],
    ) -> Generator:
        """Session-consistent local read from this process's own replica."""
        env = self.env
        shard = self.shard_for(command.key)
        floor = floors.get(shard, -1) if floors is not None else -1
        outcome = yield from self.reads.local_read(int(env.pid), shard, command, floor)
        if outcome is None:  # not a replica of that shard here
            result = yield from self._fall_back(command, session, shard, READ_LOCAL)
            return result
        value, watermark = outcome
        self._finish_read(session, floors, shard, READ_LOCAL, watermark)
        return value

    # ------------------------------------------------------------------
    # completion (called by the service as replies materialise)
    # ------------------------------------------------------------------
    def complete(
        self,
        command: Any,
        result: Any,
        watermark: Optional[int] = None,
        shard: Optional[int] = None,
        ok: bool = True,
    ) -> None:
        """Reply matching, for both planes: called as the local replica
        applies commands, and with a fenced leader read's answer.

        *watermark* is the applied slot the answer reflects — what raises
        the client's session floor.  ``ok=False`` is a read server's fence
        NAK: it only flags the pending entry, and the parked client falls
        back to the command plane itself, so a late NAK can never complete
        a request with a refusal.
        """
        if not isinstance(command, KVCommand):
            return
        token = command.identity
        if token is None:
            return
        entry = self.pending.get(token)
        if entry is None or entry.done:
            return  # not ours, or a duplicate application of an answered request
        if ok:
            entry.done = True
            entry.result = result
            entry.watermark = watermark
            entry.shard = shard
        else:
            entry.failed = True
        self.env.signal(entry.gate)
