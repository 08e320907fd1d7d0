"""Byzantine strategies.

A strategy is a drop-in replacement for a protocol's task list on a faulty
process.  Strategies get the same :class:`ProcessEnv` as honest code —
the kernel, memories and signature authority enforce everything they must
not be able to do (forge, spoof, write without permission); everything
else is fair game.
"""

from __future__ import annotations

from typing import Any, Generator, List, Tuple

from repro.broadcast.nonequivocating import NAMESPACE as NEB_NS
from repro.broadcast.nonequivocating import make_unit
from repro.consensus.ballots import Ballot
from repro.consensus.cheap_quorum import LEADER_PREFIX, LEADER_REGION
from repro.consensus.messages import Accept, Accepted, Decision, Prepare, Promise
from repro.mem.operations import WriteOp
from repro.mem.permissions import Permission
from repro.sim.environment import ProcessEnv


class ByzantineStrategy:
    """Base: what tasks a Byzantine process runs instead of the protocol."""

    name = "byzantine"

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        raise NotImplementedError


class SilentByzantine(ByzantineStrategy):
    """Does nothing at all — indistinguishable from an initial crash."""

    name = "silent"

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        def idle() -> Generator:
            while True:
                yield env.sleep(1000.0)

        return [("byz-silent", idle())]


class EquivocatingBroadcaster(ByzantineStrategy):
    """Attacks non-equivocating broadcast: writes *different* signed units
    for the same sequence number to different memory replicas, trying to
    make honest processes deliver conflicting messages."""

    name = "neb-equivocator"

    def __init__(self, value_a: Any = "evil-A", value_b: Any = "evil-B") -> None:
        self.value_a = value_a
        self.value_b = value_b

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        return [("byz-equivocator", self._run(env))]

    def _run(self, env: ProcessEnv) -> Generator:
        me = int(env.pid)
        unit_a = make_unit(env, 1, self.value_a)
        unit_b = make_unit(env, 1, self.value_b)
        region = f"{NEB_NS}:{me}"
        key = (NEB_NS, me, 1, me)
        # Split the replicas: half see A, half see B.
        write_a = WriteOp(region=region, key=key, value=unit_a)
        write_b = WriteOp(region=region, key=key, value=unit_b)
        yield env.op_fanout(
            ((mid, write_b if int(mid) % 2 else write_a) for mid in env.memories),
            need=env.n_memories,
        )
        while True:
            yield env.sleep(1000.0)


class PaxosValueLiar(ByzantineStrategy):
    """Attacks Robust Backup: emits Paxos messages that misreport protocol
    state (an Accept without promises, a fabricated Decision).  The
    conformance validator must drop it."""

    name = "paxos-liar"

    def __init__(self, fake_value: Any = "forged-decision") -> None:
        self.fake_value = fake_value

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        return [("byz-liar", self._run(env))]

    def _run(self, env: ProcessEnv) -> Generator:
        from repro.trusted.transport import TrustedTransport

        transport = TrustedTransport(env)  # liars do not validate others
        yield env.spawn("byz-neb", transport.neb.delivery_daemon(), daemon=True)
        ballot = Ballot(round=99, pid=int(env.pid))
        # An Accept without any promise quorum behind it:
        yield from transport.t_broadcast(Accept(ballot=ballot, value=self.fake_value))
        yield env.sleep(5.0)
        # A Decision out of thin air:
        yield from transport.t_broadcast(Decision(value=self.fake_value))
        while True:
            yield env.sleep(1000.0)


class CheapQuorumEquivocatorLeader(ByzantineStrategy):
    """A Byzantine Cheap Quorum *leader* that writes different signed values
    to different replicas of the leader region, hoping to split followers."""

    name = "cq-equivocator-leader"

    def __init__(self, value_a: Any = "split-A", value_b: Any = "split-B") -> None:
        self.value_a = value_a
        self.value_b = value_b

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        return [("byz-cq-leader", self._run(env))]

    def _run(self, env: ProcessEnv) -> Generator:
        key = (*LEADER_PREFIX, "value")
        signed_a = env.sign(self.value_a)
        signed_b = env.sign(self.value_b)
        write_a = WriteOp(region=LEADER_REGION, key=key, value=signed_a)
        write_b = WriteOp(region=LEADER_REGION, key=key, value=signed_b)
        yield env.op_fanout(
            ((mid, write_b if int(mid) % 2 else write_a) for mid in env.memories),
            need=env.n_memories,
        )
        while True:
            yield env.sleep(1000.0)


class SlotRewriter(ByzantineStrategy):
    """Broadcasts a valid value, waits for some processes to deliver it,
    then *overwrites its own slot* with a different signed value.

    This attacks the window Algorithm 2's witnessing step exists for: late
    readers must detect the earlier readers' witness copies and refuse to
    deliver the new value — otherwise two correct processes would deliver
    different messages for the same (sender, k).
    """

    name = "slot-rewriter"

    def __init__(self, first: Any = "first", second: Any = "second",
                 rewrite_after: float = 30.0) -> None:
        self.first = first
        self.second = second
        self.rewrite_after = rewrite_after

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        return [("byz-rewriter", self._run(env))]

    def _run(self, env: ProcessEnv) -> Generator:
        me = int(env.pid)
        region = f"{NEB_NS}:{me}"
        key = (NEB_NS, me, 1, me)
        first = WriteOp(region=region, key=key, value=make_unit(env, 1, self.first))
        yield env.fanout_to_all(first, need=env.n_memories)
        yield env.sleep(self.rewrite_after)  # let early readers deliver
        second = WriteOp(region=region, key=key, value=make_unit(env, 1, self.second))
        yield env.fanout_to_all(second, need=env.n_memories)
        while True:
            yield env.sleep(1000.0)


class ProofForger(ByzantineStrategy):
    """Joins the Fast & Robust backup phase claiming top priority.

    T-broadcasts a ``SetupValue`` tagged as proof-class (Definition 3's T)
    whose certificate is garbage — a self-assembled "unanimity proof" with
    too few signers.  Honest receivers must re-verify and demote it to bare
    priority, so it can never outrank an honestly certified value.
    """

    name = "proof-forger"

    def __init__(self, forged_value: Any = "FORGED") -> None:
        self.forged_value = forged_value

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        return [("byz-forger", self._run(env))]

    def _run(self, env: ProcessEnv) -> Generator:
        from repro.consensus.messages import SetupValue
        from repro.crypto.proofs import assemble_proof
        from repro.trusted.transport import TrustedTransport

        transport = TrustedTransport(env)
        yield env.spawn("byz-neb", transport.neb.delivery_daemon(), daemon=True)
        # A "proof" signed only by ourselves — one signer, not n.
        inner = env.sign(self.forged_value)
        copies = (env.sign(inner),)
        fake_proof = assemble_proof(env.authority, env.key, inner, copies)
        yield from transport.t_broadcast(
            SetupValue(value=self.forged_value, priority=0, payload=fake_proof)
        )
        while True:
            yield env.sleep(1000.0)


class PermissionAbuser(ByzantineStrategy):
    """Tries every illegal permission grab/change it can think of; the
    ``legalChange`` policies must turn them all into no-ops."""

    name = "permission-abuser"

    def __init__(self, region: str = LEADER_REGION) -> None:
        self.region = region

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        return [("byz-perm", self._run(env))]

    def _run(self, env: ProcessEnv) -> Generator:
        me = int(env.pid)
        everyone = range(env.n_processes)
        grabs = [
            Permission.exclusive_writer(me, everyone),
            Permission.open(everyone),
            Permission(readwrite=frozenset({me})),
        ]
        while True:
            for grab in grabs:
                for mid in env.memories:
                    yield from env.change_permission(mid, self.region, grab)
            yield env.sleep(5.0)
