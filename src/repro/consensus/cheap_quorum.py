"""Cheap Quorum (paper Section 4.2, Algorithms 4 and 5).

The Byzantine fast path: with a correct leader, a synchronous network and
no failures, the leader decides after a single replicated register write —
**two delays, one signature**.  Followers replicate the leader's signed
value, assemble *unanimity proofs* (n signed copies) and decide once they
see n valid proofs.  Anything suspicious — timeout, bad signature, a panic
flag, a failed write — sends a process into panic mode: it sets its panic
flag, revokes the leader's write permission (the dynamic-permission step
that makes a concurrently deciding leader impossible to miss), and *aborts*
with the best-certified value it can salvage.  The abort outputs seed
Preferential Paxos in the Fast & Robust composition (Section 4.3).

Decision/abort guarantees implemented here and checked in tests
(Lemmas 4.5, 4.6, B.1-B.6): deciders agree; if p decided v, every aborter
carries v out, with a correct unanimity proof whenever a follower decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Generator, Optional, Tuple

from repro.crypto.proofs import assemble_proof, verify_proof
from repro.crypto.signatures import Signed
from repro.mem.operations import ChangePermissionOp
from repro.mem.permissions import Permission, revoke_only_policy
from repro.mem.regions import RegionSpec
from repro.registers.swmr import ReplicatedRegister, read_many
from repro.sim.environment import ProcessEnv
from repro.types import OpStatus, is_bottom

LEADER_REGION = "cq:leader"
LEADER_PREFIX = ("cqL",)


@dataclass
class CheapQuorumConfig:
    leader: int = 0
    #: how long a follower waits for the leader's value
    leader_timeout: float = 30.0
    #: how long a follower waits for unanimity (copies, then proofs)
    unanimity_timeout: float = 60.0
    #: polling cadence for follower read loops
    poll: float = 1.0


@dataclass
class CqOutcome:
    """What one process carries out of Cheap Quorum.

    ``value`` is the raw consensus value.  ``leader_signed`` is the
    leader's signed value when available (Definition 3's M class) and
    ``proof`` the signed unanimity proof when available (T class); both
    are verified again by Preferential Paxos receivers, never trusted.
    """

    decided: bool
    panicked: bool
    value: Any
    leader_signed: Optional[Signed] = None
    proof: Optional[Signed] = None


@lru_cache(maxsize=256)
def cq_regions(
    n_processes: int, leader: int = 0, namespace: str = "cq"
) -> Tuple[RegionSpec, ...]:
    """The leader region (dynamic: revocable) plus one SWMR region per
    process holding its ``Value``, ``Panic`` and ``Proof`` registers.

    *namespace* isolates independent Cheap Quorum instances (multi-shot
    replication runs one per log slot).  The specs are frozen values, so
    they are built once per shape and shared.
    """
    processes = range(n_processes)
    revoked = Permission.read_only(processes)
    leader_region = RegionSpec(
        region_id=f"{namespace}:leader",
        prefix=(f"{namespace}L",),
        initial_permission=Permission.exclusive_writer(leader, processes),
        legal_change=revoke_only_policy(revoked),
    )
    return (leader_region,) + tuple(
        RegionSpec(
            region_id=f"{namespace}:{p}",
            prefix=(namespace, p),
            initial_permission=Permission.swmr(p, processes),
        )
        for p in processes
    )


class CheapQuorum:
    """One process's Cheap Quorum endpoint."""

    def __init__(
        self,
        env: ProcessEnv,
        config: Optional[CheapQuorumConfig] = None,
        namespace: str = "cq",
        instance: Optional[object] = None,
    ):
        self.env = env
        self.config = config or CheapQuorumConfig()
        self.namespace = namespace
        self.instance = instance
        self._leader_region = f"{namespace}:leader"
        self.leader_value = ReplicatedRegister(
            self._leader_region, (f"{namespace}L", "value")
        )

    # ------------------------------------------------------------------
    # register addressing
    # ------------------------------------------------------------------
    def _value(self, p: int) -> ReplicatedRegister:
        ns = self.namespace
        return ReplicatedRegister(f"{ns}:{p}", (ns, p, "value"))

    def _panic(self, p: int) -> ReplicatedRegister:
        ns = self.namespace
        return ReplicatedRegister(f"{ns}:{p}", (ns, p, "panic"))

    def _proof(self, p: int) -> ReplicatedRegister:
        ns = self.namespace
        return ReplicatedRegister(f"{ns}:{p}", (ns, p, "proof"))

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self, value: Any) -> Generator:
        """Run the protocol; returns a :class:`CqOutcome`."""
        if int(self.env.pid) == self.config.leader:
            outcome = yield from self._run_leader(value)
        else:
            outcome = yield from self._run_follower(value)
        return outcome

    # ------------------------------------------------------------------
    # leader (Algorithm 4, lines 1-6)
    # ------------------------------------------------------------------
    def _run_leader(self, value: Any) -> Generator:
        env = self.env
        signed = env.sign(value)
        status = yield from self.leader_value.write(env, signed)
        if status is not OpStatus.ACK:
            outcome = yield from self._panic_mode(value)
            return outcome
        env.decide(value, instance=self.instance)
        # Keep helping followers reach unanimity (the leader also acts as a
        # follower per the paper), but never decide or panic again.
        yield env.spawn("cq-leader-helper", self._helper(signed), daemon=True)
        return CqOutcome(
            decided=True, panicked=False, value=value, leader_signed=signed
        )

    def _helper(self, leader_signed: Signed) -> Generator:
        """The leader's follower duties: copy + proof, best effort."""
        env = self.env
        copy = env.sign(leader_signed)
        yield from self._value(int(env.pid)).write(env, copy)
        deadline = env.now + self.config.unanimity_timeout
        while env.now < deadline:
            copies = yield from self._collect_copies(leader_signed)
            if copies is not None:
                proof = assemble_proof(env.authority, env.key, leader_signed, copies)
                yield from self._proof(int(env.pid)).write(env, proof)
                return
            yield env.sleep(self.config.poll)

    # ------------------------------------------------------------------
    # follower (Algorithm 4, lines 8-23)
    # ------------------------------------------------------------------
    def _run_follower(self, value: Any) -> Generator:
        env = self.env
        leader = self.config.leader
        deadline = env.now + self.config.leader_timeout

        # Loop 1: wait for the leader's signed value (or panic/timeout).
        leader_signed = None
        while True:
            view = yield from read_many(
                env,
                [self.leader_value] + [self._panic(q) for q in env.processes],
            )
            lval = view[self.leader_value.key]
            if any(
                view[(self.namespace, q, "panic")] is True for q in env.processes
            ) or env.now >= deadline:
                outcome = yield from self._panic_mode(value)
                return outcome
            if not is_bottom(lval):
                if env.valid(leader, lval):
                    leader_signed = lval
                    break
                outcome = yield from self._panic_mode(value)  # forged: panic
                return outcome
            yield env.sleep(self.config.poll)

        # Replicate the leader's signed value under our own signature.
        copy = env.sign(leader_signed)
        yield from self._value(int(env.pid)).write(env, copy)

        # Loop 2: wait for n unanimous copies, then publish a proof.
        deadline = env.now + self.config.unanimity_timeout
        my_proof = None
        while True:
            copies = yield from self._collect_copies(leader_signed)
            if copies is not None:
                my_proof = assemble_proof(env.authority, env.key, leader_signed, copies)
                yield from self._proof(int(env.pid)).write(env, my_proof)
                break
            panicked = yield from self._panic_seen()
            if panicked or env.now >= deadline:
                outcome = yield from self._panic_mode(value)
                return outcome
            yield env.sleep(self.config.poll)

        # Loop 3: wait for n valid unanimity proofs, then decide.
        while True:
            proofs = yield from read_many(
                env, [self._proof(q) for q in env.processes]
            )
            valid = 0
            for q in env.processes:
                candidate = proofs[(self.namespace, q, "proof")]
                if is_bottom(candidate):
                    continue
                verified = verify_proof(env.authority, candidate, env.n_processes)
                if verified is not None and verified.value == leader_signed:
                    valid += 1
            if valid >= env.n_processes:
                raw = leader_signed.payload
                env.decide(raw, instance=self.instance)
                return CqOutcome(
                    decided=True,
                    panicked=False,
                    value=raw,
                    leader_signed=leader_signed,
                    proof=my_proof,
                )
            panicked = yield from self._panic_seen()
            if panicked or env.now >= deadline:
                outcome = yield from self._panic_mode(value)
                return outcome
            yield env.sleep(self.config.poll)

    def _collect_copies(self, leader_signed: Signed) -> Generator:
        """All n valid signed copies of the leader's value, or None."""
        env = self.env
        view = yield from read_many(env, [self._value(q) for q in env.processes])
        copies = []
        for q in env.processes:
            candidate = view[(self.namespace, q, "value")]
            if is_bottom(candidate):
                continue
            if env.valid(q, candidate) and candidate.payload == leader_signed:
                copies.append(candidate)
        if len(copies) >= env.n_processes:
            return tuple(copies)
        return None

    def _panic_seen(self) -> Generator:
        env = self.env
        view = yield from read_many(env, [self._panic(q) for q in env.processes])
        return any(view[(self.namespace, q, "panic")] is True for q in env.processes)

    # ------------------------------------------------------------------
    # panic mode (Algorithm 5)
    # ------------------------------------------------------------------
    def _panic_mode(self, my_input: Any) -> Generator:
        env = self.env
        me = int(env.pid)
        yield from self._panic(me).write(env, True)
        # Revoke the leader's write permission on a majority of replicas:
        # after this, a leader write that still reports success must have
        # been serialized before the revocation (uncontended-instantaneous).
        revoked = Permission.read_only(range(env.n_processes))
        revoke = ChangePermissionOp(region=self._leader_region, new_permission=revoked)
        yield env.fanout_to_all(revoke)

        own_value = yield from self._value(me).read(env)
        own_proof = yield from self._proof(me).read(env)
        if not is_bottom(own_value) and isinstance(own_value, Signed):
            leader_signed = own_value.payload
            proof = None
            if not is_bottom(own_proof) and verify_proof(
                env.authority, own_proof, env.n_processes
            ):
                proof = own_proof
            return CqOutcome(
                decided=False,
                panicked=True,
                value=getattr(leader_signed, "payload", leader_signed),
                leader_signed=leader_signed if isinstance(leader_signed, Signed) else None,
                proof=proof,
            )
        lval = yield from self.leader_value.read(env)
        if not is_bottom(lval) and env.valid(self.config.leader, lval):
            return CqOutcome(
                decided=False, panicked=True, value=lval.payload, leader_signed=lval
            )
        return CqOutcome(decided=False, panicked=True, value=my_input)
