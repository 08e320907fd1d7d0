"""Preferential Paxos (paper Section 4.3, Algorithm 8, Lemma 4.7).

A wrapper around Robust Backup(Paxos) with a set-up phase: every process
T-broadcasts its input with a priority tag, waits for ``n - f`` inputs and
adopts the highest-priority one.  Because any ``n - f`` sample misses at
most ``f`` inputs, every process adopts one of the top ``f + 1`` priority
inputs, and Paxos validity then confines the decision to those.

Priorities follow Definition 3 (smaller number = higher priority):

* **0 (T)** — the value carries a correct unanimity proof;
* **1 (M)** — the value carries the Cheap Quorum leader's signature;
* **2 (B)** — everything else.

Tags are *claims*: every receiver re-verifies the attached certificate and
demotes the value if it does not check out, so a Byzantine process cannot
promote its own value by lying about its class.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.consensus.base import TrustedAdapter, wait_until
from repro.consensus.messages import SetupValue
from repro.consensus.paxos import PaxosConfig, PaxosNode
from repro.crypto.proofs import verify_proof
from repro.crypto.signatures import Signed, canonical_bytes
from repro.sim.environment import ProcessEnv
from repro.trusted.transport import TrustedTransport
from repro.types import ProcessId

PRIORITY_PROOF = 0
PRIORITY_LEADER_SIGNED = 1
PRIORITY_BARE = 2
#: timings of the embedded Paxos (virtual delays), RobustBackup's values:
#: every message is a non-equivocating broadcast, so rounds are slower
ROUND_TIMEOUT = 60.0
RETRY_BACKOFF = 10.0
LEADER_POLL = 3.0


def effective_priority(
    env: ProcessEnv, sv: SetupValue, leader: ProcessId, n_processes: int
) -> int:
    """Re-verify a setup value's claimed priority (Definition 3 classes)."""
    if sv.priority <= PRIORITY_PROOF:
        proof = verify_proof(env.authority, sv.payload, n_processes)
        if (
            proof is not None
            and isinstance(proof.value, Signed)
            and env.valid(leader, proof.value)
            and proof.value.payload == sv.value
        ):
            return PRIORITY_PROOF
    if sv.priority <= PRIORITY_LEADER_SIGNED:
        cert = sv.payload if sv.priority == PRIORITY_LEADER_SIGNED else None
        if (
            isinstance(cert, Signed)
            and env.valid(leader, cert)
            and cert.payload == sv.value
        ):
            return PRIORITY_LEADER_SIGNED
    return PRIORITY_BARE


def _rank(env: ProcessEnv, sv: SetupValue, leader: ProcessId, n: int) -> Tuple:
    """Deterministic total order: verified priority, then value digest."""
    digest = hashlib.sha256(canonical_bytes(sv.value)).hexdigest()
    return (effective_priority(env, sv, leader, n), digest)


@dataclass
class PreferentialPaxosConfig:
    #: the Cheap Quorum leader whose signature defines the M class
    leader: int = 0


class PreferentialPaxosNode:
    """One process's Preferential Paxos endpoint over a trusted transport."""

    def __init__(
        self,
        env: ProcessEnv,
        transport: TrustedTransport,
        setup_value: SetupValue,
        config: Optional[PreferentialPaxosConfig] = None,
        instance: Any = None,
    ) -> None:
        self.env = env
        self.transport = transport
        self.setup_value = setup_value
        self.config = config or PreferentialPaxosConfig()
        self.instance = instance
        # setup waits for n - f inputs, f = the most Byzantine processes
        # a majority tolerates
        self.needed = env.n_processes - (env.n_processes - 1) // 2
        paxos_config = PaxosConfig(
            quorum=env.n_processes // 2 + 1,
            round_timeout=ROUND_TIMEOUT,
            retry_backoff=RETRY_BACKOFF,
            leader_poll=LEADER_POLL,
        )
        self.node = PaxosNode(
            env,
            TrustedAdapter(transport),
            value=None,
            config=paxos_config,
            instance=instance,
        )
        self.inputs: Dict[ProcessId, SetupValue] = {}
        self.adopted: Optional[SetupValue] = None

    @property
    def decided(self) -> bool:
        return self.node.decided

    @property
    def decided_value(self) -> Any:
        return self.node.decided_value

    # ------------------------------------------------------------------
    def pump(self) -> Generator:
        """Trusted receive loop: routes setup values and Paxos traffic."""
        while True:
            delivered = yield from self.transport.t_recv(timeout=None)
            if delivered is None:
                continue
            sender = ProcessId(delivered.sender)
            message = delivered.message
            if isinstance(message, SetupValue):
                self.inputs.setdefault(sender, message)
                self.env.pulse(self.node.wake)
            else:
                yield from self.node._dispatch(sender, message)

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        """Set-up phase, then Robust Backup(Paxos) (Algorithm 8)."""
        env = self.env
        yield from self.transport.t_broadcast(self.setup_value)
        yield from wait_until(
            env,
            self.node.wake,
            lambda: len(self.inputs) >= self.needed or self.decided,
            timeout=None,
        )
        if self.decided:
            return self.decided_value
        candidates = list(self.inputs.values())
        leader = ProcessId(self.config.leader)
        best = min(
            candidates, key=lambda sv: _rank(env, sv, leader, env.n_processes)
        )
        self.adopted = best
        self.node.value = best.value
        yield from self.node.proposer()
        return self.decided_value
