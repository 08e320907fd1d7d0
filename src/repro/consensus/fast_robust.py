"""Fast & Robust (paper Section 4.3, Theorem 4.9, Figure 6).

The headline Byzantine algorithm: run Cheap Quorum; whatever it produces —
a decision or an abort value with certificates — becomes the process's
input to Preferential Paxos, with Definition 3 priorities making any value
decided in Cheap Quorum the *only* value Preferential Paxos can decide
(the Composition Lemma 4.8).  Common case: the leader decides in two
delays with one signature; faults or asynchrony fall back to the
``n >= 2f_P + 1`` slow path.

Every process joins Preferential Paxos even if it decided in Cheap Quorum
(its vote is needed for the setup quorum); the metrics ledger checks that
its second decision matches the first, which is exactly Lemma 4.8's claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional, Tuple

from repro.broadcast.nonequivocating import neb_regions
from repro.consensus.base import ConsensusProtocol
from repro.consensus.cheap_quorum import (
    CheapQuorum,
    CheapQuorumConfig,
    CqOutcome,
    cq_regions,
)
from repro.consensus.messages import SetupValue
from repro.consensus.preferential_paxos import (
    PRIORITY_BARE,
    PRIORITY_LEADER_SIGNED,
    PRIORITY_PROOF,
    PreferentialPaxosConfig,
    PreferentialPaxosNode,
)
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv
from repro.trusted.transport import TrustedTransport
from repro.trusted.validators import PaxosConformance


@dataclass
class FastRobustConfig:
    cheap_quorum: CheapQuorumConfig = field(default_factory=CheapQuorumConfig)
    #: ablation switch: skip Cheap Quorum entirely and run the backup path
    #: alone (every process enters Preferential Paxos with its bare input)
    enable_fast_path: bool = True


def setup_value_from(outcome: CqOutcome) -> SetupValue:
    """Map a Cheap Quorum outcome to its Definition-3 setup value."""
    if outcome.proof is not None:
        return SetupValue(
            value=outcome.value, priority=PRIORITY_PROOF, payload=outcome.proof
        )
    if outcome.leader_signed is not None:
        return SetupValue(
            value=outcome.value,
            priority=PRIORITY_LEADER_SIGNED,
            payload=outcome.leader_signed,
        )
    return SetupValue(value=outcome.value, priority=PRIORITY_BARE)


class FastRobust(ConsensusProtocol):
    """The composed 2-deciding weak Byzantine agreement algorithm."""

    name = "fast-robust"

    def __init__(self, config: Optional[FastRobustConfig] = None) -> None:
        self.config = config or FastRobustConfig()

    def regions(self, n_processes: int, n_memories: int) -> List[RegionSpec]:
        leader = self.config.cheap_quorum.leader
        return list(cq_regions(n_processes, leader) + neb_regions(range(n_processes)))

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        return [("fast-robust", self.run_instance(env, value))]

    def run_instance(
        self,
        env: ProcessEnv,
        value: Any,
        cq_namespace: str = "cq",
        neb_namespace: str = "neb",
        instance: Any = None,
    ) -> Generator:
        """One full Fast & Robust agreement instance; returns the decision.

        Multi-shot callers (the Byzantine replicated log) run one instance
        per slot with distinct namespaces and instance tags; single-shot
        callers use the defaults.
        """
        if self.config.enable_fast_path:
            cheap = CheapQuorum(
                env, self.config.cheap_quorum, namespace=cq_namespace,
                instance=instance,
            )
            outcome = yield from cheap.run(value)
        else:
            outcome = CqOutcome(decided=False, panicked=True, value=value)

        # Phase 2: Preferential Paxos seeded with the Cheap Quorum outcome.
        quorum = env.n_processes // 2 + 1
        transport = TrustedTransport(
            env, validator=PaxosConformance(quorum), namespace=neb_namespace
        )
        node = PreferentialPaxosNode(
            env,
            transport,
            setup_value_from(outcome),
            # the Cheap Quorum leader defines Preferential Paxos' M class
            PreferentialPaxosConfig(leader=self.config.cheap_quorum.leader),
            instance=instance,
        )
        yield env.spawn(
            f"neb-daemon-{neb_namespace}", transport.neb.delivery_daemon(),
            daemon=True,
        )
        yield env.spawn(f"pp-pump-{neb_namespace}", node.pump(), daemon=True)
        decided = yield from node.run()
        return decided
