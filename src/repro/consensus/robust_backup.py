"""Robust Backup (paper Definition 2, Theorems 4.2/4.4).

``RobustBackup(A)`` is the crash-tolerant algorithm ``A`` with every send
and receive replaced by T-send/T-receive over non-equivocating broadcast.
With ``A`` = Paxos this yields weak Byzantine agreement with
``n >= 2f_P + 1`` processes and ``m >= 2f_M + 1`` memories — the paper's
"slow but always safe" half.

The substitution is literal here: :class:`~repro.consensus.paxos.PaxosNode`
is instantiated over a :class:`~repro.consensus.base.TrustedAdapter` instead
of a :class:`~repro.consensus.base.DirectTransport`, with the
:class:`~repro.trusted.validators.PaxosConformance` validator enforcing that
Byzantine senders can only emit messages a correct-but-crashy Paxos process
could send.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from repro.broadcast.nonequivocating import neb_regions
from repro.consensus.base import ConsensusProtocol, TrustedAdapter
from repro.consensus.paxos import PaxosConfig, PaxosNode
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv
from repro.trusted.transport import TrustedTransport
from repro.trusted.validators import PaxosConformance


class RobustBackup(ConsensusProtocol):
    """Robust Backup(Paxos) as a pluggable protocol."""

    name = "robust-backup"

    def __init__(self, config: Optional[PaxosConfig] = None) -> None:
        self.config = config or PaxosConfig(
            round_timeout=60.0, retry_backoff=10.0, leader_poll=3.0
        )

    def regions(self, n_processes: int, n_memories: int) -> List[RegionSpec]:
        return list(neb_regions(range(n_processes)))

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        quorum = self.config.quorum_for(env.n_processes)
        transport = TrustedTransport(env, validator=PaxosConformance(quorum))
        node = PaxosNode(env, TrustedAdapter(transport), value, config=self.config)
        return [
            ("neb-daemon", transport.neb.delivery_daemon()),
            ("rb-pump", node.pump()),
            ("rb-proposer", node.proposer()),
        ]
