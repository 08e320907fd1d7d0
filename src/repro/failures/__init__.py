"""Failure injection: crash schedules and Byzantine strategies."""

from repro.failures.byzantine import (
    ByzantineStrategy,
    CheapQuorumEquivocatorLeader,
    EquivocatingBroadcaster,
    PaxosValueLiar,
    PermissionAbuser,
    ProofForger,
    SilentByzantine,
    SlotRewriter,
)
from repro.failures.script import FaultScript
from repro.sim.faults import LinkFault

__all__ = [
    "ByzantineStrategy",
    "CheapQuorumEquivocatorLeader",
    "EquivocatingBroadcaster",
    "FaultScript",
    "LinkFault",
    "PaxosValueLiar",
    "PermissionAbuser",
    "ProofForger",
    "SilentByzantine",
    "SlotRewriter",
]
