"""Byzantine-tolerant replicated log: Fast & Robust per slot.

The extension the paper's systems descendants (Mu, uBFT) build: order a
*sequence* of commands among ``n = 2f+1`` replicas, tolerating ``f``
Byzantine ones.  Each log slot runs one full Fast & Robust instance in its
own register namespaces (``cq{slot}``/``neb{slot}``); the broadcast-unit
signatures cover the namespace, so nothing signed for one slot can be
replayed into another.  In the common case every slot commits on the
leader's two-delay fast path.

Replicas drive slots sequentially and apply decided commands to a
deterministic state machine; `ByzantineReplicatedLog` is the pluggable
protocol, `run` the per-replica driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from repro.broadcast.nonequivocating import neb_regions
from repro.consensus.base import ConsensusProtocol
from repro.consensus.cheap_quorum import CheapQuorumConfig, cq_regions
from repro.consensus.fast_robust import FastRobust, FastRobustConfig
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv


#: every slot's Fast & Robust instance: the default leader (p1) with
#: timeouts sized for back-to-back slots
FAST_ROBUST = FastRobustConfig(
    cheap_quorum=CheapQuorumConfig(leader_timeout=25.0, unanimity_timeout=40.0)
)


def slot_namespaces(slot: int) -> Tuple[str, str]:
    """The cheap-quorum and broadcast register namespaces of log slot
    *slot*."""
    return (f"cq{slot}", f"neb{slot}")


def slot_regions(n_processes: int, leader: int, n_slots: int) -> List[RegionSpec]:
    """The regions of slots ``0 .. n_slots-1`` of one log, slot by slot."""
    regions: List[RegionSpec] = []
    for slot in range(n_slots):
        cq_ns, neb_ns = slot_namespaces(slot)
        regions.extend(cq_regions(n_processes, leader, namespace=cq_ns))
        regions.extend(neb_regions(range(n_processes), namespace=neb_ns))
    return regions


@dataclass
class ByzantineLogConfig:
    """Configuration of the Byzantine replicated log."""

    n_slots: int = 3


#: deterministic no-op command replicas propose when they have nothing queued
NOOP = ("noop",)


class ByzantineReplicatedLog(ConsensusProtocol):
    """Multi-shot weak Byzantine agreement over Fast & Robust instances.

    ``scripts`` maps pid -> list of commands that replica wants ordered;
    shorter scripts are padded with no-ops.  Each replica's ``apply_fn``
    receives ``(slot, decided_command)`` in slot order.
    """

    name = "byzantine-log"

    def __init__(
        self,
        scripts: dict,
        config: Optional[ByzantineLogConfig] = None,
        apply_factory: Optional[Callable[[], Callable[[int, Any], None]]] = None,
    ) -> None:
        self.scripts = scripts
        self.config = config or ByzantineLogConfig()
        self.apply_factory = apply_factory
        #: pid -> list of (slot, decided command), for inspection by tests
        self.applied: dict = {}

    # ------------------------------------------------------------------
    def regions(self, n_processes: int, n_memories: int) -> List[RegionSpec]:
        return slot_regions(
            n_processes, FAST_ROBUST.cheap_quorum.leader, self.config.n_slots
        )

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        return [("byz-log", self._drive(env))]

    # ------------------------------------------------------------------
    def _command_for(self, pid: int, slot: int) -> Any:
        script = self.scripts.get(pid, [])
        return script[slot] if slot < len(script) else NOOP

    def _drive(self, env: ProcessEnv) -> Generator:
        pid = int(env.pid)
        log: List[Any] = []
        apply_fn = self.apply_factory() if self.apply_factory else None
        protocol = FastRobust(FAST_ROBUST)
        for slot in range(self.config.n_slots):
            cq_ns, neb_ns = slot_namespaces(slot)
            decided = yield from protocol.run_instance(
                env,
                self._command_for(pid, slot),
                cq_namespace=cq_ns,
                neb_namespace=neb_ns,
                instance=slot,
            )
            log.append(decided)
            if apply_fn is not None:
                apply_fn(slot, decided)
        self.applied[pid] = list(enumerate(log))
        # The whole ordered log is the replica's overall decision: the
        # ledger's default (single-shot) agreement check then certifies
        # that all correct replicas built identical logs.
        env.decide(tuple(log))
        return tuple(log)
