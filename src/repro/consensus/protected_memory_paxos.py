"""Protected Memory Paxos (paper Section 5.1, Algorithm 7).

Crash-fault consensus with ``n >= f_P + 1`` processes and ``m >= 2f_M + 1``
memories that decides in **two delays** in the common case.  The trick over
Disk Paxos: at any time exactly one process holds exclusive write permission
per memory, so a leader's successful phase-2 write *simultaneously* stores
its proposal and proves no newer leader exists (a newer leader would have
grabbed the permission, making the write nak) — eliminating Disk Paxos'
confirming read and its two delays.

The initial leader ``p1`` starts with the permissions already held and may
skip the preparation phase on its first attempt (Theorem D.5's
``firstAttempt`` flag), going straight to the single phase-2 write: two
delays.  Every later attempt — by p1 or anybody else — runs the full
prepare phase: grab permission, publish the proposal number, read all
slots (one snapshot per memory).

Algorithm 7 is written once, in :class:`~repro.smr.log.ReplicatedLog`;
single-shot PMP is that log with one slot.  Each process runs the log's
listener and a proposer that waits until Ω names it, then proposes its
input for slot 0.  The first-attempt skip is the log's held grant at
boot; a restarted process re-prepares through the log's leader recovery,
probing the reserved slot so its previous incarnation's commit — possibly
the only surviving copy — stays intact and adoptable.  So the paper
tables, the consensus benchmark and the explorer's PMP cells run the same
phase 2, settle, prepare and recovery code as the replicated service.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Generator, List, Optional, Tuple

from repro.consensus.base import ConsensusProtocol
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv
from repro.smr.log import LEADER_POLL, PmpSlot, ReplicatedLog, SmrConfig, smr_regions
from repro.types import is_bottom

REGION = "pmp"
TOPIC = "pmp"


@dataclass
class PmpConfig:
    #: initial leader (holds write permission from the start)
    initial_leader: int = 0
    #: ablation switch: disable the Theorem D.5 first-attempt skip, forcing
    #: even the initial leader through the full prepare phase (the
    #: permission optimization is what this flag turns off)
    skip_first_attempt: bool = True


@lru_cache(maxsize=256)
def pmp_regions(n_processes: int, initial_leader: int = 0) -> Tuple[RegionSpec, ...]:
    """The log region :func:`~repro.smr.log.smr_regions` lays out, named
    ``pmp``: one region spanning each memory's whole slot array.

    Initially the fixed leader holds exclusive write permission; the
    ``legalChange`` policy lets any process grab exclusivity for itself
    (crash model — nobody lies about identity).  The specs are frozen
    values, so they are built once per shape and shared.
    """
    return tuple(smr_regions(n_processes, initial_leader, REGION))


@lru_cache(maxsize=64)
def _log_config(initial_leader: int) -> SmrConfig:
    """The one-slot log's config, built once per initial leader."""
    return SmrConfig(initial_leader=initial_leader, region=REGION, topic=TOPIC)


def _decide(env: ProcessEnv, _slot: int, value: Any) -> None:
    env.decide(value)


def _propose(env: ProcessEnv, log: ReplicatedLog, value: Any) -> Generator:
    """Poll Ω until it names this process (or the slot is decided), then
    drive slot 0 to a decision."""
    pid = env.pid
    while env.leader() != pid and not log.decided:
        yield env.sleep(LEADER_POLL)
    yield from log.propose(0, value)


def _recover(log: ReplicatedLog, value: Any) -> Generator:
    yield from log.recover_leader()
    yield from log.propose(0, value)


class ProtectedMemoryPaxos(ConsensusProtocol):
    """Algorithm 7 as a pluggable protocol: a one-slot replicated log."""

    name = "protected-memory-paxos"

    def __init__(self, config: Optional[PmpConfig] = None) -> None:
        self.config = config or PmpConfig()

    def regions(self, n_processes: int, n_memories: int) -> List[RegionSpec]:
        return list(pmp_regions(n_processes, self.config.initial_leader))

    def _log(self, env: ProcessEnv, recovered: bool, leader_fn=None) -> ReplicatedLog:
        config = _log_config(self.config.initial_leader)
        return ReplicatedLog(env, partial(_decide, env), config, leader_fn, recovered)

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        # with the skip off the initial leader boots without the grant,
        # exactly like a restarted one: its first attempt prepares
        log = self._log(env, recovered=not self.config.skip_first_attempt)
        return [("pmp-listener", log.listener()), ("pmp-proposer", _propose(env, log, value))]

    def recovery_tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        """Restart after a crash: never skip the prepare phase.

        The Theorem D.5 first-attempt skip is sound only when the leader
        *knows* nothing was committed before its write — true at boot,
        false after a crash: the previous incarnation (or another leader
        whose permission grab the restarted process has forgotten) may have
        committed a value this process must adopt, so the restarted log
        starts without the grant and its leader recovery runs the full
        takeover read first.  The process also proposes regardless of Ω
        (its log's leader is itself): a restarted follower missed the
        one-shot decision broadcast, and Ω will never point at it while a
        stable leader is alive, so the takeover read is its only sound way
        to learn the committed value.
        """
        pid = int(env.pid)
        log = self._log(env, recovered=True, leader_fn=lambda: pid)
        return [("pmp-listener", log.listener()), ("pmp-proposer", _recover(log, value))]


# ---------------------------------------------------------------------------
# model-checking oracle hook (see repro.check.scenarios)
# ---------------------------------------------------------------------------
def chosen_value(kernel):
    """The value carried by the maximum accepted proposal across all
    memories, or ``None``.

    PMP's chosen value is the one a takeover read adopts: the value of the
    highest ``acc_prop`` across all slots.  Minority slots may hold stale
    accepted values from lower, superseded proposals — those are *not*
    chosen and may legitimately disagree.  A decision oracle therefore
    checks the decided value against this maximum, never against every
    accepted slot.  Probes (``acc_prop is None``) and bottom placeholders
    carry no value, and registers wiped by a memory recovery simply
    disappear: the oracle judges what the surviving replicated state says.
    """
    best = None
    for memory in kernel.memories:
        for _key, slot in memory.items():
            if (
                isinstance(slot, PmpSlot)
                and slot.acc_prop is not None
                and not is_bottom(slot.value)
                and (best is None or slot.acc_prop > best.acc_prop)
            ):
                best = slot
    return None if best is None else best.value
