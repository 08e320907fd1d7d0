"""Disk Paxos (Gafni & Lamport [28]) — the static-permission baseline.

The paper's comparison point for shared-memory consensus: ``n >= f_P + 1``
processes, ``m >= 2f_M + 1`` disks (memories with a single always-open
region), but **at least four delays** even in the common case, because
after writing its block a leader must *read back* every block to check that
no higher ballot intervened — the confirming read that Protected Memory
Paxos replaces with permission revocation (and that Theorem 6.1 proves
cannot be avoided without dynamic permissions or messages).

A stable leader (ballot established by an earlier instance, modeled with
:data:`ESTABLISHED_LEADER`) still pays write + read-back per attempt: 2
memory operations = 4 delays.  Any other process that Ω names first runs
phase 1 as well: 8 delays.

Each round posts one single-target write leg per disk, all pulsing one
round gate, and runs a completion loop: as soon as a disk's write leg
fires, that disk's read-back leg is posted, and the round ends once a
majority of read-back legs fired.  The write and read-back stay two
operations (one chain would be 2 delays and erase the baseline), and
stay ordered per disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Generator, List, Optional, Tuple

from repro.consensus.ballots import Ballot
from repro.consensus.base import ConsensusProtocol
from repro.consensus.messages import Decision
from repro.mem.operations import SnapshotOp, WriteOp
from repro.mem.permissions import Permission
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv
from repro.types import BOTTOM, is_bottom

REGION = "dp"
TOPIC = "dp"
#: how often a non-leader re-checks Ω, the base of the randomised back-off
#: between a leader's failed attempts, and the link-free listener's disk
#: polling cadence (virtual delays)
LEADER_POLL = 2.0
RETRY_BACKOFF = 4.0
LEARN_POLL = 2.0
#: process whose first ballot counts as pre-established (skips phase 1 on
#: its first attempt, mirroring PMP's p1 head start)
ESTABLISHED_LEADER = 0


@dataclass(frozen=True)
class DiskBlock:
    """Gafni-Lamport disk block: ``(mbal, bal, inp)`` plus a decided flag
    used by the link-free learning path."""

    mbal: Ballot
    bal: Optional[Ballot]
    inp: Any
    decided: bool = False


@dataclass
class DiskPaxosConfig:
    #: Section 3's pure disk model: learn decisions by polling the disks
    #: instead of a decision broadcast (works with links disabled entirely)
    link_free: bool = False


@lru_cache(maxsize=256)
def disk_paxos_regions(n_processes: int) -> Tuple[RegionSpec, ...]:
    """One open region per memory — the disk model of Section 3 (built
    once per shape: frozen values)."""
    return (
        RegionSpec(
            region_id=REGION,
            prefix=(REGION,),
            initial_permission=Permission.open(range(n_processes)),
        ),
    )


class DiskPaxosNode:
    """One process's Disk Paxos endpoint."""

    def __init__(self, env: ProcessEnv, value: Any, config: Optional[DiskPaxosConfig] = None):
        self.env = env
        self.value = value
        self.config = config or DiskPaxosConfig()
        self.highest_seen = Ballot.zero()
        self.decided = False
        self.decided_value: Any = None
        self.first_attempt = True
        self._bal: Optional[Ballot] = None
        self._inp: Any = BOTTOM

    # ------------------------------------------------------------------
    def listener(self) -> Generator:
        env = self.env
        if self.config.link_free:
            # The disk model has no links: poll the disks for a decided
            # block (one snapshot per memory, in parallel).
            poll = SnapshotOp(region=REGION, prefix=(REGION,))
            while not self.decided:
                state = yield env.fanout_to_all(poll)
                for view in state.acked_values():
                    for block in view.values():
                        if isinstance(block, DiskBlock) and block.decided:
                            self._learn(block.inp)
                            return
                yield env.sleep(LEARN_POLL)
            return
        while not self.decided:
            envelope = yield from env.recv(topic=TOPIC)
            if envelope is not None and isinstance(envelope.payload, Decision):
                self._learn(envelope.payload.value)

    def _learn(self, value: Any) -> None:
        if not self.decided:
            self.decided = True
            self.decided_value = value
            self.env.decide(value)

    # ------------------------------------------------------------------
    def proposer(self) -> Generator:
        env = self.env
        while not self.decided:
            if env.leader() != env.pid:
                yield env.sleep(LEADER_POLL)
                continue
            yield from self._attempt()
            if not self.decided:
                yield env.sleep(RETRY_BACKOFF * (1 + env.rng.random()))

    def _round(self, mbal: Ballot, block: DiskBlock, majority: int) -> Generator:
        """One GL round: write own block, then read all blocks back, per disk.

        A disk's read-back is posted only when its write leg fires, so the
        read never overtakes the write and never goes to a disk the write
        did not reach; a crashed disk's legs never fire and never wake
        the loop.

        Returns the list of completed per-disk views, or None if a higher
        ``mbal`` was seen (abort the attempt).
        """
        env = self.env
        gate = env.new_gate(f"dp-{mbal.round}-{mbal.pid}")
        write = WriteOp(REGION, (REGION, int(env.pid)), block)
        snapshot = SnapshotOp(REGION, (REGION,))
        writes = {}
        for mid in env.memories:
            writes[mid] = yield env.op_fanout(((mid, write),), 1, notify=gate)
        reads = []
        while True:
            for mid in [mid for mid, leg in writes.items() if leg.fired]:
                del writes[mid]
                reads.append((yield env.op_fanout(((mid, snapshot),), 1, notify=gate)))
            if sum(leg.fired for leg in reads) >= majority:
                break
            yield env.gate_wait(gate)
        views = []
        aborted = False
        for snap in [leg.results[0] for leg in reads if leg.fired]:
            if not snap.ok:
                aborted = True
                continue
            for key, other in snap.value.items():
                if key == (REGION, int(env.pid)) or not isinstance(other, DiskBlock):
                    continue
                self.highest_seen = max(self.highest_seen, other.mbal)
                if other.mbal > mbal:
                    aborted = True
            views.append(snap.value)
        return None if aborted else views

    def _attempt(self) -> Generator:
        env = self.env
        majority = env.majority_of_memories()
        mbal = self.highest_seen.next_for(env.pid)
        self.highest_seen = mbal
        skip_phase1 = int(env.pid) == ESTABLISHED_LEADER and self.first_attempt
        self.first_attempt = False

        if skip_phase1:
            inp = self.value
        else:
            block = DiskBlock(mbal=mbal, bal=self._bal, inp=self._inp)
            views = yield from self._round(mbal, block, majority)
            if views is None:
                return
            best: Optional[Tuple[Ballot, Any]] = None
            for view in views:
                for key, other in view.items():
                    if key == (REGION, int(env.pid)) or not isinstance(other, DiskBlock):
                        continue
                    if other.bal is not None and not is_bottom(other.inp):
                        if best is None or other.bal > best[0]:
                            best = (other.bal, other.inp)
            inp = self.value if best is None else best[1]

        # Phase 2: write (mbal, bal=mbal, inp) then read back — the
        # unavoidable confirming read of the static-permission model.
        self._bal = mbal
        self._inp = inp
        block = DiskBlock(mbal=mbal, bal=mbal, inp=inp)
        views = yield from self._round(mbal, block, majority)
        if views is None:
            return
        self._learn(inp)
        if self.config.link_free:
            # Publish the decision on the disks themselves.
            decided_block = DiskBlock(mbal=mbal, bal=mbal, inp=inp, decided=True)
            publish = WriteOp(
                region=REGION, key=(REGION, int(env.pid)), value=decided_block
            )
            yield env.fanout_to_all(publish, need=majority)
        else:
            yield from env.broadcast(
                Decision(value=inp), topic=TOPIC, include_self=False
            )


class DiskPaxos(ConsensusProtocol):
    """Disk Paxos as a pluggable protocol."""

    name = "disk-paxos"

    def __init__(self, config: Optional[DiskPaxosConfig] = None) -> None:
        self.config = config or DiskPaxosConfig()

    def regions(self, n_processes: int, n_memories: int) -> List[RegionSpec]:
        return list(disk_paxos_regions(n_processes))

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        node = DiskPaxosNode(env, value, self.config)
        return [("dp-listener", node.listener()), ("dp-proposer", node.proposer())]
