"""A strawman 2-deciding shared-memory consensus attempt.

The algorithm from the Theorem 6.1 proof sketch: a proposer issues its
write (to its own register) and its reads (of everybody else's registers)
*concurrently* — it cannot wait between them and still finish in two delays
— and decides its own value if all reads came back empty, claiming it ran
uncontended.  In a solo execution this is correct and takes exactly two
delays; Theorem 6.1 says no such algorithm can be safe, and
:mod:`repro.lowerbound.theorem61` exhibits the violating schedule.

Each process's register lives on its own memory (``n <= m``) so the write
and the reads target disjoint memories, as the proof's disjoint read/write
object sets require.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from repro.consensus.base import ConsensusProtocol
from repro.errors import ConfigurationError
from repro.mem.operations import SnapshotOp, WriteOp
from repro.mem.permissions import Permission
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv

REGION = "lb"


class NaiveFastConsensus(ConsensusProtocol):
    """Write-and-read-in-parallel 'consensus' (intentionally unsafe)."""

    name = "naive-fast"

    def regions(self, n_processes: int, n_memories: int) -> List[RegionSpec]:
        if n_memories < n_processes:
            raise ConfigurationError("naive-fast needs one memory per process")
        return [
            RegionSpec(
                region_id=REGION,
                prefix=(REGION,),
                initial_permission=Permission.open(range(n_processes)),
            )
        ]

    def tasks(self, env: ProcessEnv, value: Any) -> List[Tuple[str, Generator]]:
        return [("naive-fast", self._propose(env, value))]

    def _propose(self, env: ProcessEnv, value: Any) -> Generator:
        me = int(env.pid)
        write = WriteOp(region=REGION, key=(REGION, me), value=(me, value))
        peek = SnapshotOp(region=REGION, prefix=(REGION,))
        targets = [(me, write)]
        targets += [(mid, peek) for mid in env.memories if int(mid) != me]
        state = yield env.op_fanout(targets, need=len(targets))

        seen = [(me, value)]
        for result in state.results[1:]:
            if result.ok:
                seen.extend(v for v in result.value.values() if isinstance(v, tuple))
        if len(seen) == 1:
            env.decide(value)  # "uncontended": nobody else had written
        else:
            winner = min(seen)  # deterministic rule for the contended case
            env.decide(winner[1])
        return seen
