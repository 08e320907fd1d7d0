"""Per-memory operation chains, run in parallel across all memories.

Protected Memory Paxos, Disk Paxos and Aligned Paxos all share this access
pattern (the paper's ``pfor`` loops): a short *sequence* of operations per
memory — permission change, slot write, slot-array read — executed in
parallel across memories, with the leader proceeding once ``m - f_M``
chains completed.  Chains on crashed memories simply never finish.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from repro.consensus.base import wait_until
from repro.sim.environment import ProcessEnv
from repro.types import MemoryId

ChainFn = Callable[[MemoryId], Generator]


class ChainRunner:
    """Launches one chain task per memory and waits on completions."""

    def __init__(self, env: ProcessEnv, label: str, gate=None) -> None:
        self.env = env
        self.label = label
        self.results: Dict[MemoryId, Any] = {}
        # A caller that must wait on chain completions *and* other events
        # (Aligned Paxos: memory chains + acceptor replies) passes its own
        # wake gate so one wait covers both.
        self.gate = gate if gate is not None else env.new_gate(
            f"{label}-chains-p{int(env.pid)+1}"
        )

    def launch(self, chain: ChainFn) -> Generator:
        """Spawn ``chain(mid)`` for every memory (sub-generator)."""
        for mid in self.env.memories:
            yield self.env.spawn(
                f"{self.label}-mu{int(mid)+1}", self._run_one(mid, chain)
            )

    def _run_one(self, mid: MemoryId, chain: ChainFn) -> Generator:
        result = yield from chain(mid)
        self.results[mid] = result
        self.env.pulse(self.gate)

    def wait_for(self, count: int, timeout: Optional[float] = None) -> Generator:
        """Park until *count* chains completed; False on timeout."""
        done = yield from wait_until(
            self.env, self.gate, lambda: len(self.results) >= count, timeout
        )
        return done
