"""Replicated registers: majority quorums over the memory array.

The construction (from Attiya–Bar-Noy–Dolev adapted to fail-prone memories
by Afek et al. / Jayanti et al., as cited in Section 4.1) gives *regular*
register semantics: a read concurrent with a write may return either the
old or the new value, and the paper's algorithms are written for exactly
that guarantee.

Writes report NAK when any responding replica refused the write — that is
how a Cheap Quorum leader whose permission was revoked on some replica
learns to panic rather than decide (see Lemma 4.6's proof: deciding
requires a clean ACK majority, which intersects any revoker's majority).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Generator, Iterable, List, Tuple

from repro.mem.operations import BatchOp, ReadOp, SnapshotOp, WriteOp
from repro.mem.permissions import Permission
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv
from repro.types import BOTTOM, OpStatus, RegionId, RegisterKey, is_bottom


def swmr_regions(
    namespace: str, owners: Iterable[int], all_processes: Iterable[int]
) -> Tuple[RegionSpec, ...]:
    """One SWMR region per owner: ``R = P \\ {p}, RW = {p}`` (static).

    Register keys under region ``f"{namespace}:{p}"`` are all keys starting
    with ``(namespace, p)``.  The specs are frozen values, so they are
    built once per shape and shared.
    """
    return _swmr_regions(namespace, tuple(owners), tuple(all_processes))


@lru_cache(maxsize=256)
def _swmr_regions(
    namespace: str, owners: Tuple[int, ...], processes: Tuple[int, ...]
) -> Tuple[RegionSpec, ...]:
    return tuple(
        RegionSpec(
            region_id=f"{namespace}:{owner}",
            prefix=(namespace, owner),
            initial_permission=Permission.swmr(owner, processes),
        )
        for owner in owners
    )


def _merge_reads(values: List[Any]) -> Any:
    """The paper's read rule: exactly one distinct non-⊥ value, else ⊥."""
    distinct = []
    for value in values:
        if is_bottom(value):
            continue
        if all(value != seen for seen in distinct):
            distinct.append(value)
    if len(distinct) == 1:
        return distinct[0]
    return BOTTOM


class ReplicatedRegister:
    """One logical register replicated across every memory of the cluster."""

    def __init__(self, region: RegionId, key: RegisterKey) -> None:
        self.region = region
        self.key = tuple(key)

    def write(self, env: ProcessEnv, value: Any) -> Generator:
        """Write to all memories, wait for a majority; returns ``OpStatus``.

        ACK only when a majority responded and *none* of the responses so
        far was a NAK; a single NAK means some replica refused (permission
        revoked there) and the logical write reports failure.
        """
        op = WriteOp(region=self.region, key=self.key, value=value)
        state = yield env.fanout_to_all(op)
        return OpStatus.NAK if state.naked else OpStatus.ACK

    def read(self, env: ProcessEnv) -> Generator:
        """Read all memories, wait for a majority; returns the merged value."""
        op = ReadOp(region=self.region, key=self.key)
        state = yield env.fanout_to_all(op)
        return _merge_reads(state.acked_values())


def read_many(env: ProcessEnv, registers: List["ReplicatedRegister"]) -> Generator:
    """Read several replicated registers in parallel (still two delays).

    Returns ``{register.key: merged value}``.  Used where an algorithm polls
    one register per process and the registers live in different regions
    (e.g. Cheap Quorum reading ``Value[q]`` for every q), so a single-region
    snapshot cannot cover them.  Each memory gets ONE chain reading every
    register, so a majority of completed chains is a majority of responses
    for every register individually.
    """
    chain = BatchOp(ReadOp(region=r.region, key=r.key) for r in registers)
    state = yield env.fanout_to_all(chain)
    views = state.acked_values()
    return {
        register.key: _merge_reads([view[index] for view in views])
        for index, register in enumerate(registers)
    }


class ReplicatedSlotArray:
    """A replicated *snapshot* over every register under one key prefix.

    Used wherever the paper reads a whole slot array (Protected Memory
    Paxos line 15, Cheap Quorum's polling of ``Value[*]``/``Proof[*]``);
    one snapshot costs one memory operation per memory, all in parallel,
    i.e. two delays.
    """

    def __init__(self, region: RegionId, prefix: RegisterKey) -> None:
        self.region = region
        self.prefix = tuple(prefix)

    def snapshot(self, env: ProcessEnv) -> Generator:
        """Merged per-key view of the array; absent keys read as ⊥."""
        op = SnapshotOp(region=self.region, prefix=self.prefix)
        state = yield env.fanout_to_all(op)
        merged: Dict[RegisterKey, List[Any]] = {}
        for view in state.acked_values():
            for key, value in view.items():
                merged.setdefault(key, []).append(value)
        return {key: _merge_reads(values) for key, values in merged.items()}
