"""Canned experiment scenarios.

Benchmarks, examples and downstream users keep re-building the same
configurations; this module names them.  Every scenario returns a fully
wired :class:`~repro.core.cluster.Cluster` so callers can still inspect the
kernel, tweak Ω, or inject extra faults before running.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.consensus.aligned_paxos import AlignedConfig, AlignedPaxos
from repro.consensus.base import ConsensusProtocol
from repro.consensus.cheap_quorum import CheapQuorumConfig
from repro.consensus.fast_robust import FastRobust, FastRobustConfig
from repro.consensus.omega import crash_aware_omega, leader_schedule
from repro.consensus.protected_memory_paxos import ProtectedMemoryPaxos
from repro.core.cluster import Cluster, ClusterConfig
from repro.errors import ConfigurationError
from repro.failures.byzantine import ByzantineStrategy
from repro.failures.script import FaultScript
from repro.sim.latency import LatencyModel, NominalLatency, PartialSynchrony


def common_case(
    protocol: ConsensusProtocol,
    n_processes: int = 3,
    n_memories: int = 3,
    seed: int = 0,
) -> Cluster:
    """The paper's common-case execution: synchronous, failure-free."""
    return Cluster(
        protocol,
        ClusterConfig(n_processes, n_memories, seed=seed, deadline=30_000),
    )


def leader_crash(
    protocol: ConsensusProtocol,
    crash_at: float = 1.0,
    n_processes: int = 3,
    n_memories: int = 3,
    seed: int = 0,
) -> Cluster:
    """Initial leader crashes at *crash_at*; Ω tracks the crash."""
    faults = FaultScript().at(crash_at).crash_process(0)
    cluster = Cluster(
        protocol,
        ClusterConfig(n_processes, n_memories, seed=seed, deadline=30_000),
        faults,
    )
    cluster.kernel.omega = crash_aware_omega(cluster.kernel)
    return cluster


def memory_minority_crash(
    protocol: ConsensusProtocol,
    n_processes: int = 3,
    n_memories: int = 3,
    seed: int = 0,
) -> Cluster:
    """Crash the largest tolerable set of memories, all at t=0."""
    faults = FaultScript()
    for mid in range((n_memories - 1) // 2):
        faults.at(0.0).crash_memory(mid)
    return Cluster(
        protocol,
        ClusterConfig(n_processes, n_memories, seed=seed, deadline=30_000),
        faults,
    )


def byzantine_seat(
    strategy: ByzantineStrategy,
    seat: int = 2,
    n_processes: int = 3,
    n_memories: int = 3,
    honest_leader: Optional[int] = None,
    seed: int = 0,
) -> Cluster:
    """Fast & Robust with one Byzantine process running *strategy*.

    Timeouts are shortened so the fallback engages quickly; pass
    ``honest_leader`` when the strategy occupies the leader seat.
    """
    config = FastRobustConfig(
        cheap_quorum=CheapQuorumConfig(leader_timeout=15.0, unanimity_timeout=25.0)
    )
    faults = FaultScript().make_byzantine(seat, strategy)
    omega = None if honest_leader is None else (lambda now: honest_leader)
    return Cluster(
        FastRobust(config),
        ClusterConfig(
            n_processes, n_memories, seed=seed, deadline=60_000, omega=omega
        ),
        faults,
    )


def mixed_agent_crashes(
    proc_crashes: Sequence[int],
    mem_crashes: Sequence[int],
    n_processes: int = 3,
    n_memories: int = 3,
    variant: str = "protected",
    seed: int = 0,
) -> Cluster:
    """Aligned Paxos with an arbitrary process/memory crash mix at t=1."""
    faults = FaultScript()
    for pid in proc_crashes:
        faults.at(1.0).crash_process(pid)
    for mid in mem_crashes:
        faults.at(1.0).crash_memory(mid)
    cluster = Cluster(
        AlignedPaxos(AlignedConfig(variant=variant)),
        ClusterConfig(n_processes, n_memories, seed=seed, deadline=30_000),
        faults,
    )
    cluster.kernel.omega = crash_aware_omega(cluster.kernel)
    return cluster


def partition_minority(
    protocol: Optional[ConsensusProtocol] = None,
    partition_at: float = 1.0,
    heal_at: float = 25.0,
    n_processes: int = 3,
    n_memories: int = 3,
    seed: int = 0,
) -> Cluster:
    """Partition the minority away, then heal; everybody still decides.

    While partitioned, the minority hears nothing: the majority's decision
    broadcasts drop on the severed links.  After the heal, Ω hands the
    minority leadership and it rejoins through the *memories* — the full
    permission-takeover read adopts the committed value (a partition severs
    process links, not RDMA access), so the minority decides the same value
    without any process ever re-sending a message.
    """
    if n_processes < 3:
        raise ConfigurationError(
            "partition_minority needs n_processes >= 3 (a 2-process system "
            "has no minority to cut off)"
        )
    protocol = protocol or ProtectedMemoryPaxos()
    minority = set(range(n_processes // 2 + 1, n_processes))
    majority = set(range(n_processes // 2 + 1))
    script = FaultScript()
    script.at(partition_at).partition(majority, minority).heal(at=heal_at)
    cluster = Cluster(
        protocol,
        ClusterConfig(n_processes, n_memories, seed=seed, deadline=60_000),
        script,
    )
    cluster.kernel.omega = leader_schedule([(0.0, 0), (heal_at, min(minority))])
    return cluster


def crash_recover_leader(
    protocol: Optional[ConsensusProtocol] = None,
    crash_at: float = 1.0,
    recover_at: float = 30.0,
    n_processes: int = 3,
    n_memories: int = 3,
    seed: int = 0,
) -> Cluster:
    """The initial leader crashes mid-attempt and later comes back.

    While it is down, Ω moves on and a successor finishes via the
    permission takeover.  The recovered leader restarts with empty state,
    re-runs the full prepare (recovery never skips it), adopts whatever
    was committed in its absence, and decides the same value — the
    Protected Memory Paxos permission handoff, exercised in both
    directions.
    """
    protocol = protocol or ProtectedMemoryPaxos()
    script = FaultScript()
    script.at(crash_at).crash_process(0).recover(at=recover_at)
    cluster = Cluster(
        protocol,
        ClusterConfig(n_processes, n_memories, seed=seed, deadline=60_000),
        script,
    )
    cluster.kernel.omega = crash_aware_omega(cluster.kernel)
    return cluster


def permission_storm(
    protocol: Optional[ConsensusProtocol] = None,
    storm_at: float = 0.5,
    shots: int = 6,
    spacing: float = 1.5,
    storm_pid: int = 2,
    region: Optional[str] = None,
    n_processes: int = 3,
    n_memories: int = 3,
    seed: int = 0,
) -> Cluster:
    """An adversary hammers ``changePermission`` while the leader commits.

    Each shot legally grabs exclusive write for *storm_pid* (the takeover
    shape PMP's ``legalChange`` must allow), NAK-ing the leader's in-flight
    writes and forcing it back through prepare — over and over, until the
    storm ends and the leader out-retries it.  Decides despite the churn;
    the fault timeline records every grab and its ACK/NAK.  The storm
    hits *region*, by default the protocol's own first region.
    """
    protocol = protocol or ProtectedMemoryPaxos()
    if region is None:
        region = protocol.regions(n_processes, n_memories)[0].region_id
    script = FaultScript()
    script.at(storm_at).permission_storm(
        pid=storm_pid, region=region, shots=shots, spacing=spacing
    )
    return Cluster(
        protocol,
        ClusterConfig(n_processes, n_memories, seed=seed, deadline=60_000),
        script,
    )


def rolling_restart(
    protocol: Optional[ConsensusProtocol] = None,
    first_at: float = 1.0,
    period: float = 16.0,
    n_processes: int = 3,
    n_memories: int = 3,
    seed: int = 0,
) -> Cluster:
    """Crash and recover every process in sequence, one down at a time.

    The maintenance-window scenario: each process is down for half a
    period, with Ω tracking the survivors.  Decisions taken before a
    restart stay decided (the ledger enforces irrevocability); restarted
    processes re-adopt them from the memories.  ``cluster.run`` stops once
    everybody decided — drive the kernel past the full window
    (``cluster.start(...); cluster.kernel.run(until=...)``) to exercise
    every restart.
    """
    protocol = protocol or ProtectedMemoryPaxos()
    script = FaultScript()
    for pid in range(n_processes):
        down = first_at + pid * period
        script.at(down).crash_process(pid).recover(at=down + period / 2)
    cluster = Cluster(
        protocol,
        ClusterConfig(n_processes, n_memories, seed=seed, deadline=120_000),
        script,
    )
    cluster.kernel.omega = crash_aware_omega(cluster.kernel)
    return cluster


def asynchronous_period(
    protocol: ConsensusProtocol,
    gst: float = 100.0,
    chaos: float = 25.0,
    n_processes: int = 3,
    n_memories: int = 3,
    seed: int = 0,
) -> Cluster:
    """Partial synchrony: chaotic until *gst*, bounded afterwards."""
    return Cluster(
        protocol,
        ClusterConfig(
            n_processes,
            n_memories,
            latency=PartialSynchrony(gst=gst, chaos=chaos),
            seed=seed,
            deadline=120_000,
        ),
    )
