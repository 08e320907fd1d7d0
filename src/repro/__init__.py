"""repro — a reproduction of *The Impact of RDMA on Agreement* (PODC 2019).

The package simulates the paper's message-and-memory (M&M) model —
processes plus fail-prone shared memories with dynamically permissioned
regions, the abstraction RDMA provides — and implements every algorithm the
paper introduces, alongside the baselines it compares against:

* **Fast & Robust** (`FastRobust`): 2-deciding weak Byzantine agreement
  with ``n >= 2f_P + 1`` (Theorem 4.9), composed from **Cheap Quorum** and
  **Preferential Paxos** over **Robust Backup**.
* **Protected Memory Paxos** (`ProtectedMemoryPaxos`): 2-deciding crash
  consensus with ``n >= f_P + 1`` (Theorem 5.1).
* **Aligned Paxos** (`AlignedPaxos`): survives any minority of combined
  process+memory crashes (Section 5.2).
* Baselines: `MessagePaxos`, `FastPaxos`, `DiskPaxos`.

Quickstart::

    from repro import ProtectedMemoryPaxos, run_consensus

    result = run_consensus(ProtectedMemoryPaxos(), n_processes=3, n_memories=3)
    print(result.decisions, result.earliest_decision_delay)  # 2 delays
"""

from repro.consensus.aligned_paxos import AlignedConfig, AlignedPaxos
from repro.consensus.ballots import Ballot
from repro.consensus.cheap_quorum import CheapQuorum, CheapQuorumConfig, CqOutcome
from repro.consensus.disk_paxos import DiskPaxos, DiskPaxosConfig
from repro.consensus.fast_paxos import FastPaxos
from repro.consensus.fast_robust import FastRobust, FastRobustConfig
from repro.consensus.message_paxos import MessagePaxos
from repro.consensus.omega import crash_aware_omega, leader_schedule, stable_leader
from repro.consensus.paxos import PaxosConfig
from repro.consensus.preferential_paxos import PreferentialPaxosConfig
from repro.consensus.protected_memory_paxos import PmpConfig, ProtectedMemoryPaxos
from repro.consensus.robust_backup import RobustBackup
from repro.core.cluster import (
    Cluster,
    ClusterConfig,
    MultiGroupCluster,
    RunResult,
    run_consensus,
)
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
from repro.reconfig import (
    AddReplica,
    Autoscaler,
    AutoscalerConfig,
    ElasticConfig,
    ElasticKV,
    MergeShard,
    MoveLeader,
    RemoveReplica,
    SplitShard,
)
from repro.failures.script import FaultScript
from repro.sim.faults import LinkFault
from repro.shard import (
    ClosedLoopClient,
    ConsistentHashPartitioner,
    OpenLoopClient,
    OperationMix,
    READ_CONSENSUS,
    READ_LEADER,
    READ_LOCAL,
    READ_MODES,
    READ_QUORUM,
    ReadSession,
    ScriptedClient,
    ShardConfig,
    ShardedKV,
    UniformKeys,
    YCSB_A,
    YCSB_B,
    YCSB_C,
    ZipfianKeys,
)
from repro.sim.latency import (
    AdversarialLatency,
    JitteredSynchrony,
    NominalLatency,
    PartialSynchrony,
)
from repro.smr import (
    Batch,
    ByzantineLogConfig,
    ByzantineReplicatedLog,
    KVCommand,
    KVStateMachine,
    ReplicatedLog,
    SmrConfig,
)
from repro.types import BOTTOM, OpStatus

__version__ = "1.0.0"

__all__ = [
    "AddReplica",
    "AdversarialLatency",
    "AlignedConfig",
    "AlignedPaxos",
    "Autoscaler",
    "AutoscalerConfig",
    "BOTTOM",
    "Ballot",
    "Batch",
    "ByzantineLogConfig",
    "ByzantineReplicatedLog",
    "ByzantineStrategy",
    "CheapQuorum",
    "CheapQuorumConfig",
    "CheapQuorumEquivocatorLeader",
    "ClosedLoopClient",
    "Cluster",
    "ClusterConfig",
    "ConsistentHashPartitioner",
    "CqOutcome",
    "DiskPaxos",
    "DiskPaxosConfig",
    "ElasticConfig",
    "ElasticKV",
    "EquivocatingBroadcaster",
    "FastPaxos",
    "FastRobust",
    "FastRobustConfig",
    "FaultScript",
    "JitteredSynchrony",
    "KVCommand",
    "LinkFault",
    "KVStateMachine",
    "MergeShard",
    "MessagePaxos",
    "MoveLeader",
    "MultiGroupCluster",
    "NominalLatency",
    "OpStatus",
    "OpenLoopClient",
    "OperationMix",
    "PaxosConfig",
    "PaxosValueLiar",
    "PartialSynchrony",
    "PermissionAbuser",
    "ProofForger",
    "PmpConfig",
    "PreferentialPaxosConfig",
    "ProtectedMemoryPaxos",
    "READ_CONSENSUS",
    "READ_LEADER",
    "READ_LOCAL",
    "READ_MODES",
    "READ_QUORUM",
    "ReadSession",
    "RemoveReplica",
    "ReplicatedLog",
    "RobustBackup",
    "RunResult",
    "ScriptedClient",
    "ShardConfig",
    "ShardedKV",
    "SilentByzantine",
    "SlotRewriter",
    "SmrConfig",
    "SplitShard",
    "UniformKeys",
    "YCSB_A",
    "YCSB_B",
    "YCSB_C",
    "ZipfianKeys",
    "crash_aware_omega",
    "leader_schedule",
    "run_consensus",
    "stable_leader",
]
