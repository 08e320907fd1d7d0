"""Elastic reconfiguration: epoch-based membership over permission fences.

The paper's dynamic-permission trick — revoking a deposed writer's RDMA
access at the memories — is repurposed here from failover to *membership
change*: retiring an old configuration safely is, at bottom, revoking
its write access.  This package provides:

* :mod:`~repro.reconfig.epochs` — numbered :class:`Epoch` configurations
  and the typed command vocabulary (split/merge shards, move leadership,
  add/remove replicas) folded deterministically on every replica;
* :mod:`~repro.reconfig.config_log` — the :class:`ConfigLog`, itself a
  Protected-Memory-Paxos replicated log, committing those commands;
* :mod:`~repro.reconfig.migrate` — the :class:`Migrator`, streaming
  moved key ranges with deterministic at-most-once identities;
* :mod:`~repro.reconfig.autoscale` — the :class:`Autoscaler` policy
  watching the metrics ledger's commit rates for split opportunities;
* :mod:`~repro.reconfig.elastic` — :class:`ElasticKV`, the sharded KV
  service wired through all of the above.
"""

from repro.reconfig.autoscale import Autoscaler, AutoscalerConfig
from repro.reconfig.config_log import CONFIG_REGION, ConfigLog, config_regions
from repro.reconfig.elastic import TOMBSTONE, ElasticConfig, ElasticKV
from repro.reconfig.epochs import (
    ActivateEpoch,
    AddReplica,
    ConfigState,
    Epoch,
    MergeShard,
    MoveLeader,
    RemoveReplica,
    SealShard,
    SplitShard,
)
from repro.reconfig.migrate import Migrator, migration_client

__all__ = [
    "ActivateEpoch",
    "AddReplica",
    "Autoscaler",
    "AutoscalerConfig",
    "CONFIG_REGION",
    "ConfigLog",
    "ConfigState",
    "ElasticConfig",
    "ElasticKV",
    "Epoch",
    "MergeShard",
    "Migrator",
    "MoveLeader",
    "RemoveReplica",
    "SealShard",
    "SplitShard",
    "TOMBSTONE",
    "config_regions",
    "migration_client",
]
