"""E13 (extension) — multi-shot Byzantine replication (the Mu/uBFT shape).

The paper's algorithms are single-shot; its systems descendants order a
log.  This bench chains Fast & Robust instances into a Byzantine replicated
log at n = 2f+1 and measures (a) per-slot fast-path latency for the leader
and (b) end-to-end log agreement, common case and under a silent Byzantine
replica.
"""

import pytest

from repro import FaultScript, SilentByzantine
from repro.core.cluster import Cluster, ClusterConfig
from repro.smr.byzantine_log import ByzantineLogConfig, ByzantineReplicatedLog

from benchmarks._common import emit, table

SCRIPT = {0: [("cmd", i) for i in range(3)]}


def _run(faults=None, n_slots=3, deadline=120_000):
    proto = ByzantineReplicatedLog(SCRIPT, ByzantineLogConfig(n_slots=n_slots))
    cluster = Cluster(proto, ClusterConfig(3, 3, deadline=deadline), faults)
    result = cluster.run([None] * 3)
    return proto, result


def _measure():
    rows = []

    proto, common = _run()
    assert common.all_decided and common.agreed
    leader_slot_times = [
        common.metrics.instance_decisions[slot][0].decided_at
        for slot in range(3)
    ]
    rows.append(
        [
            "common case",
            "3 slots",
            f"{leader_slot_times[0]:g}",
            "identical logs" if common.agreed else "DIVERGED",
            f"{common.final_time:g}",
        ]
    )

    faults = FaultScript().make_byzantine(2, SilentByzantine())
    proto, byz = _run(faults=faults, n_slots=2)
    assert byz.all_decided and byz.agreed
    rows.append(
        [
            "silent Byzantine replica",
            "2 slots",
            f"{byz.metrics.instance_decisions[0][0].decided_at:g}",
            "identical logs" if byz.agreed else "DIVERGED",
            f"{byz.final_time:g}",
        ]
    )
    return rows, leader_slot_times


def test_byzantine_smr():
    rows, leader_slot_times = _measure()
    emit(
        "E13",
        "Byzantine replicated log: Fast & Robust per slot, n = 2f+1 = 3",
        table(
            ["scenario", "workload", "slot-0 leader decision", "log agreement",
             "all replicas done"],
            rows,
        ),
        notes=(
            "Shape: the leader commits slot 0 at t = 2 (the fast path is\n"
            "preserved across instances), honest replicas build identical\n"
            "logs, and one Byzantine replica of three changes nothing —\n"
            "message-passing BFT would need four replicas for this."
        ),
    )
    assert leader_slot_times[0] == 2.0
