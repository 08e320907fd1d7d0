"""E8 — Theorem 4.4: the Robust Backup slow path under attack.

The slow path's job is not speed but survival: it must terminate with
agreement when the fast path cannot, under Byzantine interference and at
every legal cluster size.  We measure its decision latency (in delays) and
message/memory-operation bill for each adversary.
"""

import pytest

from repro import (
    EquivocatingBroadcaster,
    FaultScript,
    PaxosValueLiar,
    RobustBackup,
    SilentByzantine,
    run_consensus,
)

from benchmarks._common import emit, table


def _measure():
    cases = [
        ("no failures, n=3", 3, None),
        ("no failures, n=5", 5, None),
        ("silent byzantine", 3, FaultScript().make_byzantine(2, SilentByzantine())),
        (
            "equivocating broadcaster",
            3,
            FaultScript().make_byzantine(1, EquivocatingBroadcaster()),
        ),
        ("paxos liar", 3, FaultScript().make_byzantine(1, PaxosValueLiar("EVIL"))),
    ]
    rows = []
    for label, n, faults in cases:
        result = run_consensus(
            RobustBackup(), n, 3, faults=faults, deadline=30_000
        )
        assert result.all_decided and result.agreed and result.valid, label
        assert "EVIL" not in result.decided_values
        rows.append(
            [
                label,
                n,
                f"{result.earliest_decision_delay:g}",
                result.metrics.total_messages(),
                result.metrics.total_mem_ops(),
            ]
        )
    return rows


def test_slow_path_under_attack():
    rows = _measure()
    emit(
        "E8",
        "Robust Backup: latency and cost under Byzantine interference",
        table(
            ["scenario", "n", "delays", "messages", "memory ops"],
            rows,
        ),
        notes=(
            "Shape: every adversary is reduced to a crash — agreement and\n"
            "termination hold at n = 2f+1; the cost is the non-equivocating\n"
            "broadcast polling (memory ops dominate)."
        ),
    )
    assert all(float(r[2]) > 2.0 for r in rows)  # genuinely the slow path
