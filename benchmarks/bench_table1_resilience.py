"""E1 — Table 1: fault-tolerance landscape for Byzantine agreement.

The paper's Table 1 places its result (async, signatures, RDMA-provided
non-equivocation, resiliency 2f+1) against the literature.  The literature
rows are known bounds; our row is *measured*: Fast & Robust reaches
agreement with n = 2f+1 = 3 under each Byzantine strategy we implement, and
blocks safely (never splits) one step beyond the bound.
"""

import pytest

from repro import (
    CheapQuorumEquivocatorLeader,
    EquivocatingBroadcaster,
    FastRobust,
    FastRobustConfig,
    FaultScript,
    PaxosValueLiar,
    SilentByzantine,
    run_consensus,
)
from repro.consensus.cheap_quorum import CheapQuorumConfig

from benchmarks._common import emit, table

_FALLBACK_CONFIG = FastRobustConfig(
    cheap_quorum=CheapQuorumConfig(leader_timeout=15.0, unanimity_timeout=25.0)
)

_STRATEGIES = [
    ("silent", SilentByzantine(), 2, None),
    ("neb-equivocator", EquivocatingBroadcaster(), 2, None),
    ("paxos-liar", PaxosValueLiar("EVIL"), 2, None),
    ("cq-equivocating-leader", CheapQuorumEquivocatorLeader(), 0, 1),
]


def _measure_our_row():
    """n = 2f+1 = 3, one Byzantine process of each strategy."""
    outcomes = []
    for name, strategy, seat, leader in _STRATEGIES:
        faults = FaultScript().make_byzantine(seat, strategy)
        result = run_consensus(
            FastRobust(_FALLBACK_CONFIG), 3, 3, faults=faults,
            omega=(lambda now: leader) if leader is not None else None,
            deadline=30_000,
        )
        ok = result.all_decided and result.agreed and not result.metrics.violations
        outcomes.append((name, ok, "EVIL" not in result.decided_values))
    return outcomes


def _measure_beyond_bound():
    """n = 3 with f = 2 Byzantine: below n >= 2f+1 — the agreement machinery
    (Robust Backup's quorums) must block rather than let the lone honest
    process "agree" with forgeries; it must never record a violation."""
    from repro import RobustBackup

    faults = (
        FaultScript()
        .make_byzantine(1, SilentByzantine())
        .make_byzantine(2, SilentByzantine())
    )
    result = run_consensus(RobustBackup(), 3, 3, faults=faults, deadline=800)
    return (not result.all_decided, not result.metrics.violations)


def test_table1_resilience():
    our_row, beyond = _measure_our_row(), _measure_beyond_bound()

    rows = [
        ["[39] (LSP)", "sync", "yes", "no", "2f+1", "(literature)"],
        ["[39] (LSP)", "sync", "no", "no", "3f+1", "(literature)"],
        ["[4, 40]", "async", "yes", "yes", "3f+1", "(literature)"],
        ["[20] Clement et al.", "async", "yes", "no", "3f+1", "(literature)"],
        ["[20] Clement et al.", "async", "yes", "yes", "2f+1", "(literature)"],
    ]
    for name, agreed, uncorrupted in our_row:
        rows.append(
            [
                f"This paper (byz={name})",
                "async",
                "yes",
                "RDMA",
                "2f+1",
                "OK" if (agreed and uncorrupted) else "FAILED",
            ]
        )
    blocked, safe = beyond
    rows.append(
        [
            "This paper, f = 2 at n = 3 (beyond bound)",
            "async",
            "yes",
            "RDMA",
            "-",
            "blocks safely" if (blocked and safe) else "FAILED",
        ]
    )
    emit(
        "E1",
        "Table 1 — Byzantine agreement resilience (measured rows marked OK)",
        table(
            ["work", "synchrony", "signatures", "non-equiv", "resiliency", "measured"],
            rows,
        ),
        notes=(
            "Measured: Fast & Robust with n=3=2f+1 reaches weak Byzantine\n"
            "agreement against every implemented strategy; with n=2 it blocks\n"
            "without ever violating agreement."
        ),
    )

    assert all(agreed and clean for _n, agreed, clean in our_row)
    assert beyond == (True, True)
