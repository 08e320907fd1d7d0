"""E2 — Theorem 4.9 / Lemma B.6: 2-deciding weak Byzantine agreement.

Regenerates the paper's headline Byzantine claim: in common-case executions
Fast & Robust decides in two delays across cluster sizes, while the always-
safe slow path alone (Robust Backup) is an order of magnitude slower — the
composition is what buys the fast path without giving up resilience.
"""

import pytest

from repro import FastRobust, RobustBackup, run_consensus

from benchmarks._common import emit, table


def _measure():
    rows = []
    for n in (3, 5, 7):
        fast = run_consensus(FastRobust(), n, 3, deadline=30_000)
        assert fast.agreed and fast.valid
        rows.append(
            ["Fast & Robust", n, f"{fast.earliest_decision_delay:g}",
             "yes" if fast.all_decided else "no"]
        )
    for n in (3, 5):
        slow = run_consensus(RobustBackup(), n, 3, deadline=30_000)
        assert slow.agreed and slow.valid
        rows.append(
            ["Robust Backup alone", n, f"{slow.earliest_decision_delay:g}",
             "yes" if slow.all_decided else "no"]
        )
    return rows


def test_byzantine_common_case_delays():
    rows = _measure()
    emit(
        "E2",
        "2-deciding weak Byzantine agreement (common case, n = 2f+1)",
        table(["algorithm", "n", "delays to first decision", "all decided"], rows),
        notes=(
            "Paper: Fast & Robust decides in 2 delays (Theorem 4.9); the\n"
            "non-equivocating-broadcast slow path works at every size but\n"
            "pays polling round trips."
        ),
    )
    fast_rows = [r for r in rows if r[0] == "Fast & Robust"]
    slow_rows = [r for r in rows if r[0] != "Fast & Robust"]
    assert all(float(r[2]) == 2.0 for r in fast_rows)
    assert all(float(r[2]) > 2.0 for r in slow_rows)
