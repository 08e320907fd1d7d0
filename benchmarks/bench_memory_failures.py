"""E4 — memory-crash tolerance: m >= 2 f_M + 1.

Sweeps crashed-memory counts at several array sizes for both the crash
fast path (PMP) and the Byzantine fast path (Fast & Robust): any minority
of memory crashes leaves the two-delay decision intact; one past the
minority blocks (safely).
"""

import pytest

from repro import FastRobust, FaultScript, ProtectedMemoryPaxos, run_consensus

from benchmarks._common import emit, table


def _run(protocol_factory, m, crashed, deadline):
    faults = FaultScript()
    for mid in range(crashed):
        faults.at(0.0).crash_memory(mid)
    return run_consensus(
        protocol_factory(), 3, m, faults=faults, deadline=deadline
    )


def _measure():
    rows = []
    for label, factory in [
        ("PMP", ProtectedMemoryPaxos),
        ("Fast & Robust", FastRobust),
    ]:
        for m in (3, 5, 7):
            tolerance = (m - 1) // 2
            for crashed in range(0, tolerance + 2):
                within = crashed <= tolerance
                result = _run(
                    factory, m, crashed, deadline=10_000 if within else 600
                )
                delays = result.earliest_decision_delay
                rows.append(
                    [
                        label,
                        m,
                        crashed,
                        "yes" if within else "no",
                        "-" if delays is None else f"{delays:g}",
                        "decided" if result.all_decided else "blocked",
                    ]
                )
                if within:
                    assert result.all_decided and result.agreed, (label, m, crashed)
                    assert delays == 2.0
                else:
                    assert not result.all_decided
                    assert not result.metrics.violations
    return rows


def test_memory_crash_tolerance():
    rows = _measure()
    emit(
        "E4",
        "Memory-crash sweep: fast path intact up to f_M = (m-1)/2",
        table(
            ["algorithm", "m", "memories crashed", "within bound", "delays",
             "outcome"],
            rows,
        ),
        notes=(
            "Shape: every within-bound cell decides in exactly 2 delays;\n"
            "every beyond-bound cell blocks without a safety violation."
        ),
    )
