"""E3 — Theorem 5.1: crash consensus, two delays at n >= f+1.

The crash-failure comparison the paper draws in the introduction:

* Disk Paxos: best resilience (n >= f+1) but >= 4 delays;
* Fast Paxos: 2 delays but n >= 2f+1;
* Protected Memory Paxos: both — 2 delays at n = f+1 (even n = 2),
  which no message-passing protocol can reach.
"""

import pytest

from repro import (
    DiskPaxos,
    FastPaxos,
    MessagePaxos,
    ProtectedMemoryPaxos,
    run_consensus,
)

from benchmarks._common import emit, table


def _measure():
    rows = []
    cases = [
        ("Message Paxos", MessagePaxos(), 3, 0, "n >= 2f+1"),
        ("Fast Paxos", FastPaxos(), 3, 0, "n >= 2f+1"),
        ("Disk Paxos", DiskPaxos(), 3, 3, "n >= f+1"),
        ("Protected Memory Paxos", ProtectedMemoryPaxos(), 3, 3, "n >= f+1"),
        ("Protected Memory Paxos", ProtectedMemoryPaxos(), 2, 3, "n >= f+1"),
        ("Protected Memory Paxos", ProtectedMemoryPaxos(), 1, 3, "n >= f+1"),
    ]
    for name, protocol, n, m, bound in cases:
        result = run_consensus(protocol, n, m, deadline=10_000)
        assert result.agreed and result.valid
        rows.append(
            [name, n, m, bound, f"{result.earliest_decision_delay:g}"]
        )
    return rows


def test_crash_consensus_delays():
    rows = _measure()
    emit(
        "E3",
        "Crash consensus: delays vs resilience (common case)",
        table(["algorithm", "n", "m", "resilience", "delays"], rows),
        notes=(
            "Shape: Disk Paxos and Message Paxos pay 4 delays; Fast Paxos\n"
            "reaches 2 only with n >= 2f+1; PMP reaches 2 all the way down\n"
            "to a single live process (Theorem 5.1)."
        ),
    )
    by_name = {}
    for name, n, m, _bound, delays in rows:
        by_name.setdefault(name, []).append(float(delays))
    assert all(d == 2.0 for d in by_name["Protected Memory Paxos"])
    assert all(d == 2.0 for d in by_name["Fast Paxos"])
    assert all(d >= 4.0 for d in by_name["Disk Paxos"])
    assert all(d >= 4.0 for d in by_name["Message Paxos"])
