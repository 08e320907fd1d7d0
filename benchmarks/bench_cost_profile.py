"""E14 (extension) — the message/memory trade: operation bills per decision.

The M&M model lets algorithms pay in two currencies: messages and memory
operations.  This bench counts both for each algorithm until all correct
processes decide (common case, n=3): the memory-heavy algorithms send few
or no messages, the message-passing baselines touch no memory, and the
hybrids sit in between — a quantitative x-ray of the paper's Figure 1
topology.
"""

import pytest

from repro import (
    AlignedPaxos,
    DiskPaxos,
    DiskPaxosConfig,
    FastPaxos,
    FastRobust,
    MessagePaxos,
    ProtectedMemoryPaxos,
    run_consensus,
)

from benchmarks._common import emit, table


def _measure():
    cases = [
        ("Message Paxos", MessagePaxos(), 0),
        ("Fast Paxos", FastPaxos(), 0),
        ("Disk Paxos", DiskPaxos(), 3),
        ("Disk Paxos (link-free)", DiskPaxos(DiskPaxosConfig(link_free=True)), 3),
        ("Protected Memory Paxos", ProtectedMemoryPaxos(), 3),
        ("Aligned Paxos", AlignedPaxos(), 3),
        ("Fast & Robust", FastRobust(), 3),
    ]
    rows = []
    for name, protocol, memories in cases:
        result = run_consensus(protocol, 3, memories, deadline=30_000)
        assert result.all_decided and result.agreed, name
        rows.append(
            [
                name,
                f"{result.earliest_decision_delay:g}",
                result.metrics.total_messages(),
                result.metrics.total_mem_ops(),
                result.metrics.total_signatures(),
            ]
        )
    return rows


def test_cost_profile():
    rows = _measure()
    emit(
        "E14",
        "Cost profile until all correct processes decide (n=3, common case)",
        table(
            ["algorithm", "delays", "messages", "memory ops", "signatures"],
            rows,
        ),
        notes=(
            "Shape: the message-passing baselines use zero memory ops; the\n"
            "link-free disk model uses zero messages; the M&M algorithms\n"
            "blend both — and only the Byzantine stack pays for signatures."
        ),
    )
    by_name = {r[0]: r for r in rows}
    assert by_name["Message Paxos"][3] == 0  # no memory ops
    assert by_name["Fast Paxos"][3] == 0
    assert by_name["Disk Paxos (link-free)"][2] == 0  # no messages
    assert by_name["Protected Memory Paxos"][4] == 0  # no signatures
    assert by_name["Fast & Robust"][4] > 0
