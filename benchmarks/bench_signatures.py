"""E7 — Section 4.2: one signature on the fast path.

The paper: "Cheap Quorum decides in two delays using one signature in
common executions, whereas the best prior algorithm requires 6 f_P + 2
signatures".  We measure signatures consumed *up to the first decision* on
the fast path, and contrast with the signature bill of the slow path
(Robust Backup signs every broadcast unit).
"""

import pytest

from repro import FastRobust, RobustBackup
from repro.core.cluster import Cluster, ClusterConfig

from benchmarks._common import emit, table


def _sigs_until_first_decision(protocol, n=3, m=3, deadline=30_000):
    cluster = Cluster(protocol, ClusterConfig(n, m, deadline=deadline))
    cluster.start([f"v{p}" for p in range(n)])
    kernel = cluster.kernel
    kernel.run(until=deadline, stop_when=lambda: bool(kernel.metrics.decisions))
    assert kernel.metrics.decisions, f"{protocol.name} never decided"
    decider = next(iter(kernel.metrics.decisions))
    record = kernel.metrics.decisions[decider]
    return (
        record.signatures_at_decision,
        kernel.metrics.total_signatures(),
        record.delays,
    )


def _measure():
    fast = _sigs_until_first_decision(FastRobust())
    slow = _sigs_until_first_decision(RobustBackup())
    prior = 6 * 1 + 2  # the paper's 6f+2 comparison point at f=1
    return fast, slow, prior


def test_signature_economy():
    fast, slow, prior = _measure()
    rows = [
        ["Fast & Robust fast path (measured)", f"{fast[2]:g}", fast[0], fast[1]],
        ["Robust Backup slow path (measured)", f"{slow[2]:g}", slow[0], slow[1]],
        ["Best prior 2-delay BFT [7] (paper)", "2", prior, "-"],
    ]
    emit(
        "E7",
        "Signatures spent until the first decision (f = 1)",
        table(
            ["path", "delays", "decider signatures", "system signatures"],
            rows,
        ),
        notes=(
            "Shape: the fast path decides after exactly ONE signature by the\n"
            "decider (the leader signs its value, writes, decides); the\n"
            "slow path and prior fast BFT protocols sign per message."
        ),
    )
    assert fast[0] == 1
    assert fast[2] == 2.0
    assert slow[1] > fast[0]
