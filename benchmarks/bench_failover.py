"""E9 — failover latency: the cost of leaving the fast path.

Measures how long recovery takes when the common case breaks:

* Protected Memory Paxos — leader crashes; the successor grabs permissions
  (Theorem D.4's takeover) and decides;
* Fast & Robust — the Cheap Quorum leader crashes or turns Byzantine; the
  followers panic, revoke, and finish in Preferential Paxos.

The absolute numbers depend on the (tunable) timeout constants; the shape
that must hold is recovery-time ~ detection-timeout + a bounded protocol
tail, and an intact 2-delay fast path for the scenarios with no faults.
"""

import pytest

from repro import (
    CheapQuorumEquivocatorLeader,
    FastRobust,
    FastRobustConfig,
    FaultScript,
    ProtectedMemoryPaxos,
    run_consensus,
)
from repro.consensus.cheap_quorum import CheapQuorumConfig

from benchmarks._common import emit, table

_FR_CONFIG = FastRobustConfig(
    cheap_quorum=CheapQuorumConfig(leader_timeout=15.0, unanimity_timeout=25.0)
)


def _decision_span(result):
    times = [r.decided_at for r in result.metrics.decisions.values()]
    return min(times), max(times)


def _measure():
    rows = []

    baseline = run_consensus(ProtectedMemoryPaxos(), 3, 3, deadline=10_000)
    first, last = _decision_span(baseline)
    rows.append(["PMP, no faults", f"{first:g}", f"{last:g}"])

    crash = run_consensus(
        ProtectedMemoryPaxos(), 3, 3,
        faults=FaultScript().at(1.0).crash_process(0),
        omega="crash-aware", deadline=10_000,
    )
    assert crash.all_decided and crash.agreed
    first, last = _decision_span(crash)
    rows.append(["PMP, leader crash @t=1", f"{first:g}", f"{last:g}"])

    fr = run_consensus(FastRobust(_FR_CONFIG), 3, 3, deadline=30_000)
    first, last = _decision_span(fr)
    rows.append(["Fast & Robust, no faults", f"{first:g}", f"{last:g}"])

    fr_crash = run_consensus(
        FastRobust(_FR_CONFIG), 3, 3,
        faults=FaultScript().at(0.0).crash_process(0),
        omega="crash-aware", deadline=30_000,
    )
    assert fr_crash.all_decided and fr_crash.agreed
    first, last = _decision_span(fr_crash)
    rows.append(["Fast & Robust, leader crash @t=0", f"{first:g}", f"{last:g}"])

    fr_byz = run_consensus(
        FastRobust(_FR_CONFIG), 3, 3,
        faults=FaultScript().make_byzantine(0, CheapQuorumEquivocatorLeader()),
        omega=lambda now: 1, deadline=30_000,
    )
    assert fr_byz.all_decided and fr_byz.agreed
    first, last = _decision_span(fr_byz)
    rows.append(["Fast & Robust, Byzantine leader", f"{first:g}", f"{last:g}"])

    return rows


def test_failover_latency():
    rows = _measure()
    emit(
        "E9",
        "Failover: first/last correct decision times (virtual delays)",
        table(["scenario", "first decision", "last decision"], rows),
        notes=(
            "Shape: fault-free runs decide at t=2; failover costs the\n"
            "detection timeout plus a bounded recovery tail, and always\n"
            "terminates with agreement."
        ),
    )
    by_label = {r[0]: (float(r[1]), float(r[2])) for r in rows}
    assert by_label["PMP, no faults"][0] == 2.0
    assert by_label["Fast & Robust, no faults"][0] == 2.0
    assert by_label["PMP, leader crash @t=1"][1] > 2.0
    assert by_label["Fast & Robust, Byzantine leader"][1] > 2.0
