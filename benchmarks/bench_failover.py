"""E9 — failover latency: the cost of leaving the fast path.

Measures how long recovery takes when the common case breaks:

* Protected Memory Paxos — leader crashes; the successor grabs permissions
  (Theorem D.4's takeover) and decides;
* Fast & Robust — the Cheap Quorum leader crashes or turns Byzantine; the
  followers panic, revoke, and finish in Preferential Paxos.

* Replicated log — a shard leader crashes after L committed slots and
  restarts; it re-prepares and re-commits the adopted prefix in windows of
  ``RECOVERY_WINDOW`` slots, one chain per memory each.

The absolute numbers depend on the (tunable) timeout constants; the shape
that must hold is recovery-time ~ detection-timeout + a bounded protocol
tail, an intact 2-delay fast path for the scenarios with no faults, and a
log recovery that is flat in L: two prepares plus ceil(L/W) round trips.
"""

import math

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
from repro.shard import ShardConfig, ShardedKV
from repro.shard.workload import ScriptedClient
from repro.smr.log import RECOVERY_WINDOW

from benchmarks._common import emit, table

_FR_CONFIG = FastRobustConfig(
    cheap_quorum=CheapQuorumConfig(leader_timeout=15.0, unanimity_timeout=25.0)
)


def _decision_span(result):
    times = [r.decided_at for r in result.metrics.decisions.values()]
    return min(times), max(times)


_SMR_LOG_LENGTHS = (16, 128, 512)
_SMR_DOWNTIME = 20.0


def _smr_first_commit_after_recovery(n_slots):
    """Delays from ``recover_proc`` to the first NEW commit's reply, for a
    shard leader that crashed holding *n_slots* committed slots."""
    service = ShardedKV(
        ShardConfig(n_shards=1, n_processes=3, batch_max=1, seed=7,
                    retry_timeout=5.0, deadline=100_000.0)
    )
    leader = service.leader_of(0)
    client_pid = (leader + 1) % 3
    puts = [("put", f"k{i}", i) for i in range(n_slots)]
    assert service.run_workload([ScriptedClient(0, puts, pid=client_pid)]).ok
    kernel = service.kernel
    kernel.crash_process(leader)
    kernel.call_at(kernel.now + _SMR_DOWNTIME, lambda: kernel.recover_process(leader))
    report = service.run_workload(
        [ScriptedClient(1, [("put", "fresh", 0)], pid=client_pid)]
    )
    assert report.ok and not service.replica_divergence()
    return report.latency_summary().max - _SMR_DOWNTIME


def _measure_smr():
    return [
        [
            f"SMR leader crash after {n_slots} slots",
            math.ceil(n_slots / RECOVERY_WINDOW),
            f"{_smr_first_commit_after_recovery(n_slots):.1f}",
        ]
        for n_slots in _SMR_LOG_LENGTHS
    ]


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
    smr_rows = _measure_smr()
    emit(
        "E9",
        "Failover: first/last correct decision times (virtual delays)",
        table(["scenario", "first decision", "last decision"], rows)
        + "\n\n"
        + table(["scenario", "windows", "delays to first commit"], smr_rows),
        notes=(
            "Shape: fault-free runs decide at t=2; failover costs the\n"
            "detection timeout plus a bounded recovery tail, and always\n"
            "terminates with agreement.  A restarted log leader pays two\n"
            "prepares and one back-off whatever the log holds, then one\n"
            f"round trip per window of {RECOVERY_WINDOW} adopted slots (delays counted\n"
            "from recover_proc to the first new commit's reply)."
        ),
    )
    by_label = {r[0]: (float(r[1]), float(r[2])) for r in rows}
    assert by_label["PMP, no faults"][0] == 2.0
    assert by_label["Fast & Robust, no faults"][0] == 2.0
    assert by_label["PMP, leader crash @t=1"][1] > 2.0
    assert by_label["Fast & Robust, Byzantine leader"][1] > 2.0
    # log recovery — the shape, not the number: each extra window costs one
    # round trip, so 32x the log is nowhere near 32x the time
    points = [(row[1], float(row[2])) for row in smr_rows]
    for (w0, d0), (w1, d1) in zip(points, points[1:]):
        assert d1 - d0 == pytest.approx(2.0 * (w1 - w0))
    assert points[-1][1] < 2 * points[0][1]
