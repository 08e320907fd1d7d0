"""The paper's consensus tables: E1–E9, E11-ext, E12 and E14.

Each section measures one artefact of the paper with single-shot
consensus instances; ``benchmarks/tables.py`` registers, checks and
renders them.  The simulations run once: they are deterministic, so
re-running them would only re-measure the simulator, not the algorithm
(wall-clock is ``benchmarks/e2e``'s job).
"""

from __future__ import annotations

import math
import time

import pytest

from repro import (
    AlignedConfig,
    AlignedPaxos,
    CheapQuorumEquivocatorLeader,
    DiskPaxos,
    DiskPaxosConfig,
    EquivocatingBroadcaster,
    FastPaxos,
    FastRobust,
    FastRobustConfig,
    FaultScript,
    MessagePaxos,
    PaxosValueLiar,
    PmpConfig,
    ProtectedMemoryPaxos,
    RobustBackup,
    SilentByzantine,
    run_consensus,
)
from repro.consensus.cheap_quorum import CheapQuorumConfig
from repro.consensus.omega import crash_aware_omega
from repro.core.cluster import Cluster, ClusterConfig
from repro.lowerbound import (
    attack_disk_paxos,
    attack_naive_fast,
    attack_protected_memory_paxos,
    solo_fast_delay,
)
from repro.mem.layout import MemoryLayout
from repro.mem.operations import BatchOp, WriteOp
from repro.mem.permissions import Permission
from repro.mem.regions import RegionSpec
from repro.metrics.reporting import format_table as table
from repro.metrics.workload import LatencySummary
from repro.shard import ShardConfig, ShardedKV
from repro.shard.workload import ScriptedClient
from repro.sim.environment import ProcessEnv
from repro.sim.kernel import Kernel, SimConfig
from repro.sim.latency import JitteredSynchrony
from repro.smr.log import RECOVERY_WINDOW

#: Fast & Robust with Cheap Quorum timeouts short enough that a faulty
#: leader sends the followers to the backup within the run (E1, E9)
_FR_FALLBACK = FastRobustConfig(
    cheap_quorum=CheapQuorumConfig(leader_timeout=15.0, unanimity_timeout=25.0)
)


# ----------------------------------------------------------------------
# E1 — Table 1
# ----------------------------------------------------------------------
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
            FastRobust(_FR_FALLBACK), 3, 3, faults=faults,
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
    faults = (
        FaultScript()
        .make_byzantine(1, SilentByzantine())
        .make_byzantine(2, SilentByzantine())
    )
    result = run_consensus(RobustBackup(), 3, 3, faults=faults, deadline=800)
    return (not result.all_decided, not result.metrics.violations)


def measure_table1():
    """E1 — Table 1: fault-tolerance landscape for Byzantine agreement.

    The paper's Table 1 places its result (async, signatures, RDMA-provided
    non-equivocation, resiliency 2f+1) against the literature.  The
    literature rows are known bounds; our row is *measured*: Fast & Robust
    reaches agreement with n = 2f+1 = 3 under each Byzantine strategy we
    implement, and blocks safely (never splits) one step beyond the bound.
    """
    return _measure_our_row(), _measure_beyond_bound()


def check_table1(report):
    our_row, beyond = report
    assert all(agreed and clean for _n, agreed, clean in our_row)
    assert beyond == (True, True)


def render_table1(report):
    our_row, (blocked, safe) = report
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
    return table(
        ["work", "synchrony", "signatures", "non-equiv", "resiliency", "measured"],
        rows,
    )


# ----------------------------------------------------------------------
# E2 — Theorem 4.9 / Lemma B.6
# ----------------------------------------------------------------------
def measure_byzantine_delays():
    """E2 — Theorem 4.9 / Lemma B.6: 2-deciding weak Byzantine agreement.

    Regenerates the paper's headline Byzantine claim: in common-case
    executions Fast & Robust decides in two delays across cluster sizes,
    while the always-safe slow path alone (Robust Backup) is an order of
    magnitude slower — the composition is what buys the fast path without
    giving up resilience.
    """
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


def check_byzantine_delays(rows):
    fast_rows = [r for r in rows if r[0] == "Fast & Robust"]
    slow_rows = [r for r in rows if r[0] != "Fast & Robust"]
    assert all(float(r[2]) == 2.0 for r in fast_rows)
    assert all(float(r[2]) > 2.0 for r in slow_rows)


# ----------------------------------------------------------------------
# E3 — Theorem 5.1
# ----------------------------------------------------------------------
def measure_crash_delays():
    """E3 — Theorem 5.1: crash consensus, two delays at n >= f+1.

    The crash-failure comparison the paper draws in the introduction:

    * Disk Paxos: best resilience (n >= f+1) but >= 4 delays;
    * Fast Paxos: 2 delays but n >= 2f+1;
    * Protected Memory Paxos: both — 2 delays at n = f+1 (even n = 2),
      which no message-passing protocol can reach.
    """
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


def check_crash_delays(rows):
    by_name = {}
    for name, n, m, _bound, delays in rows:
        by_name.setdefault(name, []).append(float(delays))
    assert all(d == 2.0 for d in by_name["Protected Memory Paxos"])
    assert all(d == 2.0 for d in by_name["Fast Paxos"])
    assert all(d >= 4.0 for d in by_name["Disk Paxos"])
    assert all(d >= 4.0 for d in by_name["Message Paxos"])


# ----------------------------------------------------------------------
# E4 — m >= 2 f_M + 1
# ----------------------------------------------------------------------
def _memory_crash_run(protocol_factory, m, crashed, deadline):
    faults = FaultScript()
    for mid in range(crashed):
        faults.at(0.0).crash_memory(mid)
    return run_consensus(
        protocol_factory(), 3, m, faults=faults, deadline=deadline
    )


def measure_memory_failures():
    """E4 — memory-crash tolerance: m >= 2 f_M + 1.

    Sweeps crashed-memory counts at several array sizes for both the crash
    fast path (PMP) and the Byzantine fast path (Fast & Robust): any
    minority of memory crashes leaves the two-delay decision intact; one
    past the minority blocks (safely).
    """
    rows = []
    for label, factory in [
        ("PMP", ProtectedMemoryPaxos),
        ("Fast & Robust", FastRobust),
    ]:
        for m in (3, 5, 7):
            tolerance = (m - 1) // 2
            for crashed in range(0, tolerance + 2):
                within = crashed <= tolerance
                result = _memory_crash_run(
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


# ----------------------------------------------------------------------
# E5 — Section 5.2
# ----------------------------------------------------------------------
N, M = 3, 3


def _aligned_run(fp, fm, deadline):
    faults = FaultScript()
    for pid in range(fp):
        # Crash from the tail so the initial leader survives where possible.
        faults.at(1.0).crash_process(N - 1 - pid)
    for mid in range(fm):
        faults.at(1.0).crash_memory(mid)
    cluster = Cluster(
        AlignedPaxos(), ClusterConfig(N, M, deadline=deadline), faults
    )
    cluster.kernel.omega = crash_aware_omega(cluster.kernel)
    return cluster.run([f"v{p}" for p in range(N)])


def measure_aligned_majority():
    """E5 — Section 5.2: Aligned Paxos survives any combined-agent minority.

    Sweeps every (process crashes, memory crashes) split for n=3, m=3 — six
    agents, tolerance = 2 — and checks the boundary is exactly the combined
    majority, regardless of how the crashes divide between agent kinds.
    """
    tolerance = (N + M - 1) // 2
    rows = []
    for fp in range(0, N):
        for fm in range(0, M + 1):
            total = fp + fm
            if total > tolerance + 1:
                continue  # deep beyond the bound: same blocked outcome
            within = total <= tolerance
            result = _aligned_run(fp, fm, deadline=12_000 if within else 700)
            rows.append(
                [
                    fp,
                    fm,
                    total,
                    "yes" if within else "no",
                    "decided" if result.all_decided else "blocked",
                    "yes" if not result.metrics.violations else "NO",
                ]
            )
            if within:
                assert result.all_decided and result.agreed, (fp, fm)
            else:
                assert not result.all_decided and not result.metrics.violations
    return rows


# ----------------------------------------------------------------------
# E6 — Theorem 6.1
# ----------------------------------------------------------------------
def measure_lower_bound():
    """E6 — Theorem 6.1: static-permission shared memory cannot 2-decide.

    Runs the proof's construction as code: the strawman 2-deciding
    algorithm is driven into an agreement violation by delaying its writes
    past a second proposer's solo run; the same adversary cannot break Disk
    Paxos (which pays the confirming read, hence >= 4 delays) nor Protected
    Memory Paxos (whose dynamic permissions turn the delayed write into a
    nak).
    """
    solo = solo_fast_delay()
    naive = attack_naive_fast()
    pmp = attack_protected_memory_paxos()
    disk = attack_disk_paxos()
    return solo, naive, pmp, disk


def check_lower_bound(report):
    solo, naive, pmp, disk = report
    assert solo == 2.0
    assert naive.agreement_violated
    assert not pmp.agreement_violated and pmp.fast_path_write_naked
    assert not disk.agreement_violated


def render_lower_bound(report):
    solo, naive, pmp, disk = report
    rows = [
        [
            "strawman (2-deciding, static perms)",
            f"{solo:g}",
            "VIOLATED" if naive.agreement_violated else "held",
            str(naive.decisions),
        ],
        [
            "Disk Paxos (static perms, 4 delays)",
            "4",
            "VIOLATED" if disk.agreement_violated else "held",
            str(disk.decisions),
        ],
        [
            "Protected Memory Paxos (dynamic perms)",
            "2",
            "VIOLATED" if pmp.agreement_violated else "held",
            str(pmp.decisions),
        ],
    ]
    return (
        table(["algorithm", "solo delays", "agreement", "decisions"], rows)
        + "\n\nShape: 2 delays + static permissions is impossible — the\n"
        "strawman splits; Disk Paxos survives by paying 2 extra delays;\n"
        "PMP survives at 2 delays because the delayed write naks\n"
        f"(observed: {pmp.fast_path_write_naked})."
    )


# ----------------------------------------------------------------------
# E7 — Section 4.2
# ----------------------------------------------------------------------
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


def measure_signatures():
    """E7 — Section 4.2: one signature on the fast path.

    The paper: "Cheap Quorum decides in two delays using one signature in
    common executions, whereas the best prior algorithm requires 6 f_P + 2
    signatures".  We measure signatures consumed *up to the first decision*
    on the fast path, and contrast with the signature bill of the slow path
    (Robust Backup signs every broadcast unit).
    """
    fast = _sigs_until_first_decision(FastRobust())
    slow = _sigs_until_first_decision(RobustBackup())
    prior = 6 * 1 + 2  # the paper's 6f+2 comparison point at f=1
    return fast, slow, prior


def check_signatures(report):
    fast, slow, _prior = report
    assert fast[0] == 1
    assert fast[2] == 2.0
    assert slow[1] > fast[0]


def render_signatures(report):
    fast, slow, prior = report
    rows = [
        ["Fast & Robust fast path (measured)", f"{fast[2]:g}", fast[0], fast[1]],
        ["Robust Backup slow path (measured)", f"{slow[2]:g}", slow[0], slow[1]],
        ["Best prior 2-delay BFT [7] (paper)", "2", prior, "-"],
    ]
    return table(
        ["path", "delays", "decider signatures", "system signatures"], rows
    )


# ----------------------------------------------------------------------
# E8 — Theorem 4.4
# ----------------------------------------------------------------------
def measure_slow_path():
    """E8 — Theorem 4.4: the Robust Backup slow path under attack.

    The slow path's job is not speed but survival: it must terminate with
    agreement when the fast path cannot, under Byzantine interference and
    at every legal cluster size.  We measure its decision latency (in
    delays) and message/memory-operation bill for each adversary.
    """
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


def check_slow_path(rows):
    assert all(float(r[2]) > 2.0 for r in rows)  # genuinely the slow path


# ----------------------------------------------------------------------
# E9 — failover
# ----------------------------------------------------------------------
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


def _measure_smr_failover():
    return [
        [
            f"SMR leader crash after {n_slots} slots",
            math.ceil(n_slots / RECOVERY_WINDOW),
            f"{_smr_first_commit_after_recovery(n_slots):.1f}",
        ]
        for n_slots in _SMR_LOG_LENGTHS
    ]


def _measure_consensus_failover():
    cases = [
        ("PMP, no faults", ProtectedMemoryPaxos, {"deadline": 10_000}),
        ("PMP, leader crash @t=1", ProtectedMemoryPaxos, {
            "faults": FaultScript().at(1.0).crash_process(0),
            "omega": "crash-aware", "deadline": 10_000,
        }),
        ("Fast & Robust, no faults", lambda: FastRobust(_FR_FALLBACK),
         {"deadline": 30_000}),
        ("Fast & Robust, leader crash @t=0", lambda: FastRobust(_FR_FALLBACK), {
            "faults": FaultScript().at(0.0).crash_process(0),
            "omega": "crash-aware", "deadline": 30_000,
        }),
        ("Fast & Robust, Byzantine leader", lambda: FastRobust(_FR_FALLBACK), {
            "faults": FaultScript().make_byzantine(0, CheapQuorumEquivocatorLeader()),
            "omega": lambda now: 1, "deadline": 30_000,
        }),
    ]
    rows = []
    for label, protocol, options in cases:
        result = run_consensus(protocol(), 3, 3, **options)
        assert result.all_decided and result.agreed, label
        times = [r.decided_at for r in result.metrics.decisions.values()]
        rows.append([label, f"{min(times):g}", f"{max(times):g}"])
    return rows


def measure_failover():
    """E9 — failover latency: the cost of leaving the fast path.

    Measures how long recovery takes when the common case breaks:

    * Protected Memory Paxos — leader crashes; the successor grabs
      permissions (Theorem D.4's takeover) and decides;
    * Fast & Robust — the Cheap Quorum leader crashes or turns Byzantine;
      the followers panic, revoke, and finish in Preferential Paxos.

    * Replicated log — a shard leader crashes after L committed slots and
      restarts; it re-prepares and re-commits the adopted prefix in windows
      of ``RECOVERY_WINDOW`` slots, one chain per memory each.

    The absolute numbers depend on the (tunable) timeout constants; the
    shape that must hold is recovery-time ~ detection-timeout + a bounded
    protocol tail, an intact 2-delay fast path for the scenarios with no
    faults, and a log recovery that is flat in L: two prepares plus
    ceil(L/W) round trips.
    """
    return _measure_consensus_failover(), _measure_smr_failover()


def check_failover(report):
    rows, smr_rows = report
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


def render_failover(report):
    rows, smr_rows = report
    return (
        table(["scenario", "first decision", "last decision"], rows)
        + "\n\n"
        + table(["scenario", "windows", "delays to first commit"], smr_rows)
    )


# ----------------------------------------------------------------------
# E11-ext — ablations
# ----------------------------------------------------------------------
N_WRITES = 10_000


def _write_storm(chain: int):
    """``N_WRITES`` writes to one memory, *chain* work requests per post:
    ``(wall ops/s, virtual delays, sub-ops the ledger counted)``."""
    kernel = Kernel(
        SimConfig(n_processes=3, n_memories=3),
        MemoryLayout([RegionSpec("r", ("x",), Permission.open(range(3)))]),
    )
    env = ProcessEnv(kernel, 0)

    def writer():
        for first in range(0, N_WRITES, chain):
            ops = [WriteOp("r", ("x", "k"), i) for i in range(first, first + chain)]
            yield env.op_fanout(((0, BatchOp(ops) if chain > 1 else ops[0]),), 1)

    kernel.spawn(0, "writer", writer())
    start = time.perf_counter()
    kernel.run(until=10.0**9)
    wall = time.perf_counter() - start
    return N_WRITES / wall, kernel.now, kernel.metrics.total_mem_ops()


def measure_ablations():
    """E11 (extension) — ablations of the paper's fast-path ingredients.

    Three knife cuts that locate exactly where the paper's two delays come
    from:

    1. Protected Memory Paxos with the first-attempt permission skip turned
       *off*: the full prepare phase returns, 2 -> 8 delays.
    2. Fast & Robust with Cheap Quorum turned *off*: the fast path
       disappears and the composed algorithm degrades to its backup latency.
    3. Aligned Paxos `protected` vs `disk` memory handling: the confirming
       read re-appears, 2 -> 4+ delays (footnote 4's trade).

    Plus the doorbell A/B, informational: 10k register writes posted as
    fused chains of 8 versus one at a time.  The ops/s are this host's wall
    clock, printed and never asserted (``benchmarks/e2e/run.py --compare``
    judges wall).
    """
    rows = []

    pmp_on = run_consensus(ProtectedMemoryPaxos(), 3, 3, deadline=10_000)
    # segmented chain delivery shows the restored prepare at its
    # three-round cost; fused delivery carries it in one round
    segmented = Cluster(
        ProtectedMemoryPaxos(PmpConfig(skip_first_attempt=False)),
        ClusterConfig(3, 3, deadline=10_000),
    )
    segmented.kernel.config.chain_delivery = "segmented"
    pmp_off = segmented.run([f"value-{p + 1}" for p in range(3)])
    pmp_off_batched = run_consensus(
        ProtectedMemoryPaxos(PmpConfig(skip_first_attempt=False)), 3, 3,
        deadline=10_000,
    )
    rows.append(["PMP", "permission skip ON", f"{pmp_on.earliest_decision_delay:g}"])
    rows.append(
        ["PMP", "skip OFF, segmented chains", f"{pmp_off.earliest_decision_delay:g}"]
    )
    rows.append(
        ["PMP", "skip OFF, fused chains",
         f"{pmp_off_batched.earliest_decision_delay:g}"]
    )

    fr_on = run_consensus(FastRobust(), 3, 3, deadline=30_000)
    fr_off = run_consensus(
        FastRobust(FastRobustConfig(enable_fast_path=False)), 3, 3,
        deadline=60_000,
    )
    rows.append(
        ["Fast & Robust", "Cheap Quorum ON", f"{fr_on.earliest_decision_delay:g}"]
    )
    rows.append(
        ["Fast & Robust", "Cheap Quorum OFF", f"{fr_off.earliest_decision_delay:g}"]
    )

    ap_protected = run_consensus(AlignedPaxos(), 3, 3, deadline=10_000)
    ap_disk = run_consensus(
        AlignedPaxos(AlignedConfig(variant="disk")), 3, 3, deadline=10_000
    )
    rows.append(
        ["Aligned Paxos", "protected memories",
         f"{ap_protected.earliest_decision_delay:g}"]
    )
    rows.append(
        ["Aligned Paxos", "disk-style memories",
         f"{ap_disk.earliest_decision_delay:g}"]
    )

    for chain, label in ((8, "fused chains of 8"), (1, "one at a time")):
        rate, delays, counted = _write_storm(chain)
        assert counted == N_WRITES, (chain, counted)
        rows.append(
            ["mem-op storm", f"{N_WRITES:,} writes, {label} ({rate:,.0f} ops/s)",
             f"{delays:g}"]
        )

    assert (
        pmp_on.earliest_decision_delay == 2.0
        and pmp_off.earliest_decision_delay >= 8.0
        and pmp_off_batched.earliest_decision_delay == 4.0
        and fr_on.earliest_decision_delay == 2.0
        and fr_off.earliest_decision_delay > 2.0
        and ap_protected.earliest_decision_delay == 2.0
        and ap_disk.earliest_decision_delay >= 4.0
    )
    return rows


# ----------------------------------------------------------------------
# E12 — decision-delay distributions
# ----------------------------------------------------------------------
SEEDS = range(30)
JITTER = 0.3


def sweep_decision_delays(
    protocol_factory,
    seeds,
    latency_factory=None,
    n_processes=3,
    n_memories=3,
    deadline=30_000.0,
):
    """Earliest-decision delay of one run per seed.  Returns ``(samples,
    undecided)`` — a run that never decides carries no delay sample — and
    raises ``ValueError`` when no run decided at all."""
    samples = []
    undecided = 0
    for seed in seeds:
        result = run_consensus(
            protocol_factory(),
            n_processes,
            n_memories,
            latency=latency_factory() if latency_factory else None,
            seed=seed,
            deadline=deadline,
        )
        delay = result.earliest_decision_delay
        if delay is None:
            undecided += 1
        else:
            samples.append(delay)
    if not samples:
        raise ValueError("no run decided: nothing to summarize")
    return samples, undecided


def measure_latency_distributions():
    """E12 (extension) — decision-delay distributions under network jitter.

    The paper's delay counts hold on the nominal schedule; real deployments
    jitter.  This sweeps 30 seeds of 30%-jittered synchrony and reports the
    decision-delay distribution per algorithm: the *ordering* of the
    nominal table (PMP = Fast&Robust fast path < Disk Paxos = Message
    Paxos) must survive jitter, with the fast-path algorithms staying
    strictly below the confirming-read algorithms at every percentile.
    """
    cases = [
        ("Protected Memory Paxos", ProtectedMemoryPaxos, 3),
        ("Fast & Robust", FastRobust, 3),
        ("Fast Paxos", FastPaxos, 0),
        ("Disk Paxos", DiskPaxos, 3),
        ("Message Paxos", MessagePaxos, 0),
    ]
    return {
        name: sweep_decision_delays(
            factory,
            seeds=SEEDS,
            latency_factory=lambda: JitteredSynchrony(JITTER),
            n_memories=memories,
        )
        for name, factory, memories in cases
    }


def check_latency_distributions(sweeps):
    stats = {name: LatencySummary.of(samples) for name, (samples, _) in sweeps.items()}
    fast = max(stats["Protected Memory Paxos"].p99, stats["Fast & Robust"].p99)
    slow = min(stats["Disk Paxos"].p50, stats["Message Paxos"].p50)
    assert fast < slow
    assert sweeps["Protected Memory Paxos"][1] == 0  # undecided runs
    assert sweeps["Fast & Robust"][1] == 0


def render_latency_distributions(sweeps):
    stats = {name: LatencySummary.of(samples) for name, (samples, _) in sweeps.items()}
    rows = [
        [name, s.count]
        + [f"{x:.2f}" for x in (s.mean, s.p50, s.p95, s.p99, min(sweeps[name][0]), s.max)]
        for name, s in stats.items()
    ]
    return table(
        ["algorithm", "runs", "mean", "p50", "p95", "p99", "min", "max"], rows
    )


# ----------------------------------------------------------------------
# E14 — the message/memory trade
# ----------------------------------------------------------------------
def measure_cost_profile():
    """E14 (extension) — the message/memory trade: bills per decision.

    The M&M model lets algorithms pay in two currencies: messages and
    memory operations.  This counts both for each algorithm until all
    correct processes decide (common case, n=3): the memory-heavy
    algorithms send few or no messages, the message-passing baselines touch
    no memory, and the hybrids sit in between — a quantitative x-ray of the
    paper's Figure 1 topology.
    """
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


def check_cost_profile(rows):
    by_name = {r[0]: r for r in rows}
    assert by_name["Message Paxos"][3] == 0  # no memory ops
    assert by_name["Fast Paxos"][3] == 0
    assert by_name["Disk Paxos (link-free)"][2] == 0  # no messages
    assert by_name["Protected Memory Paxos"][4] == 0  # no signatures
    assert by_name["Fast & Robust"][4] > 0
