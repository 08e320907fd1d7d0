"""E11 (extension) — ablations of the design choices DESIGN.md calls out.

Three knife cuts that locate exactly where the paper's two delays come
from:

1. Protected Memory Paxos with the first-attempt permission skip turned
   *off*: the full prepare phase returns, 2 -> 8 delays.
2. Fast & Robust with Cheap Quorum turned *off*: the fast path disappears
   and the composed algorithm degrades to its backup latency.
3. Aligned Paxos `protected` vs `disk` memory handling: the confirming
   read re-appears, 2 -> 4+ delays (footnote 4's trade).
"""

import pytest

from repro import (
    AlignedConfig,
    AlignedPaxos,
    FastRobust,
    FastRobustConfig,
    PmpConfig,
    ProtectedMemoryPaxos,
    run_consensus,
)
from repro.consensus.cheap_quorum import CheapQuorumConfig
from repro.core.cluster import Cluster, ClusterConfig

from benchmarks._common import emit, once, table


def _measure():
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

    checks = (
        pmp_on.earliest_decision_delay == 2.0
        and pmp_off.earliest_decision_delay >= 8.0
        and pmp_off_batched.earliest_decision_delay == 4.0
        and fr_on.earliest_decision_delay == 2.0
        and fr_off.earliest_decision_delay > 2.0
        and ap_protected.earliest_decision_delay == 2.0
        and ap_disk.earliest_decision_delay >= 4.0
    )
    return rows, checks


def test_design_choice_ablations(benchmark):
    rows, checks = once(benchmark, _measure)
    emit(
        "E11",
        "Ablations: each fast-path ingredient removed in isolation",
        table(["algorithm", "configuration", "delays"], rows),
        notes=(
            "Shape: removing the permission skip, the Cheap Quorum fast\n"
            "path, or the protected memory handling individually restores\n"
            "the latency each mechanism was built to eliminate."
        ),
    )
    assert checks
