"""E11 (extension) — ablations of the design choices DESIGN.md calls out.

Three knife cuts that locate exactly where the paper's two delays come
from:

1. Protected Memory Paxos with the first-attempt permission skip turned
   *off*: the full prepare phase returns, 2 -> 8 delays.
2. Fast & Robust with Cheap Quorum turned *off*: the fast path disappears
   and the composed algorithm degrades to its backup latency.
3. Aligned Paxos `protected` vs `disk` memory handling: the confirming
   read re-appears, 2 -> 4+ delays (footnote 4's trade).

Plus the doorbell A/B, informational: 10k register writes posted as fused
chains of 8 versus one at a time.  The ops/s are this host's wall clock,
printed and never asserted (``benchmarks/e2e/run.py --compare`` judges wall).
"""

import time

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
from repro.mem.layout import MemoryLayout
from repro.mem.operations import BatchOp, WriteOp
from repro.mem.permissions import Permission
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv
from repro.sim.kernel import Kernel, SimConfig

from benchmarks._common import emit, table

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

    for chain, label in ((8, "fused chains of 8"), (1, "one at a time")):
        rate, delays, counted = _write_storm(chain)
        assert counted == N_WRITES, (chain, counted)
        rows.append(
            ["mem-op storm", f"{N_WRITES:,} writes, {label} ({rate:,.0f} ops/s)",
             f"{delays:g}"]
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


def test_design_choice_ablations():
    rows, checks = _measure()
    emit(
        "E11-ext",
        "Ablations: each fast-path ingredient removed in isolation",
        table(["algorithm", "configuration", "delays"], rows),
        notes=(
            "Shape: removing the permission skip, the Cheap Quorum fast\n"
            "path, or the protected memory handling individually restores\n"
            "the latency each mechanism was built to eliminate."
        ),
    )
    assert checks
