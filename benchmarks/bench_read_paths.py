"""E18 — read paths: consensus-read vs leader-read vs quorum-read.

Two halves:

* **Mode grid** — a read-mostly (95% get) Zipfian closed-loop workload
  over a 2-shard service, served three ways: every get committed through
  consensus (the seed behaviour), permission-fenced leader reads (local
  applied state validated by a one-sided grant probe), and one-sided
  quorum reads (commit watermark + entries straight from a majority of
  memories, no leader involvement).  Reported per cell: read throughput
  (reads per kilo-delay), read p50/p99, achieved read mix (counted per
  completion, so a skewed run cannot misreport itself), and fallbacks.
* **Chaos composition** — the acceptance run: a permission-revocation
  storm from t=30, a partition at t=60 healed at t=200, and a live 2→3
  elastic split at t=90, under a mixed-mode workload.  All three land
  while the workload still runs: with the storm alone, the ``--smoke``
  workload is done by t=144.  Every request must complete, the split must
  activate, the storm must force at least one fallback, and the staleness
  counter must stay zero — the fault plane may force fallbacks, never a
  stale answer.

Shapes asserted: on the 95%-read workload at 96 clients the fenced
leader path serves >= 1.5x and the quorum path >= 2x the consensus
baseline's reads/sec, with zero staleness violations across the chaos
composition.

Run ``python benchmarks/bench_read_paths.py --json out.json`` for
machine-readable output (``--smoke`` shrinks the grid for CI);
``test_read_paths`` runs the ``--smoke`` sizes under pytest.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

if __name__ == "__main__":  # standalone: make src/ importable
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import (
    ClosedLoopClient,
    ElasticConfig,
    ElasticKV,
    FaultScript,
    OperationMix,
    READ_LEADER,
    READ_QUORUM,
    ScriptedClient,
    ShardConfig,
    ShardedKV,
    SplitShard,
    ZipfianKeys,
)
from repro.shard.service import shard_region

SCHEMA = "repro-bench-read-paths/1"

#: acceptance floors: reads/sec of each path vs the consensus baseline, at
#: 96 clients (seed 17).  The leader floor was 3.0 until the pipelined
#: commit roughly halved commit latency, which speeds up the consensus
#: baseline itself: the fenced leader path now measures 1.91x (13 181 vs
#: 6 890 reads per kilo-delay) while still halving read p50 (6 vs 12).
#: 1.5 keeps the gate below that measurement; the quorum path measures
#: 5.62x against its unchanged floor.
LEADER_FLOOR = 1.5
QUORUM_FLOOR = 2.0


def _clients(n, n_ops, read_mode=None, think=0.0, base=0, read_fraction=0.95):
    return [
        ClosedLoopClient(
            client_id=base + i,
            n_ops=n_ops,
            keys=ZipfianKeys(256, prefix="bk"),
            mix=OperationMix(read_fraction=read_fraction),
            think_time=think,
            read_mode=read_mode,
        )
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# part A: the mode grid
# ----------------------------------------------------------------------
def measure_modes(client_counts, n_ops) -> dict:
    cells = []
    for n_clients in client_counts:
        row = {}
        for mode in ("consensus", READ_LEADER, READ_QUORUM):
            service = ShardedKV(
                ShardConfig(
                    n_shards=2, n_processes=3, batch_max=4, seed=17,
                    read_mode=mode, deadline=10.0**7,
                )
            )
            report = service.run_workload(_clients(n_clients, n_ops))
            assert report.ok, f"{mode} run lost requests: {report.summary()}"
            ledger = service.kernel.metrics
            reads = report.read_latency_summary()
            row[mode] = {
                "clients": n_clients,
                "reads": report.completed_reads,
                "reads_per_ktime": 1000.0 * report.reads_per_delay,
                "read_p50": reads.p50,
                "read_p99": reads.p99,
                "achieved_read_fraction": round(report.achieved_read_fraction, 4),
                "served_by_mode": ledger.total_reads_served(mode),
                "fallbacks": ledger.total_read_fallbacks(),
                "staleness_violations": ledger.staleness_violations,
            }
            assert ledger.staleness_violations == 0
            # achieved mix is reported per completion and must track the
            # requested 95% (binomial noise only) — the accounting fix
            assert abs(row[mode]["achieved_read_fraction"] - 0.95) < 0.05
        base = row["consensus"]["reads_per_ktime"]
        for mode in (READ_LEADER, READ_QUORUM):
            row[mode]["speedup_vs_consensus"] = round(
                row[mode]["reads_per_ktime"] / base, 2
            )
        cells.append(row)
    # the acceptance gate holds on the largest (most contended) cell:
    # consensus reads queue behind batch_max while the fenced/one-sided
    # paths serve every pending read per probe/quorum round
    biggest = cells[-1]
    assert biggest[READ_LEADER]["speedup_vs_consensus"] >= LEADER_FLOOR, biggest
    assert biggest[READ_QUORUM]["speedup_vs_consensus"] >= QUORUM_FLOOR, biggest
    return {"cells": cells}


# ----------------------------------------------------------------------
# part B: the chaos composition (storm + partition/heal + live split)
# ----------------------------------------------------------------------
def measure_chaos(n_ops) -> dict:
    script = FaultScript()
    script.at(30.0).permission_storm(
        pid=2, region=shard_region(0), shots=10, spacing=6.0
    )
    script.at(60.0).partition({0, 1}, {2}).heal(at=200.0)
    service = ElasticKV(
        ElasticConfig(
            n_shards=2, n_processes=3, batch_max=4, seed=11,
            read_mode=READ_LEADER, retry_timeout=30.0,
            deadline=400_000.0, faults=script,
        )
    )
    service.schedule_reconfig(90.0, SplitShard())
    seeds = [
        ScriptedClient(
            client_id=100 + w,
            script=[("put", f"bk{i}", f"s{i}") for i in range(w, 48, 3)],
        )
        for w in range(3)
    ]
    clients = (
        _clients(4, n_ops, think=2.0)
        + _clients(3, n_ops, read_mode=READ_QUORUM, think=2.0, base=40)
    )
    report = service.run_workload(seeds + clients)
    ledger = service.kernel.metrics
    assert report.ok, f"requests lost under chaos: {report.summary()}"
    assert service.shards == [0, 1, 2], "the split never activated"
    assert ledger.staleness_violations == 0, ledger.stale_reads
    assert ledger.total_read_fallbacks() > 0, "the storm never forced a fallback"
    return {
        "completed": report.completed_requests,
        "elapsed": report.elapsed,
        "shards_after": service.shards,
        "reads_served": {
            f"g{shard}:{mode}": count
            for (shard, mode), count in sorted(ledger.reads_served.items())
        },
        "fallbacks": {
            f"g{shard}:{mode}": count
            for (shard, mode), count in sorted(ledger.read_fallbacks.items())
        },
        "staleness_violations": ledger.staleness_violations,
        "perm_faults": len(ledger.faults_of("perm_change")),
    }


# ----------------------------------------------------------------------
def run(smoke: bool) -> dict:
    """Measure both halves, assert their shapes, emit the E18 table."""
    modes = measure_modes((96,) if smoke else (48, 96), 20 if smoke else 30)
    chaos = measure_chaos(15 if smoke else 30)

    from _common import emit, table

    rows = []
    for row in modes["cells"]:
        for mode in ("consensus", READ_LEADER, READ_QUORUM):
            cell = row[mode]
            rows.append(
                [
                    cell["clients"],
                    mode,
                    f"{cell['reads_per_ktime']:.0f}",
                    f"{cell.get('speedup_vs_consensus', 1.0):.2f}x",
                    f"{cell['read_p50']:.0f}",
                    f"{cell['read_p99']:.0f}",
                    f"{cell['achieved_read_fraction']:.3f}",
                    cell["fallbacks"],
                ]
            )
    emit(
        "E18",
        "Read paths: consensus vs fenced leader vs one-sided quorum "
        "(95%-read Zipfian, closed loop)",
        table(
            ["clients", "mode", "reads/ktime", "speedup", "p50", "p99",
             "achieved mix", "fallbacks"],
            rows,
        ),
        notes=(
            f"chaos composition: {chaos['completed']} requests across storm + "
            f"partition/heal + 2->3 split, {chaos['staleness_violations']} "
            f"staleness violations, fallbacks {chaos['fallbacks']}"
        ),
    )
    return {"schema": SCHEMA, "modes": modes, "chaos": chaos}


def test_read_paths():
    run(smoke=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the grid for CI")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="write a machine-readable report here")
    args = parser.parse_args(argv)
    report = run(args.smoke)
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
