"""One runner for the paper's tables, E1–E18.

Each experiment is a :class:`Table`.  ``measure()`` runs its simulations
once, ``check(report)`` asserts the qualitative shape the paper claims,
and ``render(report)`` draws the paper-shaped table, which is printed and
persisted as ``benchmarks/reports/<id>.txt``.  pytest runs every table;
the CLI runs the chosen ones (all by default) through the same steps::

    PYTHONPATH=src python -m pytest benchmarks/tables.py -q
    PYTHONPATH=src python benchmarks/tables.py [ID ...] [--json PATH]

``--json`` writes ``{id: report}``.  Only a table whose report is a
machine-readable dict carrying its ``schema`` string (E16, E17, E18) can
be asked for.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import pytest

import consensus_tables as consensus
import service_tables as service
from repro.metrics.reporting import format_table
from repro.shard.service import PIPELINE_DEPTH
from repro.smr.log import RECOVERY_WINDOW

REPORTS = pathlib.Path(__file__).parent / "reports"


def _asserted_in_measure(report: Any) -> None:
    """The shape is asserted run by run inside ``measure``."""


@dataclass(frozen=True)
class Table:
    id: str
    title: str
    measure: Callable[[], Any]
    render: Callable[[Any], str]
    check: Callable[[Any], None] = _asserted_in_measure
    notes: str = ""
    #: the report dict's ``schema``; only such a table can be written as JSON
    schema: Optional[str] = None


def grid(*headers: str) -> Callable[[Sequence[Sequence[object]]], str]:
    """Render a report that already is the table's rows."""
    return lambda rows: format_table(headers, rows)


TABLES = {table.id: table for table in (
    Table("E1", "Table 1 — Byzantine agreement resilience (measured rows marked OK)",
          consensus.measure_table1, consensus.render_table1, consensus.check_table1,
          "Measured: Fast & Robust with n=3=2f+1 reaches weak Byzantine\n"
          "agreement against every implemented strategy; with n=2 it blocks\n"
          "without ever violating agreement."),
    Table("E2", "2-deciding weak Byzantine agreement (common case, n = 2f+1)",
          consensus.measure_byzantine_delays,
          grid("algorithm", "n", "delays to first decision", "all decided"),
          consensus.check_byzantine_delays,
          "Paper: Fast & Robust decides in 2 delays (Theorem 4.9); the\n"
          "non-equivocating-broadcast slow path works at every size but\n"
          "pays polling round trips."),
    Table("E3", "Crash consensus: delays vs resilience (common case)",
          consensus.measure_crash_delays,
          grid("algorithm", "n", "m", "resilience", "delays"),
          consensus.check_crash_delays,
          "Shape: Disk Paxos and Message Paxos pay 4 delays; Fast Paxos\n"
          "reaches 2 only with n >= 2f+1; PMP reaches 2 all the way down\n"
          "to a single live process (Theorem 5.1)."),
    Table("E4", "Memory-crash sweep: fast path intact up to f_M = (m-1)/2",
          consensus.measure_memory_failures,
          grid("algorithm", "m", "memories crashed", "within bound", "delays",
               "outcome"),
          notes="Shape: every within-bound cell decides in exactly 2 delays;\n"
          "every beyond-bound cell blocks without a safety violation."),
    Table("E5", f"Aligned Paxos over {consensus.N}+{consensus.M} agents: "
          "combined-minority sweep",
          consensus.measure_aligned_majority,
          grid("proc crashes", "mem crashes", "total", "within bound", "outcome",
               "safe"),
          notes="Shape: the decided/blocked boundary tracks total agents lost,\n"
          "not which kind — processes and memories are interchangeable\n"
          "(the paper's Section 5.2 equivalence)."),
    Table("E6", "Theorem 6.1 adversary: delay the fast decider's writes",
          consensus.measure_lower_bound, consensus.render_lower_bound,
          consensus.check_lower_bound),
    Table("E7", "Signatures spent until the first decision (f = 1)",
          consensus.measure_signatures, consensus.render_signatures,
          consensus.check_signatures,
          "Shape: the fast path decides after exactly ONE signature by the\n"
          "decider (the leader signs its value, writes, decides); the\n"
          "slow path and prior fast BFT protocols sign per message."),
    Table("E8", "Robust Backup: latency and cost under Byzantine interference",
          consensus.measure_slow_path,
          grid("scenario", "n", "delays", "messages", "memory ops"),
          consensus.check_slow_path,
          "Shape: every adversary is reduced to a crash — agreement and\n"
          "termination hold at n = 2f+1; the cost is the non-equivocating\n"
          "broadcast polling (memory ops dominate)."),
    Table("E9", "Failover: first/last correct decision times (virtual delays)",
          consensus.measure_failover, consensus.render_failover,
          consensus.check_failover,
          "Shape: fault-free runs decide at t=2; failover costs the\n"
          "detection timeout plus a bounded recovery tail, and always\n"
          "terminates with agreement.  A restarted log leader pays two\n"
          "prepares and one back-off whatever the log holds, then one\n"
          f"round trip per window of {RECOVERY_WINDOW} adopted slots (delays counted\n"
          "from recover_proc to the first new commit's reply)."),
    Table("E10", f"SMR throughput: {service.N_COMMANDS}-command workload, "
          "3 replicas, 3 memories",
          service.measure_smr_throughput, service.render_smr_throughput,
          service.check_smr_throughput,
          "Shape: the dynamic-permission fast path commits at 2 delays per\n"
          "slot in steady state — twice the throughput of the Disk Paxos\n"
          "read-back loop, matching the paper's delay arithmetic.\n"
          "Slots live in disjoint registers: with two posted at a time each\n"
          "still decides two delays after its post, and the log commits one\n"
          "per delay."),
    Table("E11", f"Sharded KV throughput: {service.N_CLIENTS} Zipfian closed-loop "
          f"clients, {service.N_CLIENTS * service.OPS_PER_CLIENT} commands, "
          "3 replicas, 3 memories",
          service.measure_sharded_kv, service.render_sharded_kv,
          service.check_sharded_kv,
          "Cells: committed commands per simulated delay (mean batch fill).\n"
          "Shape: throughput grows along both axes — independent shard\n"
          "leaders commit slots in parallel, and batching amortises the\n"
          "two-delay Protected Memory Paxos instance across many commands.\n"
          "Depth rows: the same shard with one slot in flight vs the\n"
          f"default {PIPELINE_DEPTH}. A slot still takes two delays; the leader posts the\n"
          "next one early whenever a full batch is already waiting, so a\n"
          "backed-up queue commits depth/2 batches per delay."),
    Table("E11-ext", "Ablations: each fast-path ingredient removed in isolation",
          consensus.measure_ablations, grid("algorithm", "configuration", "delays"),
          notes="Shape: removing the permission skip, the Cheap Quorum fast\n"
          "path, or the protected memory handling individually restores\n"
          "the latency each mechanism was built to eliminate."),
    Table("E12", f"Decision-delay distributions, {len(consensus.SEEDS)} seeds, "
          f"{int(consensus.JITTER * 100)}% jitter",
          consensus.measure_latency_distributions,
          consensus.render_latency_distributions,
          consensus.check_latency_distributions,
          "Shape: the fast-path algorithms' p99 stays below the\n"
          "confirming-read algorithms' p50 — the two-delay structure is a\n"
          "property of the protocol, not of lucky timing.  Note Fast\n"
          "Paxos: jitter lets concurrent proposers collide, its unanimous\n"
          "fast quorum misses, and recovery dominates — the permission\n"
          "write (PMP/F&R) keeps its fast path because contention is\n"
          "resolved at the memory, not by luck of arrival order."),
    Table("E13", "Byzantine replicated log: Fast & Robust per slot, n = 2f+1 = 3",
          service.measure_byzantine_smr,
          grid("scenario", "workload", "slot-0 leader decision", "log agreement",
               "all replicas done"),
          notes="Shape: the leader commits slot 0 at t = 2 (the fast path is\n"
          "preserved across instances), honest replicas build identical\n"
          "logs, and one Byzantine replica of three changes nothing —\n"
          "message-passing BFT would need four replicas for this."),
    Table("E14", "Cost profile until all correct processes decide (n=3, common case)",
          consensus.measure_cost_profile,
          grid("algorithm", "delays", "messages", "memory ops", "signatures"),
          consensus.check_cost_profile,
          "Shape: the message-passing baselines use zero memory ops; the\n"
          "link-free disk model uses zero messages; the M&M algorithms\n"
          "blend both — and only the Byzantine stack pays for signatures."),
    Table("E16", "Partition failover: recovery latency and throughput under churn",
          service.measure_partition_failover, service.render_partition_failover,
          service.check_partition_failover,
          "Rejoin latency is heal-relative and duration-independent: the "
          "minority recovers through the memories (permission-takeover read), "
          "so the churn's history does not matter once it ends.",
          schema=service.PARTITION_FAILOVER_SCHEMA),
    Table("E17", "Elasticity: live shard splits/merges with permission-fenced cutover",
          service.measure_elasticity, service.render_elasticity,
          service.check_elasticity,
          "The cutover window is the dual-ownership dance (bulk stream, "
          "seal, barrier, delta, activate); requests in flight across it are "
          "carried by resend + dedup.  The merge's tombstone fence is checked "
          "directly: the deposed leader's writes NAK at every memory.",
          schema=service.ELASTICITY_SCHEMA),
    Table("E18", "Read paths: consensus vs fenced leader vs one-sided quorum "
          "(95%-read Zipfian, closed loop)",
          service.measure_read_paths, service.render_read_paths,
          service.check_read_paths, schema=service.READ_PATHS_SCHEMA),
)}


def run(table: Table) -> Any:
    """Measure, check, then print and persist one table; returns its report."""
    report = table.measure()
    table.check(report)
    text = f"[{table.id}] {table.title}\n\n{table.render(report)}\n"
    if table.notes:
        text += f"\n{table.notes}\n"
    print("\n" + text)
    REPORTS.mkdir(exist_ok=True)
    (REPORTS / f"{table.id.lower()}.txt").write_text(text)
    return report


@pytest.mark.parametrize("table", TABLES.values(), ids=TABLES.keys())
def test_table(table: Table) -> None:
    run(table)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help=f"tables to run (default: all of {', '.join(TABLES)})")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="write {id: report} here")
    args = parser.parse_args(argv)
    unknown = [i for i in args.ids if i not in TABLES]
    if unknown:
        parser.error(f"unknown table id(s): {', '.join(unknown)}")
    chosen = [TABLES[i] for i in args.ids or TABLES]
    if args.json is not None:
        plain = [table.id for table in chosen if table.schema is None]
        if plain:
            parser.error(f"--json: no machine-readable report for {', '.join(plain)}")
    reports = {table.id: run(table) for table in chosen}
    if args.json is not None:
        args.json.write_text(json.dumps(reports, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
