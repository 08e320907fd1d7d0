"""ASCII table formatting and the combined run report.

Benchmarks print paper-shaped tables (the rows the paper reports, plus our
measured column); this module renders them without third-party dependencies.
:func:`run_report` assembles one human-readable account of a whole run —
the workload's throughput/latency numbers, the fault timeline the failure
controller executed, the reconfiguration steps the elastic coordinator
drove, and (when an observability runtime was attached) the metrics
registry and per-task profile.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a monospace table with a header rule.

    >>> print(format_table(["algo", "delays"], [["PMP", 2.0]]))
    algo | delays
    -----+-------
    PMP  | 2.0
    """
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    rule = "-+-".join("-" * w for w in widths)
    lines = [fmt_row(list(headers)), rule]
    lines.extend(fmt_row(row) for row in materialised)
    return "\n".join(lines)


def format_check(label: str, ok: bool) -> str:
    """One-line pass/fail marker used in benchmark summaries."""
    return f"[{'PASS' if ok else 'FAIL'}] {label}"


def _timeline_table(title: str, records: Sequence[Any]) -> List[str]:
    """Render one FaultRecord timeline (fault or reconfig) as a section."""
    lines = [title, "-" * len(title)]
    if not records:
        lines.append("(none)")
        return lines
    rows = []
    for record in records:
        detail = " ".join(f"{k}={v}" for k, v in record.detail.items())
        rows.append([f"{record.time:g}", record.kind, record.subject, detail])
    lines.append(format_table(["time", "event", "subject", "detail"], rows))
    return lines


def run_report(
    workload: Optional[Any] = None,
    ledger: Optional[Any] = None,
    obs: Optional[Any] = None,
    title: str = "run report",
) -> str:
    """One human-readable account of a whole run.

    Pass whichever pieces the run produced: *workload* (a
    :class:`~repro.metrics.workload.WorkloadReport`) contributes the
    throughput/latency section, *ledger* (the kernel's
    :class:`~repro.metrics.ledger.MetricsLedger`) contributes the fault
    and reconfiguration timelines plus the safety verdict, and *obs* (an
    attached :class:`~repro.obs.runtime.ObsRuntime`) contributes the
    metrics-registry snapshot and the per-task wall-clock profile.
    """
    lines: List[str] = [title, "=" * len(title)]

    if workload is not None:
        lines += ["", "workload", "--------", workload.summary()]
        if workload.shards:
            lines.append(workload.per_shard_table())

    if ledger is not None:
        lines.append("")
        lines += _timeline_table("fault timeline", ledger.fault_timeline)
        lines.append("")
        lines += _timeline_table("reconfiguration timeline", ledger.reconfig_timeline)
        if ledger.slo_timeline:
            lines.append("")
            lines += _timeline_table("slo timeline", ledger.slo_timeline)
        lines += [
            "",
            "safety",
            "------",
            format_check(
                f"agreement ({len(ledger.violations)} violations)",
                not ledger.violations,
            ),
            format_check(
                f"read freshness ({ledger.staleness_violations} stale reads)",
                ledger.staleness_violations == 0,
            ),
        ]

    if obs is not None:
        if obs.slo is not None:
            breached = obs.slo.breached()
            verdict = format_check(
                f"slo objectives ({obs.slo.total_breaches()} breaches, "
                f"{len(breached)} in breach now)",
                not breached,
            )
            lines += ["", "slo plane", "---------", obs.slo.summary(), verdict]
        snapshot = obs.registry.snapshot()
        lines += ["", "metrics registry", "----------------"]
        if snapshot:
            rows = [[name, snapshot[name]] for name in sorted(snapshot)]
            lines.append(format_table(["metric", "value"], rows))
        else:
            lines.append("(no instruments)")
        spans = len(obs.finished) + obs.dropped
        lines.append(f"spans recorded: {spans} ({obs.dropped} dropped)")
        if obs.dumps:
            lines.append(
                f"flight recorder: {len(obs.dumps)} dump(s), "
                f"last tripped by {obs.dumps[-1]['reason']!r}"
            )
        if obs.profiler is not None and obs.profiler.profiles:
            lines += ["", "task profile (host wall clock)", obs.profiler.report()]

    return "\n".join(lines)

