"""Shared helpers for the benchmark suite.

Every benchmark regenerates one paper artefact (see DESIGN.md's
per-experiment index): it runs the relevant simulations once
(simulations are deterministic; re-running them only re-measures the
simulator, not the algorithm, and wall-clock is ``benchmarks/e2e``'s job),
prints the paper-shaped table, persists it under ``benchmarks/reports/``
and asserts the qualitative shape the paper claims.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, Sequence

from repro.metrics.reporting import format_table

REPORTS = pathlib.Path(__file__).parent / "reports"


def emit(experiment_id: str, title: str, table: str, notes: str = "") -> str:
    """Print and persist one experiment's table; returns the rendered text."""
    text = f"[{experiment_id}] {title}\n\n{table}\n"
    if notes:
        text += f"\n{notes}\n"
    print("\n" + text)
    REPORTS.mkdir(exist_ok=True)
    (REPORTS / f"{experiment_id.lower()}.txt").write_text(text)
    return text


def table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    return format_table(headers, rows)
