"""Declarative SLOs evaluated on virtual-time burn-rate windows.

The service layer records every completion into the ledger's per-shard
latency windows; this module turns those raw samples into latency
*objectives* — "99% of shard-0 commits inside 40 delays" — and evaluates
them the way an SRE pager would: as **error-budget burn rates** over
short and long windows of *virtual* time.  With a target of ``t`` the error budget is ``1 - t``; a
burn rate of 1.0 means the budget is being consumed exactly at the
allowed pace, and an alert (a *breach* here) fires only when both the
short window (fast, noisy) and the long window (slow, confirming) burn
above the threshold — the standard multiwindow rule that suppresses
blips while still catching real regressions quickly.

Because the kernel is deterministic, breaches are reproducible events:
the same seed and fault script produce the same breach instants, which
the chaos tests assert exactly.  Transitions are written once, to the
metrics ledger's ``slo_timeline`` — which forwards each as a
``slo_breach`` / ``slo_recover`` point span, so they also appear in the
trace and in the runtime's trip dumps — and rendered by
:func:`~repro.metrics.reporting.run_report`; the burn itself is sampled
into the registry's ``slo.burn`` gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.metrics.reporting import format_table

#: slack for float comparisons on the virtual-time axis
EPS = 1e-9


@dataclass(frozen=True)
class Objective:
    """One declarative latency objective: fraction ``target`` of
    completions must finish within *latency_budget* (virtual delay
    units).  *shard* scopes the objective to one shard (``None``: the
    whole service).
    """

    name: str
    latency_budget: Optional[float] = None
    target: float = 0.99
    shard: Optional[int] = None
    #: short (fast-alerting) burn window, in virtual time units
    window: float = 50.0
    #: long (confirming) burn window; ``None`` disables the second window
    long_window: Optional[float] = 200.0
    #: breach when BOTH windows burn at or above this rate
    burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.latency_budget is None:
            raise ConfigurationError(f"objective {self.name!r} needs a latency_budget")
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError("target must be a fraction in (0, 1)")
        if self.window <= 0:
            raise ConfigurationError("window must be > 0")
        if self.long_window is not None and self.long_window < self.window:
            raise ConfigurationError("long_window must be >= window")
        if self.burn_threshold <= 0:
            raise ConfigurationError("burn_threshold must be > 0")


@dataclass
class SloState:
    """Mutable evaluation state of one objective."""

    breached: bool = False
    breaches: int = 0
    burn_short: float = 0.0
    burn_long: float = 0.0


class SloTracker:
    """Evaluates objectives against the ledger on every sampling tick.

    Built by :meth:`ObsRuntime.track_slo`; :meth:`evaluate` runs from the
    runtime's virtual-time ticker, so burn windows advance in simulated
    time and the whole plane is deterministic under a fixed seed.
    """

    def __init__(self, runtime, objectives: Sequence[Objective]) -> None:
        self.runtime = runtime
        self.kernel = runtime.kernel
        self.objectives: List[Objective] = []
        self.states: Dict[str, SloState] = {}
        for objective in objectives:
            if objective.name in self.states:
                raise ConfigurationError(f"duplicate objective {objective.name!r}")
            self.objectives.append(objective)
            self.states[objective.name] = SloState()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, now: float) -> None:
        """One tick: recompute every objective's burn, record transitions."""
        ledger = self.kernel.metrics
        registry = self.runtime.registry
        for objective in self.objectives:
            state = self.states[objective.name]
            short = self._latency_burn(objective, now, objective.window)
            if objective.long_window is None:
                long = short
            else:
                long = self._latency_burn(objective, now, objective.long_window)
            state.burn_short, state.burn_long = short, long
            registry.gauge("slo.burn", objective=objective.name).sample(now, short)
            threshold = objective.burn_threshold
            breached = short >= threshold - EPS and long >= threshold - EPS
            if breached and not state.breached:
                state.breached = True
                state.breaches += 1
                ledger.record_slo(
                    now, "slo_breach", objective.name,
                    burn_short=round(short, 6), burn_long=round(long, 6),
                )
            elif state.breached and not breached:
                state.breached = False
                ledger.record_slo(
                    now, "slo_recover", objective.name,
                    burn_short=round(short, 6), burn_long=round(long, 6),
                )

    def _latency_burn(self, objective: Objective, now: float, horizon: float) -> float:
        """(bad fraction within the window) / (error budget)."""
        book = self.kernel.metrics.shard_latencies
        if objective.shard is None:
            windows = list(book.values())
        else:
            window = book.get(objective.shard)
            windows = [] if window is None else [window]
        floor = now - horizon
        total = bad = 0
        budget = objective.latency_budget
        for window in windows:
            for completed_at, latency in window:
                if completed_at >= floor - EPS:
                    total += 1
                    if latency > budget + EPS:
                        bad += 1
        if total == 0:
            return 0.0
        return (bad / total) / (1.0 - objective.target)

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def breached(self) -> List[str]:
        """Names of the objectives currently in breach."""
        return [o.name for o in self.objectives if self.states[o.name].breached]

    def total_breaches(self) -> int:
        return sum(state.breaches for state in self.states.values())

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly state of every objective (flight dumps, reports)."""
        objectives = []
        for objective in self.objectives:
            state = self.states[objective.name]
            objectives.append(
                {
                    "name": objective.name,
                    "shard": objective.shard,
                    "latency_budget": objective.latency_budget,
                    "target": objective.target,
                    "burn_short": state.burn_short,
                    "burn_long": state.burn_long,
                    "breached": state.breached,
                    "breaches": state.breaches,
                }
            )
        return {"objectives": objectives, "breaches": self.total_breaches()}

    def summary(self) -> str:
        """Human-readable objective table for :func:`run_report`."""
        rows = []
        for objective in self.objectives:
            state = self.states[objective.name]
            rows.append(
                [
                    objective.name,
                    "*" if objective.shard is None else f"g{objective.shard}",
                    f"{objective.latency_budget:g}d@{objective.target:g}",
                    f"{state.burn_short:.2f}/{state.burn_long:.2f}",
                    "BREACHED" if state.breached else "ok",
                    state.breaches,
                ]
            )
        return format_table(
            ["objective", "shard", "latency", "burn s/l", "state", "breaches"],
            rows,
        )
