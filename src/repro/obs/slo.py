"""Declarative SLOs evaluated on virtual-time burn-rate windows.

The service layer records every completion into the ledger's per-shard
latency windows; this module turns those raw samples into *objectives* —
"99% of shard-0 commits inside 40 delays", "99.9% of quorum reads served
without a consensus fallback" — and evaluates them the way an SRE pager
would: as **error-budget burn rates** over short and long windows of
*virtual* time.  With a target of ``t`` the error budget is ``1 - t``; a
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

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.metrics.reporting import format_table

#: slack for float comparisons on the virtual-time axis
EPS = 1e-9

#: objective scopes: which latency book feeds the burn computation
SCOPE_ALL = "all"
SCOPE_READ = "read"
SCOPES = (SCOPE_ALL, SCOPE_READ)


@dataclass(frozen=True)
class Objective:
    """One declarative service-level objective.

    At least one of *latency_budget* (latency SLO: fraction ``target`` of
    completions must finish within the budget, in virtual delay units)
    and *availability* (read-path SLO: at least this fraction of reads
    must be served without falling back to consensus) must be set; when
    both are, the objective burns at the worse of the two.

    *shard* scopes the objective to one shard (``None``: the whole
    service), *scope* picks the latency book (``"all"`` completions or
    ``"read"`` completions only — the per-read-mode view).
    """

    name: str
    latency_budget: Optional[float] = None
    target: float = 0.99
    shard: Optional[int] = None
    scope: str = SCOPE_ALL
    #: short (fast-alerting) burn window, in virtual time units
    window: float = 50.0
    #: long (confirming) burn window; ``None`` disables the second window
    long_window: Optional[float] = 200.0
    #: breach when BOTH windows burn at or above this rate
    burn_threshold: float = 2.0
    availability: Optional[float] = None

    def __post_init__(self) -> None:
        if self.latency_budget is None and self.availability is None:
            raise ConfigurationError(
                f"objective {self.name!r} needs a latency_budget and/or "
                "an availability target"
            )
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError("target must be a fraction in (0, 1)")
        if self.availability is not None and not 0.0 < self.availability < 1.0:
            raise ConfigurationError("availability must be a fraction in (0, 1)")
        if self.scope not in SCOPES:
            raise ConfigurationError(f"unknown scope {self.scope!r}; pick one of {SCOPES}")
        if self.window <= 0:
            raise ConfigurationError("window must be > 0")
        if self.long_window is not None and self.long_window < self.window:
            raise ConfigurationError("long_window must be >= window")
        if self.burn_threshold <= 0:
            raise ConfigurationError("burn_threshold must be > 0")

    @property
    def horizon(self) -> float:
        """The longest lookback this objective needs."""
        return self.window if self.long_window is None else self.long_window


@dataclass
class SloState:
    """Mutable evaluation state of one objective."""

    breached: bool = False
    breaches: int = 0
    burn_short: float = 0.0
    burn_long: float = 0.0
    #: cumulative (time, served, fallbacks) snapshots for availability
    #: deltas — bounded by pruning to the objective's horizon
    avail_samples: deque = field(default_factory=deque)


class SloTracker:
    """Evaluates objectives against the ledger on every sampling tick.

    Built by :meth:`ObsRuntime.track_slo`; :meth:`evaluate` runs from the
    runtime's virtual-time ticker, so burn windows advance in simulated
    time and the whole plane is deterministic under a fixed seed.
    """

    def __init__(self, runtime, objectives: Sequence[Objective] = ()) -> None:
        self.runtime = runtime
        self.kernel = runtime.kernel
        self.objectives: List[Objective] = []
        self.states: Dict[str, SloState] = {}
        self.add(objectives)

    def add(self, objectives: Sequence[Objective]) -> None:
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
            if objective.availability is not None:
                self._snapshot_availability(objective, state, now)
            short = self._burn(objective, state, now, objective.window)
            if objective.long_window is None:
                long = short
            else:
                long = self._burn(objective, state, now, objective.long_window)
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

    def _burn(self, objective: Objective, state: SloState, now: float, horizon: float) -> float:
        """Worst burn rate across the objective's components."""
        burn = 0.0
        if objective.latency_budget is not None:
            burn = self._latency_burn(objective, now, horizon)
        if objective.availability is not None:
            burn = max(burn, self._availability_burn(objective, state, now, horizon))
        return burn

    def _latency_burn(self, objective: Objective, now: float, horizon: float) -> float:
        """(bad fraction within the window) / (error budget)."""
        ledger = self.kernel.metrics
        book = (
            ledger.shard_read_latencies
            if objective.scope == SCOPE_READ
            else ledger.shard_latencies
        )
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

    def _snapshot_availability(self, objective: Objective, state: SloState, now: float) -> None:
        ledger = self.kernel.metrics
        served = fallbacks = 0
        for (shard, _mode), count in ledger.reads_served.items():
            if objective.shard is None or shard == objective.shard:
                served += count
        for (shard, _mode), count in ledger.read_fallbacks.items():
            if objective.shard is None or shard == objective.shard:
                fallbacks += count
        samples = state.avail_samples
        samples.append((now, served, fallbacks))
        floor = now - objective.horizon
        # keep one sample at or before the horizon as the delta baseline
        while len(samples) > 1 and samples[1][0] <= floor + EPS:
            samples.popleft()

    def _availability_burn(
        self, objective: Objective, state: SloState, now: float, horizon: float
    ) -> float:
        samples = state.avail_samples
        if not samples:
            return 0.0
        floor = now - horizon
        base = samples[0]
        for sample in samples:
            if sample[0] <= floor + EPS:
                base = sample
            else:
                break
        current = samples[-1]
        served = current[1] - base[1]
        fallbacks = current[2] - base[2]
        total = served + fallbacks
        if total == 0:
            return 0.0
        return (fallbacks / total) / (1.0 - objective.availability)

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
                    "scope": objective.scope,
                    "latency_budget": objective.latency_budget,
                    "target": objective.target,
                    "availability": objective.availability,
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
            budget = (
                "-" if objective.latency_budget is None
                else f"{objective.latency_budget:g}d@{objective.target:g}"
            )
            avail = (
                "-" if objective.availability is None else f"{objective.availability:g}"
            )
            rows.append(
                [
                    objective.name,
                    "*" if objective.shard is None else f"g{objective.shard}",
                    objective.scope,
                    budget,
                    avail,
                    f"{state.burn_short:.2f}/{state.burn_long:.2f}",
                    "BREACHED" if state.breached else "ok",
                    state.breaches,
                ]
            )
        return format_table(
            ["objective", "shard", "scope", "latency", "avail", "burn s/l", "state", "breaches"],
            rows,
        )
