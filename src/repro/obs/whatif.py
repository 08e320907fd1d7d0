"""Causal what-if profiling: counterfactual experiments on the kernel.

Classic profilers report where time *was* spent; a causal profiler asks
the question that actually matters for optimization: *if this component
were faster, how much faster would the end-to-end result be?*  On real
hardware that takes statistical trickery (Coz's virtual speedups); on a
deterministic simulation kernel it is exact — rebuild the identical
scenario (same seed, same fault script, same clients), wrap the latency
model in a :class:`LatencyOverride` that scales one component, and rerun.
The delta between the two runs is the component's true causal
contribution, including every queueing and overlap effect a span-sum
profiler gets wrong.

Override rules target the units of the paper's cost model:

* :class:`ScaleMemory` — one memory's (or every memory's) op legs, the
  "faster NVMM device" experiment;
* :class:`ScaleLink` — message delay on a link (or all links), the
  "faster network" experiment;
* :class:`ScaleIssue` — the per-WR issue increment inside doorbell-batched
  chains, the "faster NIC doorbell" experiment;
* :class:`ScalePhase` — every transport leg priced while a matching phase
  span is open (``log.prepare``, ``log.phase2``, ...), the "what if this
  protocol phase were cheap" experiment.  Needs an attached obs runtime;
  the profiler's scenario is expected to attach one.

:class:`WhatIfProfiler` drives scenarios, extracts a
:class:`Measurement` per run (decision delays, commit p99,
critical-path recomposition, trace hash), and its one driver,
:meth:`WhatIfProfiler.rank`, is a greedy top-k bottleneck search: each
round it measures every remaining candidate *stacked on the winners so
far* and keeps the one with the largest measured improvement — ranking
by actual effect, never by span totals.  Its first round measures each
candidate on its own against the baseline.

Validation (asserted in tests): on skip-off PMP under segmented chain
delivery the top-ranked experiment is the prepare fan-out, and scaling
it by 1/3 reproduces the doorbell-batching win exactly — 8 delays down
to 4, the same number fused delivery measures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, WhatIfDivergence
from repro.metrics.reporting import format_table
from repro.metrics.workload import percentile
from repro.sim.kernel import run_hash
from repro.sim.latency import LatencyModel, NominalLatency


# ----------------------------------------------------------------------
# override rules
# ----------------------------------------------------------------------
class Rule:
    """Base class for override rules; factor > 0 scales a delay."""

    __slots__ = ("factor",)

    def __init__(self, factor: float) -> None:
        if factor <= 0:
            raise ConfigurationError("override factor must be > 0")
        self.factor = factor

    def describe(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


class ScaleMemory(Rule):
    """Scale both op legs of one memory (``mid=None``: every memory)."""

    __slots__ = ("mid",)

    def __init__(self, factor: float, mid: Optional[int] = None) -> None:
        super().__init__(factor)
        self.mid = mid

    def describe(self) -> str:
        target = "all memories" if self.mid is None else f"mu{self.mid + 1}"
        return f"{target} x{self.factor:g}"


class ScaleLink(Rule):
    """Scale message delay on (src, dst); ``None`` wildcards either end."""

    __slots__ = ("src", "dst")

    def __init__(
        self, factor: float, src: Optional[int] = None, dst: Optional[int] = None
    ) -> None:
        super().__init__(factor)
        self.src = src
        self.dst = dst

    def matches(self, src: int, dst: int) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )

    def describe(self) -> str:
        src = "*" if self.src is None else f"p{self.src + 1}"
        dst = "*" if self.dst is None else f"p{self.dst + 1}"
        return f"link {src}->{dst} x{self.factor:g}"


class ScaleIssue(Rule):
    """Scale the per-WR issue increment of doorbell-batched chains."""

    __slots__ = ()

    def describe(self) -> str:
        return f"WR issue x{self.factor:g}"


class ScalePhase(Rule):
    """Scale every transport leg priced under a matching open phase span.

    *pattern* is a substring match on phase-span names (``"log.prepare"``
    matches the takeover prepare fan-out, single-shot PMP's included,
    ``"log."`` every replicated-log phase).  Both legs of a memory op are scaled: the request leg looks
    up the open phases of the *issuing* task, and the matching factor is
    carried to the response leg through a per-``(pid, mid)`` FIFO — valid
    because overridden delays remain constant per component, so legs
    complete in issue order (the kernel's FIFO queue-pair property).

    Caveat: an op that hangs forever on a crashed memory never prices its
    response leg, which would desynchronize the FIFO for later ops on the
    same ``(pid, mid)``.  Phase experiments therefore belong on the
    chaos-free common-case runs the paper's delay accounting describes.
    """

    __slots__ = ("pattern",)

    def __init__(self, factor: float, pattern: str) -> None:
        super().__init__(factor)
        if not pattern:
            raise ConfigurationError("phase pattern must be non-empty")
        self.pattern = pattern

    def describe(self) -> str:
        return f"phase {self.pattern!r} x{self.factor:g}"


# ----------------------------------------------------------------------
# the override latency model
# ----------------------------------------------------------------------
class LatencyOverride(LatencyModel):
    """Wrap *base* and scale the components named by *rules*.

    Defining the ``*_delay`` methods drops the cached constants
    (``LatencyModel.__init_subclass__``), so a kernel adopting an
    override always takes the dynamic pricing path — install it either
    at construction or through ``Kernel.set_latency`` (which re-derives
    the constant cache).  The base model's own constants are still
    honoured: a declared constant is read directly, so wrapping
    ``NominalLatency`` prices exactly like ``NominalLatency`` wherever no
    rule matches.
    """

    def __init__(self, base: Optional[LatencyModel] = None, rules: Sequence[Rule] = ()) -> None:
        self.base = base if base is not None else NominalLatency()
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self.mem_rules: List[ScaleMemory] = []
        self.link_rules: List[ScaleLink] = []
        self.issue_rules: List[ScaleIssue] = []
        self.phase_rules: List[ScalePhase] = []
        for rule in self.rules:
            if isinstance(rule, ScaleMemory):
                self.mem_rules.append(rule)
            elif isinstance(rule, ScaleLink):
                self.link_rules.append(rule)
            elif isinstance(rule, ScaleIssue):
                self.issue_rules.append(rule)
            elif isinstance(rule, ScalePhase):
                self.phase_rules.append(rule)
            else:
                raise ConfigurationError(f"unknown override rule {rule!r}")
        self._kernel = None
        #: (pid, mid) -> FIFO of phase factors awaiting their response leg
        self._pending: Dict[Tuple[int, int], deque] = {}
        # Per-component constant scaling preserves op ordering per memory,
        # so a constant base keeps the FIFO queue-pair property (fused
        # read chains stay enabled — the counterfactual run must take the
        # same code paths as its baseline).  Phase rules vary mid-stream
        # and forfeit it.
        self.fifo_memory_ops = not self.phase_rules and (
            self.base.constant_request_delay is not None
            and self.base.constant_response_delay is not None
            and self.base.constant_issue_delay is not None
        )

    def bind(self, kernel) -> None:
        self._kernel = kernel
        self.base.bind(kernel)

    def describe(self) -> str:
        return ", ".join(rule.describe() for rule in self.rules) or "(no rules)"

    # -- factor lookups -------------------------------------------------
    def _mem_factor(self, mid: int) -> float:
        factor = 1.0
        for rule in self.mem_rules:
            if rule.mid is None or rule.mid == mid:
                factor *= rule.factor
        return factor

    def _phase_factor(self) -> float:
        """Product of phase rules matching any open enclosing phase.

        Each rule applies at most once however many nested phases match
        it.  Without an attached obs runtime (or outside any task) no
        phase information exists and the factor is 1.
        """
        if not self.phase_rules:
            return 1.0
        kernel = self._kernel
        if kernel is None or kernel.obs is None:
            return 1.0
        task = kernel.obs.current_task
        if task is None:
            return 1.0
        names = kernel.obs.enclosing_phases(task)
        if not names:
            return 1.0
        factor = 1.0
        for rule in self.phase_rules:
            if any(rule.pattern in name for name in names):
                factor *= rule.factor
        return factor

    # -- pricing --------------------------------------------------------
    def message_delay(self, src, dst, now, rng) -> float:
        base = self.base.constant_message_delay
        if base is None:
            base = self.base.message_delay(src, dst, now, rng)
        for rule in self.link_rules:
            if rule.matches(int(src), int(dst)):
                base *= rule.factor
        if self.phase_rules:
            base *= self._phase_factor()
        return base

    def memory_request_delay(self, pid, mid, now, rng) -> float:
        base = self.base.constant_request_delay
        if base is None:
            base = self.base.memory_request_delay(pid, mid, now, rng)
        base *= self._mem_factor(int(mid))
        if self.phase_rules:
            factor = self._phase_factor()
            # hand the factor to the matching response leg (FIFO per pair)
            self._pending.setdefault((int(pid), int(mid)), deque()).append(factor)
            base *= factor
        return base

    def memory_response_delay(self, pid, mid, now, rng) -> float:
        base = self.base.constant_response_delay
        if base is None:
            base = self.base.memory_response_delay(pid, mid, now, rng)
        base *= self._mem_factor(int(mid))
        if self.phase_rules:
            pending = self._pending.get((int(pid), int(mid)))
            if pending:
                base *= pending.popleft()
        return base

    def memory_issue_delay(self, pid, mid, now, rng) -> float:
        base = self.base.constant_issue_delay
        if base is None:
            base = self.base.memory_issue_delay(pid, mid, now, rng)
        for rule in self.issue_rules:
            base *= rule.factor
        base *= self._mem_factor(int(mid))
        if self.phase_rules:
            base *= self._phase_factor()
        return base


# ----------------------------------------------------------------------
# experiments and measurements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Experiment:
    """A named bundle of override rules — one counterfactual."""

    name: str
    rules: Tuple[Rule, ...]

    def describe(self) -> str:
        return ", ".join(rule.describe() for rule in self.rules)


def phase_experiment(pattern: str, factor: float, name: Optional[str] = None) -> Experiment:
    return Experiment(name or f"phase:{pattern}", (ScalePhase(factor, pattern),))


def memory_experiment(mid: Optional[int], factor: float, name: Optional[str] = None) -> Experiment:
    label = "mem:*" if mid is None else f"mem:mu{mid + 1}"
    return Experiment(name or label, (ScaleMemory(factor, mid),))


def link_experiment(
    factor: float,
    src: Optional[int] = None,
    dst: Optional[int] = None,
    name: Optional[str] = None,
) -> Experiment:
    return Experiment(name or "links", (ScaleLink(factor, src, dst),))


def issue_experiment(factor: float, name: Optional[str] = None) -> Experiment:
    return Experiment(name or "wr-issue", (ScaleIssue(factor),))


@dataclass
class Measurement:
    """End-to-end numbers extracted from one finished run."""

    final_time: float
    earliest_delay: Optional[float] = None
    latency_p99: Optional[float] = None
    trace_hash: str = ""
    #: critical-path recomposition of the earliest decision, when traced:
    #: phase name -> {"msg": .., "mem": .., "queue": ..}
    phase_delays: Optional[Dict[str, Dict[str, float]]] = None

    @property
    def cost(self) -> float:
        """The cost the profiler ranks by (lower is better): the earliest
        decision delay, else the commit p99, else the final time."""
        for value in (self.earliest_delay, self.latency_p99):
            if value is not None:
                return value
        return self.final_time


def measure(kernel) -> Measurement:
    """Extract a :class:`Measurement` from a finished run's kernel."""
    ledger = kernel.metrics
    delays = {
        int(pid): record.delays
        for pid, record in ledger.decisions.items()
        if record.delays is not None
    }
    samples = [
        latency
        for window in ledger.shard_latencies.values()
        for _completed_at, latency in window
    ]
    measurement = Measurement(
        final_time=kernel.now,
        earliest_delay=ledger.earliest_decision_delay(),
        latency_p99=percentile(samples, 0.99) if samples else None,
        trace_hash=run_hash(kernel),
    )
    obs = kernel.obs
    if obs is not None and delays:
        from repro.obs.critical import critical_path

        pid = min(delays, key=lambda p: (delays[p], p))
        try:
            path = critical_path(obs, pid)
        except ValueError:
            path = None
        if path is not None:
            measurement.phase_delays = path.phase_delays()
    return measurement


# ----------------------------------------------------------------------
# the profiler
# ----------------------------------------------------------------------
@dataclass
class WhatIfRun:
    """One executed scenario: its kernel and its measurement."""

    name: str
    kernel: Any
    measurement: Measurement


@dataclass
class RankedBottleneck:
    """One greedy round's winner."""

    rank: int
    experiment: Experiment
    before: float
    after: float
    run: WhatIfRun

    @property
    def improvement(self) -> float:
        return self.before - self.after

    @property
    def speedup(self) -> Optional[float]:
        return None if self.after == 0 else self.before / self.after


@dataclass
class BottleneckReport:
    """Measured top-k ranking plus the per-round evaluation record."""

    baseline: WhatIfRun
    ranked: List[RankedBottleneck] = field(default_factory=list)
    #: per greedy round: experiment name -> measured cost (stacked)
    rounds: List[Dict[str, float]] = field(default_factory=list)

    @property
    def top(self) -> Optional[RankedBottleneck]:
        return self.ranked[0] if self.ranked else None

    def summary(self) -> str:
        rows = [
            [
                entry.rank,
                entry.experiment.name,
                entry.experiment.describe(),
                f"{entry.before:g}",
                f"{entry.after:g}",
                f"-{entry.improvement:g}",
                "-" if entry.speedup is None else f"{entry.speedup:.2f}x",
            ]
            for entry in self.ranked
        ]
        table = format_table(
            ["rank", "experiment", "override", "before", "after", "delta", "speedup"],
            rows,
        )
        # "auto": the cost falls back from decision delay to p99 to time
        head = (
            "bottleneck ranking by measured auto "
            f"(baseline: {self.baseline.measurement.cost:g})"
        )
        return f"{head}\n{table}"


class WhatIfProfiler:
    """Runs counterfactual experiments against a scenario closure.

    *scenario* is a callable taking a latency model and returning a
    finished run — anything exposing ``.kernel`` (a ``RunResult``, a
    ``ShardedKV``) or the kernel itself.  It must build a **fresh**
    system per call (same seed, same inputs): the profiler calls it once
    per experiment, and determinism across calls is what makes the
    deltas causal.

    Every run prices on a fresh :class:`NominalLatency`, which experiments
    wrap in a fresh :class:`LatencyOverride`, so no pricing state leaks
    between runs.  Runs are ranked by :attr:`Measurement.cost`.
    """

    def __init__(
        self,
        scenario: Callable[[LatencyModel], Any],
        check_determinism: bool = False,
    ) -> None:
        self.scenario = scenario
        self.check_determinism = check_determinism
        self._baseline: Optional[WhatIfRun] = None

    # -- execution ------------------------------------------------------
    def _execute(self, latency: LatencyModel):
        outcome = self.scenario(latency)
        kernel = getattr(outcome, "kernel", outcome)
        if not hasattr(kernel, "metrics"):
            raise ConfigurationError(
                "scenario must return a kernel or an object with .kernel"
            )
        return kernel

    def run(self, rules: Sequence[Rule] = (), name: str = "baseline") -> WhatIfRun:
        """Execute the scenario under *rules* and measure it."""
        def build() -> Any:
            base = NominalLatency()
            return self._execute(LatencyOverride(base, rules) if rules else base)

        kernel = build()
        measurement = measure(kernel)
        if self.check_determinism:
            replay_hash = measure(build()).trace_hash
            if replay_hash != measurement.trace_hash:
                raise WhatIfDivergence(
                    f"experiment {name!r} diverged on replay: "
                    f"{measurement.trace_hash[:16]} != {replay_hash[:16]} — "
                    "the scenario closure is not rebuilding identically"
                )
        return WhatIfRun(name, kernel, measurement)

    def baseline(self) -> WhatIfRun:
        """The no-override run (cached across experiments)."""
        if self._baseline is None:
            self._baseline = self.run()
        return self._baseline

    # -- the driver -----------------------------------------------------
    def rank(self, experiments: Sequence[Experiment], k: int = 3) -> BottleneckReport:
        """Greedy top-k bottleneck ranking by *measured* improvement.

        Round by round: run every remaining candidate stacked on the
        winners chosen so far, keep the one that lowers the cost most,
        stop early when nothing improves.  Stacking matters — after the
        top bottleneck is virtually removed, the second round measures
        what *then* dominates, exactly like iterated causal profiling.
        The first round stacks on nothing, so ``rank(xs, k=1).rounds[0]``
        holds every experiment's cost measured on its own.
        """
        baseline = self.baseline()
        report = BottleneckReport(baseline)
        current_cost = baseline.measurement.cost
        chosen_rules: List[Rule] = []
        pool = list(experiments)
        while pool and len(report.ranked) < k:
            round_costs: Dict[str, float] = {}
            best_index: Optional[int] = None
            best_cost = current_cost
            best_run: Optional[WhatIfRun] = None
            for index, candidate in enumerate(pool):
                stacked = tuple(chosen_rules) + tuple(candidate.rules)
                run = self.run(stacked, candidate.name)
                cost = run.measurement.cost
                round_costs[candidate.name] = cost
                if cost < best_cost - 1e-12:
                    best_index, best_cost, best_run = index, cost, run
            report.rounds.append(round_costs)
            if best_index is None:
                break
            winner = pool.pop(best_index)
            report.ranked.append(
                RankedBottleneck(
                    rank=len(report.ranked) + 1,
                    experiment=winner,
                    before=current_cost,
                    after=best_cost,
                    run=best_run,
                )
            )
            chosen_rules.extend(winner.rules)
            current_cost = best_cost
        return report
