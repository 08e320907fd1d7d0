"""Bounded-DFS schedule exploration with DPOR-style sleep sets.

The search tree
---------------

A *node* is a plan — a map from step index to a non-default choice; the
root is the empty plan (the kernel's native schedule).  Executing a node
means building the scenario fresh, attaching a
:class:`~repro.check.scheduler.ControlledScheduler` with that plan, running
to completion, and evaluating the scenario's invariant oracles.  The
scheduler's log then lists every step's choice set; each alternative ``d``
(a different frontier entry, or an injection) at some step ``i`` past the
node's divergence point spawns a child ``plan + {i: d}``.  Depth is
bounded by *divergences* — how many times a schedule may stray from the
default — not by run length, so a depth-2 search over a 25-step scenario
is thousands of runs, not billions.

Sleep sets
----------

Exploring both orders of two *commuting* choices wastes a whole subtree,
so each node carries a sleep set (Godefroid): choices already covered by
an earlier sibling's subtree.  An alternative whose key is asleep is
pruned.  Walking a run's log forward from its divergence point with sleep
set ``Z``:

* at step ``i``, each non-default alternative ``d ∉ Z`` becomes a child
  with sleep ``{x ∈ Z ∪ done : independent(x, d)}`` where ``done`` holds
  the step's earlier-enumerated choices (the executed default first);
* moving past step ``i`` along the executed choice ``c`` shrinks the set
  to ``{x ∈ Z : independent(x, c)}`` — a slept choice stays covered only
  while everything executed commutes with it.

Keys are queue sequence numbers (prefix-stable across runs), so a sleep
set computed in the parent's run is meaningful in the child's.  The
dependency relation is :mod:`repro.check.deps`; exhaustiveness claims are
therefore *modulo* its declared approximation, as in any DPOR.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.check.deps import independent
from repro.check.regressions import seeded_bug
from repro.check.scheduler import ControlledScheduler, Plan, StepRecord
from repro.errors import DeadlockError, LivelockError, SafetyViolation

#: Sleep set: choice key -> that choice's footprint (needed to filter the
#: set as later steps execute).
SleepSet = Dict[Tuple, Tuple]


def run_plan(
    scenario, plan: Plan, max_steps: int
) -> Tuple[ControlledScheduler, List[str], Any]:
    """One run of *scenario* under *plan*: build it fresh, drive it with a
    :class:`ControlledScheduler` (at most *max_steps* steps), then run its
    oracles.  A scenario whose params name a seeded ``bug`` is built and
    run with that bug in place (:func:`~repro.check.regressions.seeded_bug`).
    Returns ``(scheduler, errors, kernel)``; a safety violation, livelock
    or deadlock the run raised heads the oracle errors."""
    sched = ControlledScheduler(
        plan=plan,
        specs=getattr(scenario, "injections", ()),
        group_budgets=getattr(scenario, "group_budgets", None),
        max_steps=max_steps,
    )
    failure: Optional[str] = None
    with seeded_bug(getattr(scenario, "params", {}).get("bug")):
        run = scenario.build()
        run.kernel.scheduler = sched
        try:
            run.execute()
        except (SafetyViolation, LivelockError, DeadlockError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
    errors = list(run.check(tuple(sched.injections_used)))
    if failure is not None:
        errors.insert(0, failure)
    return sched, errors, run.kernel


class Budget:
    """Search bounds.  ``divergences`` is the DFS depth (how far a plan
    may stray from the default schedule); ``max_runs`` caps total
    executions; ``max_steps`` is the per-run livelock budget;
    ``max_branch_step`` optionally restricts how late in a run new
    divergences may start (a preemption-window bound)."""

    __slots__ = ("divergences", "max_runs", "max_steps", "max_branch_step")

    def __init__(
        self,
        divergences: int = 2,
        max_runs: int = 100_000,
        max_steps: int = 20_000,
        max_branch_step: Optional[int] = None,
    ) -> None:
        self.divergences = divergences
        self.max_runs = max_runs
        self.max_steps = max_steps
        self.max_branch_step = max_branch_step


class Counterexample:
    """One failing run: the divergent choices plus everything needed to
    understand and replay them (see :mod:`repro.check.trace`)."""

    __slots__ = ("scenario", "params", "plan", "divergences", "errors",
                 "injections", "steps", "final_time", "flight_dump")

    def __init__(self, scenario, params, plan, divergences, errors,
                 injections, steps, final_time, flight_dump=None) -> None:
        self.scenario = scenario
        self.params = params
        self.plan = plan
        self.divergences = divergences
        self.errors = errors
        self.injections = injections
        self.steps = steps
        self.final_time = final_time
        self.flight_dump = flight_dump

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Counterexample {self.scenario} {len(self.plan)} divergences "
                f"{len(self.errors)} errors>")


class ExploreReport:
    """What a search did: sizes, prunes, findings."""

    __slots__ = ("scenario", "runs", "events", "branch_points", "alternatives",
                 "scheduled", "pruned", "counterexamples", "exhausted",
                 "divergence_bound", "elapsed")

    def __init__(self, scenario: str, divergence_bound: int) -> None:
        self.scenario = scenario
        self.runs = 0
        self.events = 0          # frontier picks executed across all runs
        self.branch_points = 0   # steps that offered more than one choice
        self.alternatives = 0    # non-default choices seen at branch points
        self.scheduled = 0       # children actually explored
        self.pruned = 0          # children skipped via sleep sets
        self.counterexamples: List[Counterexample] = []
        self.exhausted = False   # no bound other than ``divergences`` truncated
        self.divergence_bound = divergence_bound
        self.elapsed = 0.0

    @property
    def violations(self) -> int:
        return len(self.counterexamples)

    @property
    def pruning_ratio(self) -> float:
        total = self.scheduled + self.pruned
        return self.pruned / total if total else 0.0

    def summary(self) -> str:
        status = "exhausted" if self.exhausted else "truncated"
        return (
            f"{self.scenario}: {self.runs} schedules ({self.events} events) "
            f"explored to divergence depth {self.divergence_bound} "
            f"[{status}]; {self.branch_points} branch points, "
            f"{self.scheduled} branches taken, {self.pruned} pruned by "
            f"sleep sets ({self.pruning_ratio:.0%}); "
            f"{self.violations} violation(s) in {self.elapsed:.2f}s"
        )

    def to_dict(self) -> dict:
        """Machine-readable view of the search (no counterexample bodies —
        those are saved separately via ``save_trace``)."""
        return {
            "scenario": self.scenario,
            "runs": self.runs,
            "events": self.events,
            "branch_points": self.branch_points,
            "alternatives": self.alternatives,
            "scheduled": self.scheduled,
            "pruned": self.pruned,
            "pruning_ratio": self.pruning_ratio,
            "violations": self.violations,
            "exhausted": self.exhausted,
            "divergence_bound": self.divergence_bound,
            "elapsed": self.elapsed,
        }


class Explorer:
    """Bounded DFS over a scenario's schedule space.

    *scenario* follows the protocol of :mod:`repro.check.scenarios`:
    ``build()`` returns a fresh run handle with ``kernel``, ``execute()``,
    ``check(injections_used)`` and ``cleanup()``; ``injections`` /
    ``group_budgets`` describe the fault choice points.
    """

    def __init__(self, scenario, budget: Optional[Budget] = None,
                 stop_on_first: bool = False) -> None:
        self.scenario = scenario
        self.budget = budget or Budget()
        self.stop_on_first = stop_on_first
        self.report = ExploreReport(scenario.name, self.budget.divergences)
        self._stop = False

    # ------------------------------------------------------------------
    def run(self) -> ExploreReport:
        import time as _time

        started = _time.monotonic()
        self.report.exhausted = True  # cleared by any truncation
        self._dfs({}, 0, {}, self.budget.divergences)
        self.report.elapsed = _time.monotonic() - started
        return self.report

    # ------------------------------------------------------------------
    def _record_counterexample(self, plan, sched, errors, kernel) -> None:
        divergences = []
        for step in sorted(plan):
            record = sched.log[step] if step < len(sched.log) else None
            choice = record.chosen_choice if record else None
            divergences.append({
                "step": step,
                "choice": list(plan[step]),
                "time": record.time if record else None,
                "key": list(choice.key) if choice else None,
                "label": choice.label if choice else None,
            })
        flight_dump = None
        if kernel is not None and kernel.obs is not None:
            flight_dump = kernel.obs.trip("counterexample")
        self.report.counterexamples.append(Counterexample(
            scenario=self.scenario.name,
            params=dict(getattr(self.scenario, "params", {})),
            plan=dict(plan),
            divergences=divergences,
            errors=list(errors),
            injections=list(sched.injections_used),
            steps=sched.step,
            final_time=kernel.now if kernel is not None else None,
            flight_dump=flight_dump,
        ))
        if self.stop_on_first:
            self._stop = True

    # ------------------------------------------------------------------
    def _dfs(self, plan: Plan, start_step: int, sleep: SleepSet,
             divergences_left: int) -> None:
        if self._stop:
            return
        if self.report.runs >= self.budget.max_runs:
            self.report.exhausted = False
            return
        sched, errors, kernel = run_plan(self.scenario, plan, self.budget.max_steps)
        self.report.runs += 1
        self.report.events += sched.step
        if errors:
            self._record_counterexample(plan, sched, errors, kernel)
            if self._stop:
                return
        if divergences_left <= 0:
            # This node is a leaf of the depth-bounded search by design;
            # remaining alternatives here do not void exhaustiveness *at
            # the declared divergence bound*.
            return
        live: SleepSet = dict(sleep)
        max_branch = self.budget.max_branch_step
        for record in sched.log[start_step:]:
            if max_branch is not None and record.step >= max_branch:
                if self._branchy(record):
                    self.report.exhausted = False
                break
            chosen = record.chosen_choice
            if len(record.choices) > 1:
                self.report.branch_points += 1
                done: SleepSet = {chosen.key: chosen.fp}
                for alt in record.choices:
                    if alt is chosen:
                        continue
                    self.report.alternatives += 1
                    if alt.key in live:
                        self.report.pruned += 1
                        done[alt.key] = alt.fp
                        continue
                    child_sleep = {
                        key: fp
                        for source in (live, done)
                        for key, fp in source.items()
                        if independent(fp, alt.fp)
                    }
                    if self.report.runs >= self.budget.max_runs:
                        self.report.exhausted = False
                        return
                    child_plan = dict(plan)
                    child_plan[record.step] = alt.encoding
                    self.report.scheduled += 1
                    self._dfs(child_plan, record.step + 1, child_sleep,
                              divergences_left - 1)
                    if self._stop:
                        return
                    done[alt.key] = alt.fp
            # move past this step along the executed choice
            live = {key: fp for key, fp in live.items()
                    if independent(fp, chosen.fp)}

    def _branchy(self, record: StepRecord) -> bool:
        return len(record.choices) > 1


def explore(scenario, budget: Optional[Budget] = None,
            stop_on_first: bool = False) -> ExploreReport:
    """Run a bounded sleep-set DFS over *scenario*'s schedule space."""
    return Explorer(scenario, budget, stop_on_first).run()
