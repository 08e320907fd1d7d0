"""Model checking on the deterministic kernel.

The simulation kernel is deterministic: for a fixed seed there is exactly
one schedule, chosen by heap insertion order.  That determinism is what
makes runs replayable — and it is also why schedule bugs (PR 5's unpark
token collision, PR 2's same-instant wake ordering) survive until a random
seed happens to produce the one interleaving that trips them.

This package turns the kernel's single schedule into a *searchable space*:

* :mod:`repro.sim.schedule` makes scheduling pluggable — at every step the
  scheduler sees the **frontier** (all entries that may legally fire at the
  current instant) and picks one;
* :class:`~repro.check.scheduler.ControlledScheduler` follows an explicit
  *plan* (step → choice) and records every choice point it saw;
* :class:`~repro.check.explore.Explorer` runs a scenario to completion many
  times under bounded DFS, diverging from the default schedule one choice
  at a time, pruning commuting alternatives with DPOR-style sleep sets
  (:mod:`repro.check.deps`), and optionally *injecting* crashes, recoveries
  and permission revocations at explorer-chosen steps
  (:mod:`repro.check.inject`);
* every run ends with scenario-specific invariant oracles (agreement,
  validity, staleness, replica consistency, permission fencing); a failing
  run is captured as a counterexample — an exact choice trace serialized to
  JSON that :func:`~repro.check.trace.replay_trace` re-executes
  deterministically.

Entry points: ``python -m repro.check`` (see :mod:`repro.check.cli`),
:func:`~repro.check.explore.explore`, and the scenario registry in
:mod:`repro.check.scenarios`.
"""

from repro.check.explore import Budget, Counterexample, Explorer, ExploreReport, explore
from repro.check.inject import InjectionSpec
from repro.check.outstanding import OutstandingObserver, watch_outstanding
from repro.check.scheduler import ControlledScheduler, TraceDivergence
from repro.check.scenarios import SCENARIOS, make_scenario
from repro.check.trace import load_trace, replay_trace, save_trace

__all__ = [
    "Budget",
    "ControlledScheduler",
    "Counterexample",
    "Explorer",
    "ExploreReport",
    "InjectionSpec",
    "OutstandingObserver",
    "SCENARIOS",
    "TraceDivergence",
    "explore",
    "load_trace",
    "make_scenario",
    "replay_trace",
    "save_trace",
    "watch_outstanding",
]
