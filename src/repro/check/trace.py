"""Counterexample traces: serialize, load, deterministically replay.

A counterexample is fully described by (scenario name, scenario params,
optional seeded bug, divergent choices).  Everything else — the thousands
of default choices between divergences — is implied by the kernel's
determinism, which is what keeps traces small enough to read: a trace
usually lists one or two lines of "at step N, fire this entry instead".

:func:`replay_trace` rebuilds the scenario from the registry, replays the
plan through a :class:`~repro.check.scheduler.ControlledScheduler`, and
cross-checks each divergent step's choice identity (queue seq / injection
name) against what the trace recorded — a replay that silently explored a
*different* schedule (code drift, wrong seed) is reported as divergent
rather than trusted.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple, Union

from repro.check.explore import Counterexample, run_plan

TRACE_FORMAT = "repro-check-trace-v1"


def counterexample_to_dict(cx: Counterexample) -> Dict[str, Any]:
    """JSON-ready form of a counterexample."""
    return {
        "format": TRACE_FORMAT,
        "scenario": cx.scenario,
        "params": _jsonable(cx.params),
        "divergences": _jsonable(cx.divergences),
        "errors": list(cx.errors),
        "injections": list(cx.injections),
        "steps": cx.steps,
        "final_time": cx.final_time,
        "flight_dump": _jsonable(cx.flight_dump),
    }


def save_trace(cx: Counterexample, path: str) -> str:
    """Write *cx* as JSON; returns *path* for convenience."""
    with open(path, "w") as fh:
        json.dump(counterexample_to_dict(cx), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_trace(source: Union[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Accept a path or an already-parsed dict; validate the format tag."""
    if isinstance(source, str):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = dict(source)
    if data.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"not a {TRACE_FORMAT} trace: format={data.get('format')!r}"
        )
    return data


class ReplayResult:
    """Outcome of re-executing a trace's schedule."""

    __slots__ = ("errors", "matched", "mismatches", "injections", "final_time")

    def __init__(self, errors, matched, mismatches, injections, final_time) -> None:
        self.errors = errors
        self.matched = matched          # every divergence re-identified
        self.mismatches = mismatches    # human-readable identity drift
        self.injections = injections
        self.final_time = final_time

    @property
    def reproduced(self) -> bool:
        """The replay hit the same schedule *and* the oracles failed again."""
        return self.matched and bool(self.errors)


def replay_trace(source: Union[str, Dict[str, Any]]) -> ReplayResult:
    """Deterministically re-execute a counterexample trace.

    Rebuilds the scenario from the registry (applying a seeded regression
    bug if the scenario's params carry one), replays the recorded plan,
    and re-runs the oracles.  Traces of regression scenarios therefore
    reproduce only while the matching bug is seeded — replaying them on
    the fixed kernel is exactly how the corpus proves the fix.
    """
    from repro.check.scenarios import make_scenario

    data = load_trace(source)
    scenario = make_scenario(data["scenario"], data.get("params"))
    plan: Dict[int, Tuple[str, Any]] = {}
    for div in data["divergences"]:
        verb, operand = div["choice"]
        plan[int(div["step"])] = (verb, operand)
    sched, errors, kernel = run_plan(
        scenario, plan, max(4 * int(data.get("steps") or 0), 20_000)
    )
    mismatches: List[str] = []
    for div in data["divergences"]:
        step = int(div["step"])
        recorded_key = div.get("key")
        if recorded_key is None:
            continue
        if step >= len(sched.log):
            mismatches.append(f"step {step}: replay ended before the divergence")
            continue
        observed = list(sched.log[step].chosen_choice.key)
        if observed != list(recorded_key):
            mismatches.append(
                f"step {step}: trace recorded choice {recorded_key} but the "
                f"replay fired {observed} — scenario or code drift"
            )
    return ReplayResult(
        errors=errors,
        matched=not mismatches,
        mismatches=mismatches,
        injections=list(sched.injections_used),
        final_time=kernel.now,
    )


def _jsonable(value: Any) -> Any:
    """Best-effort deep conversion to JSON-serializable structures."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
