"""Command-line front door: ``python -m repro.check``.

Subcommands:

``explore``
    Bounded sleep-set DFS over one registered scenario.  Prints the
    search report and writes any counterexamples as JSON next to the
    chosen output directory.  ``--exhaust-expected`` turns a truncated
    search into a non-zero exit, which is how CI asserts the PMP config
    stays exhaustible.

``corpus``
    The regression corpus: for each seeded bug, assert the explorer finds
    a violating schedule (bug present) and finds none (bug absent).
    Non-zero exit on either failure.

``replay``
    Re-execute a counterexample trace JSON and report whether it still
    reproduces.

``list``
    Show registered scenarios and seeded bugs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.check.explore import Budget, explore
from repro.check.scenarios import SCENARIOS, make_scenario
from repro.check.trace import load_trace, replay_trace, save_trace
from repro.errors import ConfigurationError


def _write_counterexamples(report, out_dir: str) -> List[str]:
    paths = []
    if report.counterexamples:
        os.makedirs(out_dir, exist_ok=True)
    stem = report.scenario.replace("/", "-")  # "pmp/leader_crash" is no path
    for n, cx in enumerate(report.counterexamples):
        path = os.path.join(out_dir, f"{stem}-cx{n}.json")
        paths.append(save_trace(cx, path))
    return paths


def _write_report(data: dict, path: Optional[str]) -> None:
    if not path:
        return
    import json

    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report: {path}")


def _cmd_explore(args) -> int:
    try:
        scenario = make_scenario(args.scenario, _params(args))
    except ConfigurationError as error:
        args.error(str(error))
    budget = Budget(
        divergences=args.divergences,
        max_runs=args.max_runs,
        max_steps=args.max_steps,
        max_branch_step=args.max_branch_step,
    )
    report = explore(scenario, budget, stop_on_first=args.stop_on_first)
    print(report.summary())
    cx_paths = _write_counterexamples(report, args.out)
    for path in cx_paths:
        print(f"counterexample: {path}")
    _write_report(
        dict(report.to_dict(), params=scenario.params, counterexamples=cx_paths),
        args.report,
    )
    if report.violations:
        return 1
    if args.exhaust_expected and not report.exhausted:
        print(
            "error: search was truncated by its run budget but "
            "--exhaust-expected was given",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_corpus(args) -> int:
    from repro.check.regressions import known_bugs

    corpus = {
        "unpark-token-collision": ("regression-unpark-collision", {}),
        "stale-wake-token-check": ("regression-stale-wake", {}),
        "nak-settled-as-committed": ("pmp/partition_minority", {"crashes": 0}),
    }
    assert set(corpus) == set(known_bugs())
    budget = Budget(divergences=args.divergences, max_runs=args.max_runs)
    failed = False
    results = {}
    for bug, (scenario_name, params) in sorted(corpus.items()):
        buggy = explore(
            make_scenario(scenario_name, {**params, "bug": bug}), budget,
            stop_on_first=True,
        )
        fixed = explore(make_scenario(scenario_name, params), budget)
        print(f"[{bug}] seeded: {buggy.summary()}")
        print(f"[{bug}] fixed:  {fixed.summary()}")
        entry = {"seeded": buggy.to_dict(), "fixed": fixed.to_dict()}
        if not buggy.violations:
            print(f"error: explorer missed seeded bug {bug}", file=sys.stderr)
            failed = True
        else:
            paths = _write_counterexamples(buggy, args.out)
            result = replay_trace(load_trace(paths[0]))
            verdict = "reproduces" if result.reproduced else "DOES NOT REPRODUCE"
            print(f"[{bug}] replay of {paths[0]}: {verdict}")
            entry["counterexamples"] = paths
            entry["replay_reproduced"] = result.reproduced
            if not result.reproduced:
                failed = True
        if fixed.violations:
            print(
                f"error: explorer reported violations on the fixed kernel "
                f"for {scenario_name}",
                file=sys.stderr,
            )
            failed = True
        results[bug] = entry
    _write_report({"ok": not failed, "bugs": results}, args.report)
    return 1 if failed else 0


def _cmd_replay(args) -> int:
    result = replay_trace(args.trace)
    status = "reproduced" if result.reproduced else "not reproduced"
    print(f"{status} at t={result.final_time:g}")
    for line in result.mismatches:
        print(f"schedule drift: {line}")
    for line in result.errors:
        print(f"violation: {line}")
    return 0 if result.reproduced else 1


def _cmd_list(_args) -> int:
    from repro.check.regressions import known_bugs

    print("scenarios:")
    for name in sorted(SCENARIOS):
        print(f"  {name}")
    print("seeded bugs (regression corpus):")
    for name in known_bugs():
        print(f"  {name}")
    return 0


def _params(args):
    """``--param KEY=JSON`` items as constructor kwargs of the scenario;
    a malformed item or an unknown key is a usage error naming the
    scenario's accepted params."""
    import inspect
    import json

    accepted = list(inspect.signature(SCENARIOS[args.scenario]).parameters)
    params = {}
    for item in args.param or []:
        key, eq, raw = item.partition("=")
        if not eq or key not in accepted:
            args.error(
                f"--param {item!r}: expected KEY=JSON with KEY one of "
                f"{', '.join(accepted)} (the params of {args.scenario})"
            )
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Schedule exploration and fault-injection model checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("explore", help="bounded DFS over one scenario")
    ex.add_argument("scenario", choices=sorted(SCENARIOS), metavar="SCENARIO",
                    help="a registered scenario (see the list subcommand)")
    ex.add_argument("--divergences", type=int, default=2)
    ex.add_argument("--max-runs", type=int, default=100_000)
    ex.add_argument("--max-steps", type=int, default=20_000)
    ex.add_argument("--max-branch-step", type=int, default=None)
    ex.add_argument("--stop-on-first", action="store_true")
    ex.add_argument("--exhaust-expected", action="store_true")
    ex.add_argument("--param", action="append", metavar="KEY=JSON",
                    help="scenario constructor override (repeatable)")
    ex.add_argument("--out", default="counterexamples", metavar="DIR",
                    help="directory for counterexample trace JSONs")
    ex.add_argument("--report", default=None, metavar="PATH",
                    help="write the search statistics as JSON")
    ex.set_defaults(fn=_cmd_explore, error=ex.error)

    co = sub.add_parser("corpus", help="run the seeded-bug regression corpus")
    co.add_argument("--divergences", type=int, default=2)
    co.add_argument("--max-runs", type=int, default=5_000)
    co.add_argument("--out", default="counterexamples", metavar="DIR",
                    help="directory for counterexample trace JSONs")
    co.add_argument("--report", default=None, metavar="PATH",
                    help="write the per-bug verdicts as JSON")
    co.set_defaults(fn=_cmd_corpus)

    rp = sub.add_parser("replay", help="re-execute a counterexample trace")
    rp.add_argument("trace")
    rp.set_defaults(fn=_cmd_replay)

    ls = sub.add_parser("list", help="show scenarios and seeded bugs")
    ls.set_defaults(fn=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
