"""End-to-end benchmark of the simulated stack: one command, six workloads.

    python benchmarks/e2e/run.py                  # every workload, tables + result.json
    python benchmarks/e2e/run.py --smoke          # a tenth of the work, one repetition
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --workload kv_quorum_read --seed 3 --seconds 12 --trace 0

The last form is the one ``BENCHMARK.json`` names: one workload, timed
for ``--seconds``, ending in one JSON line.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.

Every repetition is a fresh child process (``--child``), run one at a
time, so heap, GC state and ``ru_maxrss`` are isolated.  Wall metrics
are medians over the timed repetitions; virtual-time metrics and counts
are seed-pure and must be identical across them.  README.md beside this
file explains the workloads, the metrics and how to read the tables.
"""

from __future__ import annotations

import time

_ENTRY = time.perf_counter()  # child entry: before anything of repro loads

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (stdlib-only at import; repro loads in children)

LAYERS = layers.LAYERS

ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "benchmarks" / "out" / "e2e"
SCHEMA = "repro-bench-e2e/1"

DEFAULT_SEED = 7
TIMED_REPS = 5
MIN_TIMED_REPS = 3
MAX_TIMED_REPS = 12
SMOKE_SCALE = 0.1
CHILD_TIMEOUT_S = 60.0

WORKLOADS = {
    "kv_write_heavy": (
        "Full commit path (sim dispatch, shard routing, smr log, net) at "
        "1 message and 0.5 memory ops per operation; mem is under 5 %."
    ),
    "kv_quorum_read": (
        "One-sided quorum reads bypass leaders and messages: mem holds over "
        "half the time, net almost none: the mirror image of kv_write_heavy."
    ),
    "kv_chaos_elastic": (
        "Splits, a merge, crashes, a memory loss and a partition under jittered "
        "latency: reconfig, failures, recovery, resend/dedup and timer wakes."
    ),
    "consensus_single_shot": (
        "A grid of fresh single-shot instances of all eight protocols, as the "
        "paper's tables use the repo: consensus, crypto, broadcast, trusted."
    ),
    "kv_write_heavy_obs": (
        "kv_write_heavy with the observability runtime attached: same inputs and "
        "virtual results, but obs and metrics now do real work."
    ),
    "kv_cells": (
        "Gateway-fronted service cells and client cells under the parallel "
        "kernel (inline, one worker): adds the fabric merge and barrier rounds."
    ),
}

#: end-to-end metrics: name -> (unit, better, bound).  ``bound`` is the
#: share by which a median may worsen between two runs of the same seed
#: before ``--compare`` calls it a regression; None marks a seed-pure
#: metric, compared exactly.
END_TO_END = {
    # short (0.2 s, import-dominated), so one host stall moves its median:
    # back-to-back runs differed by up to 15 %
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.10),
    "commits_per_s": ("1/s", "higher", 0.10),
    "reads_per_s": ("1/s", "higher", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "latency_p50_delays": ("delays", "lower", None),
    "latency_p99_delays": ("delays", "lower", None),
    "latency_max_delays": ("delays", "lower", None),
    "latency_mean_delays": ("delays", "lower", None),
    "latency_worst_1pct_delays": ("delays", "lower", None),
    "latency_worst_0.1pct_delays": ("delays", "lower", None),
    "commits_per_kdelay": ("1/kdelay", "higher", None),
    "events_per_op": ("count", "lower", None),
    "failure_rate": ("ratio", "lower", None),
    "safety_violations": ("count", "lower", None),
}
SETUP_FLOOR_S = 0.005
#: left out of the one-line result ``BENCHMARK.json`` describes.  That line
#: is compared across *different* seeds: the three order statistics are whole
#: delays on most workloads and jump by 14-28 % of their value from one seed
#: to the next (the three means above carry the same information smoothly),
#: and the two must-be-zero metrics go in their never-zero form.
NOT_IN_RESULT_LINE = (
    "latency_p50_delays", "latency_p99_delays", "latency_max_delays",
    "failure_rate", "safety_violations",
)
#: single-shot consensus has no client reads or service commits; there
#: these two report one-sided memory reads and decisions per second
NA_END_TO_END = {"consensus_single_shot": ("commits_per_s", "reads_per_s")}

CONSENSUS_PROTOCOLS = (
    "pmp", "pmp_n2", "aligned", "fast_paxos", "disk_paxos", "message_paxos",
    "fast_robust", "robust_backup",
)
#: exact counts read from public counters: name -> (unit, better)
COUNT_METRICS = {
    "net.messages_per_op": ("count", "lower"),
    "net.dropped_per_op": ("count", "lower"),
    "mem.ops_per_op": ("count", "lower"),
    "smr.batch_fill": ("count", "higher"),
    "smr.batches_per_op": ("count", "lower"),
    "shard.duplicates_per_op": ("count", "lower"),
    "shard.read_fallbacks_per_read": ("count", "lower"),
    "shard.reads_quorum_share": ("ratio", "higher"),
    "reconfig.epochs": ("count", "higher"),
    "reconfig.moved_keys": ("count", "lower"),
    "reconfig.cutover_window_max_delays": ("delays", "lower"),
    "failures.events": ("count", "higher"),
    "failures.downtime_delays": ("delays", "higher"),
    "crypto.signatures_per_op": ("count", "lower"),
    "obs.spans_per_op": ("count", "lower"),
    "sim.parallel.rounds": ("count", "lower"),
    "sim.parallel.crossed_per_op": ("count", "lower"),
    **{
        f"consensus.decide_delays.{name}": ("delays", "lower")
        for name in CONSENSUS_PROTOCOLS
    },
}
#: host-time figures, informational: printed, never gated
HOST_METRICS = {
    "sim.sim_events_per_s": ("1/s", "higher"),
    "sim.build_ms": ("ms", "lower"),
    "obs.attached_overhead_x": ("x", "lower"),
    "sim.parallel.projected_speedup_x": ("x", "higher"),
    "sim.parallel.coordinator_share": ("ratio", "lower"),
    "sim.parallel.fork_wall_ratio_x": ("x", "lower"),
    "trace.overhead_x": ("x", "lower"),
    "run.scaling_x": ("x", "lower"),
}
PROBE_METRICS = {
    "sim.queue_push_pop_ns": ("ns", "lower"),
    "mem.apply_write_ns": ("ns", "lower"),
    "mem.apply_snapshot_ns": ("ns", "lower"),
    "net.send_deliver_ns": ("ns", "lower"),
    "shard.shard_for_ns": ("ns", "lower"),
    "smr.kv_apply_ns": ("ns", "lower"),
    "crypto.sign_verify_ns": ("ns", "lower"),
}
PER_LAYER = {
    **{f"{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    **{f"{layer}.self_us_per_op": ("us", "lower") for layer in LAYERS},
    **{f"{layer}.calls_in_per_op": ("count", "lower") for layer in LAYERS},
    **COUNT_METRICS,
    **HOST_METRICS,
    **PROBE_METRICS,
}
#: workloads whose cost per operation is also measured at half length
SCALING_WORKLOADS = ("kv_write_heavy", "kv_quorum_read")
#: repetitions' fields that are seed-pure and must repeat exactly
EXACT_FIELDS = (
    "attempted", "completed", "reads", "commits", "events", "messages",
    "mem_ops", "virtual_elapsed", "latency", "checks", "counts", "fingerprint",
)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not: the program failed)."""


# ----------------------------------------------------------------------
# the child: one repetition of one workload in this process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    import resource

    sys.path.insert(0, str(SRC))
    if args.child == "probes":
        print(json.dumps(layers.run_probes(args.scale)))
        return 0
    import workloads

    profiler = None
    if args.trace:
        import cProfile

        profiler = cProfile.Profile()
    run = workloads.Run(args.seed, args.scale, profiler, args.deadline)
    raw = workloads.WORKLOADS[args.child](run)
    raw["setup_s"] = (run.first_run_at - _ENTRY) + run.late_setup_s
    raw["wall_s"] = run.wall_s
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if profiler is not None:
        raw["trace"] = layers.rollup(profiler, raw["completed"])
    print(json.dumps(raw))
    return 0


def spawn(
    name: str,
    seed: int,
    scale: float = 1.0,
    trace: bool = False,
    deadline: Optional[float] = None,
) -> Optional[Dict[str, Any]]:
    """Run one repetition in a fresh process; None when it hit the wall
    timeout (the caller counts all its operations as failed)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", name,
        "--seed", str(seed), "--scale", repr(scale), "--trace", "1" if trace else "0",
    ]
    if deadline is not None:
        command += ["--deadline", repr(deadline)]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None
    if done.returncode != 0:
        raise BenchmarkError(
            f"{name}: repetition exited with code {done.returncode}\n{done.stderr}"
        )
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _spread(values: Sequence[float]) -> Dict[str, Any]:
    out: Dict[str, Any] = {"value": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        # inclusive: with five repetitions the quartiles are the second and
        # fourth value, so one stalled repetition does not widen the spread
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out["q1"], out["q3"] = q1, q3
    return out


def _rate(count: float, rep: Dict[str, Any]) -> float:
    return count / rep["wall_s"] if rep["wall_s"] > 0 else 0.0


def _us_per_op(rep: Dict[str, Any]) -> float:
    return rep["wall_s"] / rep["completed"] * 1e6 if rep["completed"] else 0.0


def end_to_end(
    reps: List[Optional[Dict[str, Any]]], extra_checks: Dict[str, int]
) -> Dict[str, Any]:
    """The end-to-end metrics of one workload from its timed
    repetitions, plus the attempted/failed totals and the output checks
    (the child's own, *extra_checks*, and "repetitions identical")."""
    good = [rep for rep in reps if rep is not None]
    first = good[0]
    checks = {**first["checks"], **extra_checks}
    checks["repetitions_differ"] = sum(
        1 for rep in good[1:] if any(rep[key] != first[key] for key in EXACT_FIELDS)
    )
    attempted = first["attempted"] * len(reps)
    failed = attempted - sum(rep["completed"] for rep in good)
    completed = first["completed"]
    latency = first["latency"]
    exact = {
        "latency_p50_delays": latency["p50"],
        "latency_p99_delays": latency["p99"],
        "latency_max_delays": latency["max"],
        "latency_mean_delays": latency["mean"],
        "latency_worst_1pct_delays": latency["worst_1pct"],
        "latency_worst_0.1pct_delays": latency["worst_0.1pct"],
        "commits_per_kdelay": (
            1000.0 * first["commits"] / first["virtual_elapsed"]
            if first["virtual_elapsed"] > 0 else 0.0
        ),
        "events_per_op": first["events"] / completed if completed else 0.0,
        "failure_rate": failed / attempted,
        "safety_violations": sum(checks.values()),
    }
    wall = {
        "setup_s": [rep["setup_s"] for rep in good],
        "ops_per_s": [_rate(rep["completed"], rep) for rep in good],
        "commits_per_s": [_rate(rep["commits"], rep) for rep in good],
        "reads_per_s": [_rate(rep["reads"], rep) for rep in good],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in good],
    }
    metrics: Dict[str, Any] = {}
    for metric, (unit, _better, bound) in END_TO_END.items():
        if bound is None:
            metrics[metric] = {"value": exact[metric], "unit": unit, "exact": True}
        else:
            metrics[metric] = {**_spread(wall[metric]), "unit": unit, "exact": False}
    return {
        "attempted": attempted,
        "failed": failed,
        "latency_samples": latency["count"],
        "checks": checks,
        "end_to_end": metrics,
    }


def per_layer(
    reps: List[Optional[Dict[str, Any]]],
    traced: Dict[str, Any],
    probes: Dict[str, float],
    half: Optional[Dict[str, Any]] = None,
    detached: Optional[Dict[str, Any]] = None,
    fork: Optional[Dict[str, Any]] = None,
) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one workload; None marks a cell that
    does not apply to it."""
    good = [rep for rep in reps if rep is not None]
    first = good[0]
    wall = statistics.median(rep["wall_s"] for rep in good)
    us_per_op = _us_per_op({"wall_s": wall, "completed": first["completed"]})
    out: Dict[str, Optional[float]] = dict.fromkeys(PER_LAYER)
    for layer, row in traced["trace"]["layers"].items():
        out[f"{layer}.self_share"] = row["self_share"]
        out[f"{layer}.self_us_per_op"] = row["self_share"] * us_per_op
        out[f"{layer}.calls_in_per_op"] = row["calls_in_per_op"]
    for metric in COUNT_METRICS:
        out[metric] = first["counts"].get(metric)
    out["sim.sim_events_per_s"] = statistics.median(
        _rate(rep["messages"] + 2 * rep["mem_ops"], rep) for rep in good
    )
    out["sim.build_ms"] = 1000.0 * statistics.median(rep["build_s"] for rep in good)
    out["trace.overhead_x"] = traced["wall_s"] / wall if wall else None
    for metric in first.get("host", ()):
        out[metric] = statistics.median(rep["host"][metric] for rep in good)
    if half is not None and half["completed"]:
        out["run.scaling_x"] = us_per_op / _us_per_op(half)
    if detached is not None and detached["completed"]:
        out["obs.attached_overhead_x"] = us_per_op / _us_per_op(detached)
    if fork is not None:
        out["sim.parallel.fork_wall_ratio_x"] = fork["wall_s"] / wall
    out.update(probes)
    return out


def measure(
    name: str,
    seed: int,
    scale: float,
    timed: Optional[int] = None,
    seconds: float = 0.0,
    probes: Optional[Dict[str, float]] = None,
    deadline: Optional[float] = None,
    warm_up: bool = True,
) -> Dict[str, Any]:
    """Run one workload: a discarded warm-up, the timed repetitions (*timed*
    of them, or as many as start within *seconds*), and, when *probes* are
    given, the traced repetition and the comparison runs of the layer table."""
    if warm_up:
        # imports compiled, files cached; a tenth of the work is enough
        spawn(name, seed, scale=min(scale, SMOKE_SCALE), deadline=deadline)
    reps: List[Optional[Dict[str, Any]]] = []
    started = time.perf_counter()
    while True:
        reps.append(spawn(name, seed, scale=scale, deadline=deadline))
        if timed is not None:
            if len(reps) >= timed:
                break
        elif len(reps) >= MAX_TIMED_REPS or (
            len(reps) >= MIN_TIMED_REPS
            and time.perf_counter() - started >= seconds
        ):
            break
    good = [rep for rep in reps if rep is not None]
    if not good:
        raise BenchmarkError(f"{name}: every repetition hit the wall timeout")
    extra_checks: Dict[str, int] = {}
    if probes is not None:
        traced = spawn(name, seed, scale=scale, trace=True, deadline=deadline)
        if traced is None:
            raise BenchmarkError(f"{name}: the traced repetition hit the wall timeout")
        half = detached = fork = None
        if name in SCALING_WORKLOADS:
            half = spawn(name, seed, scale=scale / 2, deadline=deadline)
        if name == "kv_write_heavy_obs":
            detached = spawn("kv_write_heavy", seed, scale=scale, deadline=deadline)
        if name == "kv_cells":
            fork = spawn("kv_cells_fork", seed, scale=scale, deadline=deadline)
            extra_checks["fork_hash_mismatch"] = int(
                fork is None or fork["fingerprint"] != good[0]["fingerprint"]
            )
    record = end_to_end(reps, extra_checks)
    record["why"] = WORKLOADS[name]
    record["repetitions"] = [
        None if rep is None else {
            key: rep[key] for key in ("setup_s", "build_s", "wall_s", "peak_rss_mb")
        }
        for rep in reps
    ]
    if probes is not None:
        record["per_layer"] = {
            metric: None if value is None
            else {"value": value, "unit": PER_LAYER[metric][0]}
            for metric, value in per_layer(
                reps, traced, probes, half, detached, fork
            ).items()
        }
        record["trace"] = {"traced_wall_s": traced["wall_s"], **traced["trace"]}
    return record


def run_probes(scale: float = 1.0) -> Dict[str, float]:
    probes = spawn("probes", DEFAULT_SEED, scale=scale)
    if probes is None:
        raise BenchmarkError("the layer probes hit the wall timeout")
    return probes


def record_ok(record: Dict[str, Any]) -> bool:
    return (
        record["failed"] == 0
        and record["end_to_end"]["safety_violations"]["value"] == 0
    )


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def _format(value: Any) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_end_to_end(name: str, record: Dict[str, Any]) -> None:
    print(f"\n== {name}: end to end "
          f"({record['attempted']} attempted, {record['failed']} failed, "
          f"{record['latency_samples']} latency samples) ==")
    for metric, cell in record["end_to_end"].items():
        note = "exact"
        if not cell["exact"]:
            note = f"median of {cell['n']}"
            if "q1" in cell:
                note += f", quartiles {_format(cell['q1'])} .. {_format(cell['q3'])}"
        if metric in NA_END_TO_END.get(name, ()):
            note += "; stands in for an n/a cell, see README"
        print(f"  {metric:<28} {_format(cell['value']):>14} {cell['unit']:<9} ({note})")
    failing = {check: n for check, n in record["checks"].items() if n}
    print(f"  output checks: {len(record['checks'])} run, "
          + (f"FAILING {failing}" if failing else "all passed"))


def print_per_layer(name: str, record: Dict[str, Any]) -> None:
    cells = record["per_layer"]

    def value(metric: str) -> Any:
        return None if cells[metric] is None else cells[metric]["value"]

    print(f"\n== {name}: per layer (traced repetition; "
          f"trace.overhead_x {_format(value('trace.overhead_x'))}) ==")
    # one row per layer: the metric is <layer>.<column>, unit in brackets
    print(f"  {'<layer>':<10} {'.self_share [ratio]':>20} {'.self_us_per_op [us]':>21} "
          f"{'.calls_in_per_op [count]':>25}")
    for layer in sorted(LAYERS, key=lambda l: -(value(f"{l}.self_share") or 0.0)):
        print(f"  {layer:<10} {_format(value(f'{layer}.self_share')):>20} "
              f"{_format(value(f'{layer}.self_us_per_op')):>21} "
              f"{_format(value(f'{layer}.calls_in_per_op')):>25}")
    total = sum(value(f"{layer}.self_us_per_op") or 0.0 for layer in LAYERS)
    print(f"  {'sum':<10} {'':>20} {_format(total):>21} us per operation end to end")
    for title, group in (
        ("counts (exact)", COUNT_METRICS),
        ("host time (informational)", HOST_METRICS),
        ("layer probes (informational)", PROBE_METRICS),
    ):
        print(f"  -- {title}")
        for metric, (unit, _better) in group.items():
            print(f"  {metric:<40} {_format(value(metric)):>14} {unit}")


# ----------------------------------------------------------------------
# the three front doors
# ----------------------------------------------------------------------
def host_fingerprint() -> Dict[str, Any]:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def write_trace(name: str, seed: int, record: Dict[str, Any]) -> None:
    """Move the workload's trace out of *record* into its own file."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"trace_{name}.json").write_text(
        json.dumps({"workload": name, "seed": seed, **record.pop("trace")}, indent=1)
        + "\n"
    )


def full_run(args: argparse.Namespace) -> int:
    smoke = args.smoke
    scale = SMOKE_SCALE if smoke else 1.0
    probes = run_probes(scale)
    records = {}
    for name in WORKLOADS:
        records[name] = measure(
            name, args.seed, scale, timed=1 if smoke else TIMED_REPS,
            probes=probes, deadline=args.deadline, warm_up=not smoke,
        )
    # the detached/attached ratio is a property of the pair: show it on both
    records["kv_write_heavy"]["per_layer"]["obs.attached_overhead_x"] = (
        records["kv_write_heavy_obs"]["per_layer"]["obs.attached_overhead_x"]
    )
    for name, record in records.items():
        write_trace(name, args.seed, record)
        print_end_to_end(name, record)
        print_per_layer(name, record)
    result = {
        "schema": SCHEMA,
        "seed": args.seed,
        "smoke": smoke,
        "host": host_fingerprint(),
        "workloads": records,
    }
    out = pathlib.Path(args.out) if args.out else OUT_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {out} and {len(records)} trace files under {OUT_DIR}")
    failing = [name for name, record in records.items() if not record_ok(record)]
    if failing:
        print(f"FAILED: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def driver_run(args: argparse.Namespace) -> int:
    """One workload for ``--seconds``, ending in the one-line JSON result."""
    name = args.workload
    if name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; pick one of {list(WORKLOADS)}")
    scale = SMOKE_SCALE if args.smoke else 1.0
    if args.trace:
        record = measure(
            name, args.seed, scale, timed=2, probes=run_probes(scale),
            deadline=args.deadline,
        )
        write_trace(name, args.seed, record)
        print_per_layer(name, record)
        # a cell that does not apply to this workload reads 0
        metrics = {
            metric: {"value": 0.0 if cell is None else cell["value"],
                     "unit": PER_LAYER[metric][0]}
            for metric, cell in record["per_layer"].items()
        }
    else:
        record = measure(
            name, args.seed, scale, seconds=args.seconds, deadline=args.deadline
        )
        print_end_to_end(name, record)
        metrics = {
            metric: {"value": cell["value"], "unit": cell["unit"]}
            for metric, cell in record["end_to_end"].items()
            if metric not in NOT_IN_RESULT_LINE
        }
        # the two must-be-zero metrics, in the never-zero form a ratio
        # against a parent commit needs
        checks = record["checks"]
        metrics["success_rate"] = {
            "value": 1.0 - record["end_to_end"]["failure_rate"]["value"],
            "unit": "ratio",
        }
        metrics["safety_checks_passed"] = {
            "value": sum(1 for violations in checks.values() if not violations),
            "unit": "count",
        }
    ok = record_ok(record)
    print(json.dumps({
        "correct": ok,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if ok else 1


def _relative_spread(cell: Dict[str, Any]) -> float:
    """Quartile distance of a wall metric as a share of its median."""
    if "q1" not in cell or not cell["value"]:
        return 0.0
    return (cell["q3"] - cell["q1"]) / cell["value"]


def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: both medians, B over A, and a
    verdict.  Exit 1 on any regression."""
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    if a["seed"] != b["seed"] or a["smoke"] != b["smoke"]:
        print(f"note: runs differ in inputs (seed {a['seed']} vs {b['seed']}, "
              f"smoke {a['smoke']} vs {b['smoke']}); exact metrics will too")
    regressed = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        print(f"\n== {name} ==")
        print(f"  {'metric':<28} {'A':>14} {'B':>14} {'B/A':>9}  verdict")
        for metric, (unit, better, bound) in END_TO_END.items():
            cell_a = a["workloads"][name]["end_to_end"][metric]
            cell_b = b["workloads"][name]["end_to_end"][metric]
            va, vb = cell_a["value"], cell_b["value"]
            worse = vb - va if better == "lower" else va - vb
            if bound is None:
                verdict = "ok" if vb == va else ("regressed" if worse > 0 else "ok (improved)")
            else:
                spread = max(_relative_spread(cell_a), _relative_spread(cell_b))
                limit = bound * va
                if metric == "setup_s":
                    limit = max(limit, SETUP_FLOOR_S)
                if spread > bound:
                    verdict = f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
                elif worse > limit:
                    verdict = f"regressed (bound {bound:.0%})"
                else:
                    verdict = "ok"
            regressed += verdict.startswith("regressed")
            ratio = f"{vb / va:.3f}x" if va else "-"
            print(f"  {metric:<28} {_format(va):>14} {_format(vb):>14} {ratio:>9}  "
                  f"{verdict}  [{unit}, base A = {_format(va)}]")
    if regressed:
        print(f"\n{regressed} regressed", file=sys.stderr)
        return 1
    print("\nno regression")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and end in one JSON line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="with --workload: start timed repetitions for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the operations, one repetition, no warm-up")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--out", help="where the full run writes its result")
    parser.add_argument("--deadline", type=float, default=None,
                        help="override every workload's virtual deadline")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} is missing: the benchmark runs the "
              "program from source and needs the whole checkout", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    try:
        if args.workload:
            return driver_run(args)
        return full_run(args)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
