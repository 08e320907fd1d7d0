"""Smoke test of the end-to-end benchmark itself.

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``pytest benchmarks/e2e -q``.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = HERE / "run.py"


def _load_run_module():
    spec = importlib.util.spec_from_file_location("e2e_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run_module()

EVERYWHERE = (
    [f"{layer}.{column}" for layer in run.LAYERS
     for column in ("self_share", "self_us_per_op", "calls_in_per_op")]
    + list(run.PROBE_METRICS)
    + ["sim.sim_events_per_s", "sim.build_ms", "trace.overhead_x",
       "net.messages_per_op", "mem.ops_per_op"]
)
#: metric prefix -> the workloads it must be measured on
ONLY_ON = {
    "reconfig.": {"kv_chaos_elastic"},
    "obs.spans_per_op": {"kv_write_heavy_obs"},
    "obs.attached_overhead_x": {"kv_write_heavy", "kv_write_heavy_obs"},
    "sim.parallel.": {"kv_cells"},
    "consensus.decide_delays.": {"consensus_single_shot"},
    "run.scaling_x": set(run.SCALING_WORKLOADS),
}


def test_smoke_run_emits_every_declared_metric(tmp_path):
    out = tmp_path / "result.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert elapsed < 20.0, f"--smoke took {elapsed:.1f}s"
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == set(run.WORKLOADS)
    for name, record in result["workloads"].items():
        assert record["failed"] == 0, name
        assert set(record["end_to_end"]) == set(run.END_TO_END), name
        for metric, cell in record["end_to_end"].items():
            assert cell["value"] is not None, (name, metric)
            assert cell["unit"] == run.END_TO_END[metric][0]
        assert record["end_to_end"]["safety_violations"]["value"] == 0, name
        assert set(record["per_layer"]) == set(run.PER_LAYER), name
        for metric in EVERYWHERE:
            assert record["per_layer"][metric] is not None, (name, metric)
        for prefix, workloads in ONLY_ON.items():
            for metric in list(run.COUNT_METRICS) + list(run.HOST_METRICS):
                if metric.startswith(prefix):
                    measured = record["per_layer"][metric] is not None
                    assert measured == (name in workloads), (name, metric)
    # every metric printed by name; the layer table prints <layer> rows
    # under .<column> headers
    printed = done.stdout
    for metric in list(run.END_TO_END) + list(run.COUNT_METRICS) + list(
        run.HOST_METRICS
    ) + list(run.PROBE_METRICS):
        assert metric in printed, metric
    for column in (".self_share [ratio]", ".self_us_per_op [us]", ".calls_in_per_op [count]"):
        assert column in printed, column
    for layer in run.LAYERS:
        assert f"\n  {layer} " in printed, layer


def test_truncated_virtual_deadline_fails_instead_of_hanging():
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "kv_write_heavy", "--smoke",
         "--seconds", "1", "--deadline", "40"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is False
    assert 0 < line["failed"] <= line["attempted"]
    assert line["metrics"]["success_rate"]["value"] < 1.0


def test_benchmark_json_declares_what_the_command_emits():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declared["paths"] == ["benchmarks/e2e"]
    assert {w["name"]: w["why"] for w in declared["workloads"]} == run.WORKLOADS
    emitted = {
        metric: unit for metric, (unit, _better, _bound) in run.END_TO_END.items()
        if metric not in run.NOT_IN_RESULT_LINE
    }
    emitted.update(success_rate="ratio", safety_checks_passed="count")
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == emitted
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert {
        m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]
    } == run.PER_LAYER
