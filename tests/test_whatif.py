"""The causal what-if profiler, SLO plane, and differential tracer.

Three planes built on the deterministic kernel:

* ``repro.obs.whatif`` — Coz-style causal profiling by *exact
  counterfactual replay*: wrap the latency model in a
  :class:`LatencyOverride` that virtually speeds up one component, rerun
  the identical seed/schedule, and measure the actual end-to-end impact.
  The headline validation is the paper's own accounting: on a classic
  (unbatched, skip-off) Protected Memory Paxos run the top-ranked
  bottleneck must be the prepare-phase fan-out, and virtually removing
  two-thirds of it must reproduce the 8 -> 4 delay improvement that
  doorbell batching delivered for real.
* ``repro.obs.slo`` — burn-rate objectives over virtual time; breaches
  land in the metrics ledger and must replay deterministically even
  under fault scripts.
* ``repro.obs.diff`` — align two runs' span trees by causal identity
  and attribute the latency delta segment by segment.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.consensus.protected_memory_paxos import PmpConfig, ProtectedMemoryPaxos
from repro.core.cluster import Cluster, ClusterConfig
from repro.errors import ConfigurationError, WhatIfDivergence
from repro.failures.script import FaultScript
from repro.metrics.reporting import run_report
from repro.obs import (
    Experiment,
    LatencyOverride,
    Objective,
    ScaleIssue,
    ScaleLink,
    ScaleMemory,
    WhatIfProfiler,
    attach,
    critical_delta,
    critical_path,
    diff_runs,
    diff_spans,
    issue_experiment,
    link_experiment,
    memory_experiment,
    phase_experiment,
    run_hash,
    span_identities,
)
from repro.obs.slo import SloTracker
from repro.sim.latency import JitteredSynchrony, NominalLatency
from repro.shard.service import ShardConfig, ShardedKV
from repro.shard.workload import ClosedLoopClient, OperationMix, UniformKeys


RNG = random.Random(0)


# ----------------------------------------------------------------------
# LatencyOverride: the replay seam
# ----------------------------------------------------------------------
class TestLatencyOverride:
    def test_identity_override_prices_like_base(self):
        ov = LatencyOverride()
        assert ov.message_delay(0, 1, 0.0, RNG) == 1.0
        assert ov.memory_request_delay(0, 0, 0.0, RNG) == 1.0
        assert ov.memory_response_delay(0, 0, 0.0, RNG) == 1.0
        assert ov.memory_issue_delay(0, 0, 0.0, RNG) == 0.0

    def test_memory_rule_scales_both_legs_of_one_memory(self):
        ov = LatencyOverride(rules=[ScaleMemory(0.5, mid=1)])
        assert ov.memory_request_delay(0, 1, 0.0, RNG) == 0.5
        assert ov.memory_response_delay(0, 1, 0.0, RNG) == 0.5
        # other memories untouched
        assert ov.memory_request_delay(0, 0, 0.0, RNG) == 1.0

    def test_memory_rule_without_mid_scales_all(self):
        ov = LatencyOverride(rules=[ScaleMemory(2.0)])
        for mid in range(3):
            assert ov.memory_request_delay(0, mid, 0.0, RNG) == 2.0

    def test_link_rule_is_directional(self):
        ov = LatencyOverride(rules=[ScaleLink(0.25, src=0, dst=2)])
        assert ov.message_delay(0, 2, 0.0, RNG) == 0.25
        assert ov.message_delay(2, 0, 0.0, RNG) == 1.0
        assert ov.message_delay(0, 1, 0.0, RNG) == 1.0

    def test_issue_rule_scales_per_wr_cost(self):
        class ChargedIssue(NominalLatency):
            constant_issue_delay = 0.4

        ov = LatencyOverride(base=ChargedIssue(), rules=[ScaleIssue(0.5)])
        assert ov.memory_issue_delay(0, 0, 0.0, RNG) == pytest.approx(0.2)

    def test_stacked_rules_multiply(self):
        ov = LatencyOverride(rules=[ScaleMemory(0.5), ScaleMemory(0.5, mid=0)])
        assert ov.memory_request_delay(0, 0, 0.0, RNG) == 0.25
        assert ov.memory_request_delay(0, 1, 0.0, RNG) == 0.5

    def test_factor_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ScaleMemory(0.0)
        with pytest.raises(ConfigurationError):
            ScaleLink(-1.0)

    def test_fifo_promise_without_phase_rules(self):
        # Constant-base, no phase rules: order-preserving scaling keeps
        # the FIFO queue-pair property (and the fused-read code paths).
        assert LatencyOverride(rules=[ScaleMemory(0.5)]).fifo_memory_ops
        assert not LatencyOverride(
            rules=[phase_experiment("pmp.prepare", 0.5).rules[0]]
        ).fifo_memory_ops
        assert not LatencyOverride(base=JitteredSynchrony()).fifo_memory_ops


# ----------------------------------------------------------------------
# the profiler on classic PMP: the acceptance scenario
# ----------------------------------------------------------------------
def classic_pmp(latency):
    """Skip-off PMP under segmented chain delivery: the paper's full
    two-phase slow path, one round trip per operation."""
    cluster = Cluster(
        ProtectedMemoryPaxos(PmpConfig(skip_first_attempt=False)),
        ClusterConfig(3, 3, latency=latency),
    )
    cluster.kernel.config.chain_delivery = "segmented"
    attach(cluster.kernel)
    return cluster.run(["a", "b", "c"])


class TestWhatIfProfiler:
    @pytest.fixture(scope="class")
    def report(self):
        prof = WhatIfProfiler(classic_pmp, check_determinism=True)
        experiments = [
            phase_experiment("pmp.prepare", 1 / 3, name="prepare fan-out"),
            phase_experiment("pmp.phase2", 0.5, name="phase-2 write"),
            link_experiment(0.5, name="all links"),
            memory_experiment(0, 0.5, name="memory 0"),
            issue_experiment(0.5, name="issue cost"),
        ]
        return prof.rank(experiments, k=3)

    def test_classic_baseline_is_eight_delays(self, report):
        assert report.baseline.measurement.earliest_delay == pytest.approx(8.0)

    def test_top_bottleneck_is_prepare_fanout(self, report):
        top = report.top
        assert top is not None
        assert top.experiment.name == "prepare fan-out"

    def test_prepare_override_reproduces_batching_win(self, report):
        # PR 8's doorbell batching collapsed prepare's three sequential
        # ops (6 delays) into one fused chain (2 delays): 8 -> 4 total.
        # The counterfactual must predict exactly that.
        top = report.top
        assert top.before == pytest.approx(8.0)
        assert top.after == pytest.approx(4.0)
        assert top.speedup == pytest.approx(2.0)

    def test_critical_path_recomposition(self, report):
        phases = report.baseline.measurement.phase_delays
        assert phases["pmp.prepare"]["mem"] == pytest.approx(6.0)
        assert phases["pmp.phase2"]["mem"] == pytest.approx(2.0)
        assert phases["pmp.prepare"]["queue"] >= 0.0

    def test_greedy_ranking_stacks(self, report):
        # Round two runs on top of the prepare override; the next win is
        # the phase-2 write, taking the stacked run from 4 to 3 delays.
        assert len(report.ranked) >= 2
        second = report.ranked[1]
        assert second.experiment.name == "phase-2 write"
        assert second.before == pytest.approx(4.0)
        assert second.after == pytest.approx(3.0)

    def test_summary_mentions_top_experiment(self, report):
        text = report.summary()
        assert "prepare fan-out" in text
        assert "baseline" in text

    def test_replay_is_hash_deterministic(self):
        # check_determinism=True replays every experiment and compares
        # trace hashes; divergence would raise WhatIfDivergence.
        prof = WhatIfProfiler(classic_pmp, check_determinism=True)
        run1 = prof.run([], name="a")
        run2 = prof.run([], name="b")
        assert run1.measurement.trace_hash == run2.measurement.trace_hash

    def test_divergence_error_exists(self):
        # the error type is part of the public surface (callers catch it)
        assert issubclass(WhatIfDivergence, Exception)

    def test_compare_returns_all_results(self):
        prof = WhatIfProfiler(classic_pmp)
        results = prof.compare(
            [
                phase_experiment("pmp.prepare", 1 / 3),
                memory_experiment(None, 0.5, name="all memories"),
            ]
        )
        assert len(results) == 2
        assert all(r.before == pytest.approx(8.0) for r in results)
        # slowing nothing down: every experiment here is a speedup
        assert all(r.improvement >= 0.0 for r in results)

    def test_slowdown_experiment_shows_negative_improvement(self):
        prof = WhatIfProfiler(classic_pmp)
        (result,) = prof.compare(
            [Experiment("slow memories", (ScaleMemory(2.0),))]
        )
        assert result.after > result.before
        assert result.improvement < 0.0

    def test_run_hash_stable_across_identical_runs(self):
        def run():
            cluster = Cluster(
                ProtectedMemoryPaxos(),
                ClusterConfig(3, 3),
            )
            attach(cluster.kernel)
            cluster.run(["a", "b", "c"])
            return run_hash(cluster.kernel)

        assert run() == run()

    def test_run_hash_covers_what_a_truncated_ring_dropped(self):
        def run(**options):
            cluster = Cluster(ProtectedMemoryPaxos(), ClusterConfig(3, 3))
            runtime = attach(cluster.kernel, profile=False, **options)
            cluster.run(["a", "b", "c"])
            return cluster.kernel, runtime

        kernel, runtime = run(max_spans=8)
        assert len(runtime.finished) == 8 and runtime.dropped > 0
        truncated = run_hash(kernel)
        assert truncated != run_hash(run()[0])
        # the digest is over the retained spans AND the count that scrolled
        # out: the same eight spans after a longer prefix must not collide
        kernel.obs = SimpleNamespace(
            finished=runtime.finished,
            dropped=runtime.dropped + 1,
            open_spans=runtime.open_spans,
        )
        assert run_hash(kernel) != truncated

    @pytest.mark.parametrize("arm", ["call_at", "schedule_fault"])
    def test_virtual_clock_is_float_whatever_the_caller_passed(self, arm):
        # ``call_at(50, fn)`` used to leave ``kernel.now`` the int 50, spans
        # started there carried ``start=50``, and repr(50) != repr(50.0)
        # reached the digest: the same run hashed differently by caller.
        from repro.sim.faults import CrashMemory
        from repro.types import MemoryId

        def run(at):
            cluster = Cluster(ProtectedMemoryPaxos(), ClusterConfig(3, 3))
            runtime = attach(cluster.kernel, profile=False)
            kernel = cluster.kernel
            if arm == "call_at":
                kernel.call_at(at, lambda: runtime.point("probe"))
            else:
                kernel.schedule_fault(at, CrashMemory(MemoryId(2)))
            cluster.run(["a", "b", "c"])
            kernel.run(until=60)
            assert type(kernel.now) is float and kernel.now == 50.0
            assert all(
                type(s.start) is float and type(s.end) is float for s in runtime.spans
            )
            return run_hash(kernel)

        assert run(50) == run(50.0)


# ----------------------------------------------------------------------
# SLO plane: deterministic breaches under chaos
# ----------------------------------------------------------------------
LATENCY_SLO = Objective(
    "commit-latency",
    latency_budget=40.0,
    target=0.9,
    window=50.0,
    long_window=150.0,
    burn_threshold=2.0,
)


def chaos_service():
    script = FaultScript()
    script.at(60.0).crash_process(0).recover(at=160.0)
    cfg = ShardConfig(
        n_shards=2,
        n_processes=3,
        n_memories=3,
        seed=7,
        faults=script,
        slo=(LATENCY_SLO,),
    )
    service = ShardedKV(cfg)
    runtime = attach(service.kernel)
    clients = [
        ClosedLoopClient(
            client_id=i,
            n_ops=30,
            keys=UniformKeys(40),
            mix=OperationMix(read_fraction=0.3),
        )
        for i in range(6)
    ]
    report = service.run_workload(clients, deadline=2000.0)
    return service, runtime, report


class TestSloPlane:
    def test_objective_validation(self):
        with pytest.raises(ConfigurationError):
            Objective("empty")  # needs a budget or an availability target
        with pytest.raises(ConfigurationError):
            Objective("bad-target", latency_budget=10.0, target=1.5)
        with pytest.raises(ConfigurationError):
            Objective("bad-windows", latency_budget=10.0, window=100.0, long_window=50.0)

    def test_chaos_breach_fires_and_recovers(self):
        service, runtime, _ = chaos_service()
        timeline = service.kernel.metrics.slo_timeline
        kinds = [r.kind for r in timeline]
        assert "slo_breach" in kinds
        assert "slo_recover" in kinds
        assert runtime.slo.total_breaches() >= 1
        # breach strictly after the crash, recovery after the breach
        breach = next(r for r in timeline if r.kind == "slo_breach")
        recover = next(r for r in timeline if r.kind == "slo_recover")
        assert breach.time > 60.0
        assert recover.time > breach.time
        # recovered by the end of the run
        assert runtime.slo.breached() == []
        # each transition is written once, to the ledger, which mirrors it
        # as exactly one point span
        points = [s for s in runtime.spans if s.name in ("slo_breach", "slo_recover")]
        assert [
            (p.start, p.name, p.attrs["subject"], p.attrs["burn_short"]) for p in points
        ] == [(r.time, r.kind, r.subject, r.detail["burn_short"]) for r in timeline]

    def test_chaos_breaches_are_deterministic(self):
        s1, _, _ = chaos_service()
        s2, _, _ = chaos_service()
        t1 = [(r.time, r.kind, r.subject) for r in s1.kernel.metrics.slo_timeline]
        t2 = [(r.time, r.kind, r.subject) for r in s2.kernel.metrics.slo_timeline]
        assert t1 == t2

    def test_breaches_appear_in_run_report(self):
        service, runtime, report = chaos_service()
        text = run_report(report, service.kernel.metrics, runtime, title="chaos")
        assert "slo plane" in text
        assert "slo timeline" in text
        assert "slo_breach" in text
        assert "commit-latency" in text

    def test_burn_gauge_sampled(self):
        _, runtime, _ = chaos_service()
        gauges = {g.name for g in runtime.registry.gauges()}
        assert "slo.burn" in gauges

    def test_quiet_run_never_breaches(self):
        cfg = ShardConfig(
            n_shards=2, n_processes=3, n_memories=3, seed=3, slo=(LATENCY_SLO,)
        )
        service = ShardedKV(cfg)
        runtime = attach(service.kernel)
        clients = [
            ClosedLoopClient(client_id=i, n_ops=15, keys=UniformKeys(20))
            for i in range(4)
        ]
        service.run_workload(clients, deadline=1500.0)
        assert service.kernel.metrics.slo_timeline == []
        assert runtime.slo.total_breaches() == 0

    def test_availability_objective_tracks_fallbacks(self):
        # Drive the availability burn directly through the ledger: a
        # burst of read fallbacks against a 99.9% objective must breach.
        cfg = ShardConfig(n_shards=2, n_processes=3, n_memories=3, seed=5)
        service = ShardedKV(cfg)
        runtime = attach(service.kernel)
        obj = Objective(
            "read-availability",
            availability=0.999,
            window=50.0,
            long_window=100.0,
            burn_threshold=2.0,
        )
        tracker = SloTracker(runtime, [obj])
        ledger = service.kernel.metrics
        for _ in range(90):
            ledger.count_read(0, "lease")
        tracker.evaluate(10.0)
        assert tracker.breached() == []
        for _ in range(10):
            ledger.count_read_fallback(0, "lease")
        tracker.evaluate(60.0)
        assert tracker.breached() == ["read-availability"]

    def test_shard_scoped_objective_burns_on_its_own_shard_only(self):
        cfg = ShardConfig(n_shards=2, n_processes=3, n_memories=3, seed=5)
        service = ShardedKV(cfg)
        runtime = attach(service.kernel)
        objectives = [
            Objective(
                f"shard{g}-latency", latency_budget=5.0, target=0.9, shard=g,
                window=50.0,
            )
            for g in (0, 1)
        ]
        tracker = SloTracker(runtime, objectives)
        ledger = service.kernel.metrics
        for latency in (50.0, 60.0, 70.0):
            ledger.record_shard_latency(0, 10.0, latency)
        tracker.evaluate(20.0)
        assert tracker.states["shard0-latency"].burn_short > 2.0
        assert tracker.states["shard1-latency"].burn_short == 0.0


# ----------------------------------------------------------------------
# differential tracing
# ----------------------------------------------------------------------
def pmp_run(fused: bool):
    cluster = Cluster(
        ProtectedMemoryPaxos(PmpConfig(skip_first_attempt=False)),
        ClusterConfig(3, 3),
    )
    if not fused:
        cluster.kernel.config.chain_delivery = "segmented"
    runtime = attach(cluster.kernel)
    cluster.run(["a", "b", "c"])
    return cluster, runtime


class TestTraceDiff:
    def test_identical_runs_diff_to_zero(self):
        _, a = pmp_run(False)
        _, b = pmp_run(False)
        diff = diff_runs(a, b)
        assert diff.total_delta == pytest.approx(0.0)
        assert diff.only_a == []
        assert diff.only_b == []
        assert all(d.delta == pytest.approx(0.0) for d in diff.matched)

    def test_classic_vs_batched_attributes_the_win(self):
        _, classic = pmp_run(False)
        _, batched = pmp_run(True)
        diff = diff_runs(classic, batched)
        # batching is strictly faster: matched spans shrink overall
        assert diff.total_delta < 0.0
        by_name = diff.by_name()
        # the prepare phase itself shrinks...
        assert by_name[("phase", "pmp.prepare")]["delta"] < 0.0
        # ...because individual WriteOps are replaced by fused BatchOps:
        # structural churn, not matched-span churn
        assert by_name[("memop", "WriteOp")]["only_a"] > 0
        assert by_name[("memop", "BatchOp")]["only_b"] > 0

    def test_summary_renders(self):
        _, classic = pmp_run(False)
        _, batched = pmp_run(True)
        text = diff_runs(classic, batched).summary(limit=5)
        assert "trace diff" in text
        assert "pmp.prepare" in text

    def test_critical_delta_localizes_to_prepare(self):
        _, classic = pmp_run(False)
        _, batched = pmp_run(True)
        delta = critical_delta(critical_path(classic, 0), critical_path(batched, 0))
        assert delta["pmp.prepare"]["mem"] == pytest.approx(-4.0)
        assert delta.get("pmp.phase2", {"mem": 0.0})["mem"] == pytest.approx(0.0)

    def test_span_identities_are_path_qualified(self):
        _, runtime = pmp_run(False)
        spans = runtime.finished
        idents = span_identities(spans)
        assert len(idents) == len(spans)
        # identity = (path of (kind, name) pairs from root, ordinal)
        path, ordinal = next(iter(idents.values()))
        assert isinstance(ordinal, int)
        assert all(len(step) == 2 for step in path)

    def test_diff_spans_marks_structural_difference(self):
        _, a = pmp_run(False)
        spans = list(a.finished)
        diff = diff_spans(spans, spans[: len(spans) // 2])
        assert diff.only_a  # the dropped half is structural-only in A
