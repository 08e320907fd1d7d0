"""The observability stack: spans, critical path, metrics, sinks, trip dumps.

The acceptance claims of the tracing layer mirror the paper's Section 3
complexity metric: a traced steady-state Protected Memory Paxos decision
must decompose to exactly **2 memory delays** (the single permission-fenced
phase-2 write), and traced message-passing Paxos to **4 message delays**
end-to-end of which the decision-forming accept phase costs **2** — the
analyzer reproduces the delay counts the paper states, from spans alone.
"""

import io
import json
from unittest import mock

import pytest

from repro.consensus.message_paxos import MessagePaxos
from repro.consensus.protected_memory_paxos import ProtectedMemoryPaxos
from repro.core.cluster import Cluster, ClusterConfig
from repro.errors import AgreementViolation, StalenessViolation
from repro.metrics.reporting import run_report
from repro.obs import runtime as obs_runtime
from repro.obs import (
    ChromeTraceSink,
    Gauge,
    Span,
    JsonlSink,
    K_MEMOP,
    K_MSG,
    K_POINT,
    K_TASK,
    MetricsRegistry,
    attach,
    critical_path,
    critical_path_between,
    detach,
    render_tree,
    span_tree,
)
from repro.shard.service import ShardConfig, ShardedKV
from repro.shard.workload import ClosedLoopClient, OperationMix, UniformKeys
from repro.failures.script import FaultScript
from repro.types import ProcessId

from conftest import env_of, make_kernel, run_single


def traced_cluster(protocol, **cfg):
    cluster = Cluster(protocol, ClusterConfig(3, 3, **cfg))
    return cluster, attach(cluster.kernel)


def traced_service(**cfg):
    service = ShardedKV(ShardConfig(n_shards=2, n_processes=3, n_memories=3, **cfg))
    return service, attach(service.kernel)


# ----------------------------------------------------------------------
# zero-cost contract and attach/detach lifecycle
# ----------------------------------------------------------------------
class TestAttachLifecycle:
    def test_obs_is_off_by_default(self, kernel):
        assert kernel.obs is None

        def noop():
            return
            yield

        task = run_single(kernel, 0, noop())
        assert task.done

    def test_attach_is_idempotent(self, kernel):
        runtime = attach(kernel)
        assert attach(kernel) is runtime
        assert kernel.obs is runtime

    def test_detach_quiesces_hooks_and_closes_sinks(self, kernel):
        runtime = attach(kernel)
        buffer = io.StringIO()
        runtime.add_sink(JsonlSink(buffer))
        detach(kernel)
        assert kernel.obs is None
        assert runtime.sinks == []
        assert kernel.metrics.obs is None

    def test_detached_run_records_nothing(self, kernel):
        runtime = attach(kernel)
        detach(kernel)

        def pinger(env):
            yield env.send(1, "x", topic="t")

        run_single(kernel, 0, pinger(env_of(kernel, 0)))
        assert runtime.spans == []


# ----------------------------------------------------------------------
# the span model: tasks, messages, memory ops, phases
# ----------------------------------------------------------------------
class TestSpanModel:
    def test_message_span_crosses_processes(self, kernel):
        runtime = attach(kernel)
        env0, env1 = env_of(kernel, 0), env_of(kernel, 1)

        def sender():
            yield env0.send(1, "ping", topic="t")

        def receiver():
            yield from env1.recv(topic="t")

        kernel.spawn(ProcessId(0), "sender", sender())
        kernel.spawn(ProcessId(1), "receiver", receiver())
        kernel.run(until=100)
        msgs = [s for s in runtime.spans if s.kind == K_MSG]
        assert len(msgs) == 1
        msg = msgs[0]
        # the message span parents under the sender's task span and the
        # receiver's task adopted it: one trace spans both processes
        sender_span = next(s for s in runtime.spans if s.name == "sender")
        assert msg.parent_id == sender_span.span_id
        assert msg.trace_id == sender_span.trace_id
        assert msg.end is not None and msg.end > msg.start

    def test_memop_span_closes_with_status(self, kernel):
        runtime = attach(kernel)
        env = env_of(kernel, 0)

        def writer():
            yield from env.write(0, "r", ("x", "k"), 1)

        run_single(kernel, 0, writer())
        ops = [s for s in runtime.spans if s.kind == K_MEMOP]
        assert len(ops) == 1
        assert ops[0].attrs["status"] == "ack"
        assert ops[0].end - ops[0].start == pytest.approx(2.0)

    def test_spawned_task_inherits_context(self, kernel):
        runtime = attach(kernel)
        env = env_of(kernel, 0)

        def child():
            yield env.sleep(1)

        def parent():
            yield env.spawn("child", child())
            yield env.sleep(2)

        kernel.spawn(ProcessId(0), "parent-task", parent())
        kernel.run(until=100)
        parent_span = next(s for s in runtime.spans if s.name == "parent-task")
        child_span = next(s for s in runtime.spans if s.name == "child")
        assert child_span.trace_id == parent_span.trace_id

    def test_phase_spans_nest_and_restore_context(self, kernel):
        runtime = attach(kernel)
        env = env_of(kernel, 0)

        def worker():
            obs = env.obs
            phase = obs and obs.phase("outer", tag=1)
            try:
                yield from env.write(0, "r", ("x", "k"), 1)
            finally:
                if phase:
                    phase.finish()
            yield from env.write(0, "r", ("x", "k"), 2)

        kernel.spawn(ProcessId(0), "worker", worker())
        kernel.run(until=100)
        phase_span = next(s for s in runtime.spans if s.name == "outer")
        ops = [s for s in runtime.spans if s.kind == K_MEMOP]
        # first write under the phase, second back under the task
        task_span = next(s for s in runtime.spans if s.name == "worker")
        assert ops[0].parent_id == phase_span.span_id
        assert ops[1].parent_id == task_span.span_id
        assert phase_span.attrs == {"tag": 1}

    def test_an_open_phase_is_its_own_span(self, kernel):
        runtime = attach(kernel)
        env = env_of(kernel, 0)
        seen = []

        def worker():
            phase = env.obs.phase("outer", tag=1)
            task = runtime.current_task
            seen.append(isinstance(phase, Span) and task.ctx is phase)
            seen.append(any(span is phase for span in runtime.open_spans()))
            yield env.sleep(1)
            phase.finish(done=True)
            phase.finish(done=False)  # idempotent
            seen.append(task.ctx is not phase and phase.end == 1.0)

        kernel.spawn(ProcessId(0), "worker", worker())
        kernel.run(until=10)
        assert seen == [True, True, True]
        outer = next(s for s in runtime.spans if s.name == "outer")
        assert (outer.start, outer.end, outer.attrs) == (0.0, 1.0, {"tag": 1, "done": True})

    def test_crash_closes_task_spans_as_killed(self):
        script = FaultScript()
        script.at(1.0).crash_process(0)
        cluster = Cluster(
            ProtectedMemoryPaxos(), ClusterConfig(3, 3, deadline=10_000), script
        )
        runtime = attach(cluster.kernel)
        cluster.run(["a", "b", "c"])
        killed = [s for s in runtime.spans if (s.attrs or {}).get("killed")]
        assert killed, "crashing p1 should close its task spans as killed"
        assert all(s.kind == K_TASK for s in killed)


# ----------------------------------------------------------------------
# the tentpole acceptance: the analyzer reproduces the paper's counts
# ----------------------------------------------------------------------
class TestPaperDelayCounts:
    def test_pmp_steady_state_is_two_memory_delays(self):
        cluster, runtime = traced_cluster(ProtectedMemoryPaxos())
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided
        path = critical_path(runtime, ProcessId(0))
        assert path.memory_delays == pytest.approx(2.0)
        assert path.message_delays == pytest.approx(0.0)
        assert path.queueing == pytest.approx(0.0)
        assert path.total == pytest.approx(2.0)
        # ...and the delays are attributed to the phase-2 write
        by_phase = path.phase_delays()
        assert by_phase == {"log.phase2": {"msg": 0.0, "mem": 2.0, "queue": 0.0}}

    def test_message_paxos_accept_phase_is_two_message_delays(self):
        cluster, runtime = traced_cluster(MessagePaxos())
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided
        path = critical_path(runtime, ProcessId(0))
        assert path.message_delays == pytest.approx(4.0)
        assert path.memory_delays == pytest.approx(0.0)
        assert path.queueing == pytest.approx(0.0)
        by_phase = path.phase_delays()
        assert by_phase["paxos.accept"]["msg"] == pytest.approx(2.0)
        assert by_phase["paxos.prepare"]["msg"] == pytest.approx(2.0)

    def test_summary_renders_the_decomposition(self):
        cluster, runtime = traced_cluster(ProtectedMemoryPaxos())
        cluster.run(["a", "b", "c"])
        text = critical_path(runtime, ProcessId(0)).summary()
        assert "2 memory delays" in text
        assert "log.phase2" in text

    def test_queueing_accounts_uncovered_time(self):
        # a decision window with no transport spans at all is pure queueing
        path = critical_path_between([], 0, proposed_at=0.0, decided_at=5.0)
        assert path.queueing == pytest.approx(5.0)
        assert path.segments[0].kind == "queue"


# ----------------------------------------------------------------------
# the whole-stack trace: client put -> router -> batch -> memops
# ----------------------------------------------------------------------
class TestShardedTrace:
    def test_client_put_trace_reaches_the_memories(self):
        service, runtime = traced_service()
        clients = [
            ClosedLoopClient(
                client_id=c, n_ops=3, keys=UniformKeys(16), mix=OperationMix(0.0)
            )
            for c in range(3)
        ]
        report = service.run_workload(clients)
        assert report.ok
        spans = runtime.spans
        submit = next(s for s in spans if s.name == "client.submit")
        trace = [s for s in spans if s.trace_id == submit.trace_id]
        names = {s.name for s in trace}
        # the ISSUE's tree: frontend -> retry loop -> leader batch ->
        # consensus phase -> per-memory op spans, in ONE trace
        assert "router.attempt" in names
        assert "leader.batch" in names
        assert "log.phase2" in names
        assert any(s.kind == K_MEMOP for s in trace)
        # and it renders as a tree rooted at the client task
        text = render_tree(spans, submit.trace_id)
        assert "client.submit" in text and "leader.batch" in text

    def test_two_slots_in_flight_stay_two_trees(self):
        """A saturated leader keeps two ``leader.batch`` phases open at
        once; each slot's phase 2, op legs, verdict and decision messages
        must stay under its OWN batch, not its older neighbour's."""
        service = ShardedKV(
            ShardConfig(n_shards=1, n_processes=3, n_memories=3, batch_max=2, seed=3)
        )
        runtime = attach(service.kernel)
        clients = [
            ClosedLoopClient(
                client_id=c, n_ops=6, keys=UniformKeys(16), mix=OperationMix(0.0)
            )
            for c in range(8)
        ]
        assert service.run_workload(clients).ok
        spans = runtime.spans
        by_id = {s.span_id: s for s in spans}
        batches = sorted(
            (s for s in spans if s.name == "leader.batch"), key=lambda s: s.start
        )
        # the run did pipeline: consecutive slots' batches overlap in time
        assert any(a.end > b.start for a, b in zip(batches, batches[1:]))
        phase2s = [s for s in spans if s.name == "log.phase2"]
        assert len(phase2s) == len(batches)
        for phase2 in phase2s:
            batch = by_id[phase2.parent_id]
            assert batch.name == "leader.batch"
            assert batch.attrs["slot"] == phase2.attrs["slot"]
            assert batch.start == phase2.start and phase2.end == batch.end
            # the paper's claim, per slot: decided two delays after its post
            assert phase2.end - phase2.start == 2.0
            kids = [s for s in spans if s.parent_id == phase2.span_id]
            assert sorted(k.name for k in kids) == ["WriteOp"] * 3 + ["fanout.verdict"]
            assert len({k.attrs["flow"] for k in kids}) == 1
        leader = f"p{service.leader_of(0) + 1}/g0-propose"
        decisions = [s for s in spans if s.kind == K_MSG and s.actor == leader]
        assert len(decisions) == 2 * len(batches)
        for message in decisions:
            batch = by_id[message.parent_id]
            assert batch.name == "leader.batch" and batch.end == message.start
        # one put's critical path crosses exactly one slot
        def under(root):
            found, frontier = [], [root.span_id]
            while frontier:
                kids = [s for s in spans if s.parent_id in frontier]
                found.extend(kids)
                frontier = [k.span_id for k in kids]
            return found

        headed = 0  # puts whose context parents their batch (its first command)
        for submit in (s for s in spans if s.name == "client.submit"):
            names = [s.name for s in under(submit)]
            assert names.count("leader.batch") == names.count("log.phase2") <= 1
            headed += names.count("leader.batch")
        assert headed == len(batches)
        late = next(
            s for s in spans
            if s.name == "client.submit" and s.start > 4.0
            and any(k.name == "leader.batch" for k in under(s))
        )
        path = critical_path_between(
            under(late), 0, late.start, late.end, trace_id=late.trace_id
        )
        assert path.memory_delays == 2.0

    def test_fenced_read_serves_under_read_phase(self):
        service, runtime = traced_service(read_mode="leader")
        clients = [
            ClosedLoopClient(
                client_id=c, n_ops=4, keys=UniformKeys(8), mix=OperationMix(0.5)
            )
            for c in range(2)
        ]
        report = service.run_workload(clients)
        assert report.ok
        names = {s.name for s in runtime.spans}
        assert "client.get" in names
        assert "read.serve" in names
        assert service.kernel.metrics.total_reads_served("leader") > 0


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_instruments_intern_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.gauge("hits", shard=1)
        b = registry.gauge("hits", shard=1)
        c = registry.gauge("hits", shard=2)
        assert a is b and a is not c
        a.set(3)
        assert registry.gauge("hits", shard=1).value == 3
        assert registry.histogram("hits", shard=1) is registry.histogram("hits", shard=1)

    def test_histogram_aggregates_and_percentiles(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat")
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100
        assert h.mean == pytest.approx(49.5)
        assert h.min == 0.0 and h.max == 99.0
        assert h.percentile(50) == pytest.approx(50.0)

    def test_gauge_series_is_bounded(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        for i in range(5000):
            g.sample(float(i), float(i))
        assert len(g.series) == 4096
        assert g.value == 4999.0

    def test_snapshot_renders_labelled_keys(self):
        registry = MetricsRegistry()
        registry.gauge("hits", shard=1).set(1)
        registry.gauge("depth").set(7)
        snap = registry.snapshot()
        assert snap["hits{shard=1}"] == 1
        assert snap["depth"] == 7

    def test_sampling_ticker_walks_virtual_time(self, kernel):
        runtime = attach(kernel)
        env = env_of(kernel, 0)

        def sleeper():
            yield env.sleep(10)

        runtime.start_sampling(interval=2.0, until=10.0)
        run_single(kernel, 0, sleeper(), until=20)
        series = runtime.registry.gauge("kernel.queue_depth").series
        assert len(series) == 6  # t = 0, 2, 4, 6, 8, 10
        assert [t for t, _v in series] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class TestSinks:
    def _traced_run(self):
        cluster = Cluster(ProtectedMemoryPaxos(), ClusterConfig(3, 3))
        runtime = attach(cluster.kernel)
        jsonl, chrome = io.StringIO(), io.StringIO()
        runtime.add_sink(JsonlSink(jsonl))
        runtime.add_sink(ChromeTraceSink(chrome))
        cluster.run(["a", "b", "c"])
        runtime.close()
        return runtime, jsonl.getvalue(), chrome.getvalue()

    def test_jsonl_streams_one_object_per_span(self):
        runtime, jsonl, _ = self._traced_run()
        lines = [json.loads(line) for line in jsonl.splitlines()]
        assert len(lines) == len(runtime.spans)
        assert all("span" in entry and "name" in entry for entry in lines)

    def test_chrome_trace_is_valid_and_perfetto_shaped(self):
        _, _, chrome = self._traced_run()
        events = json.loads(chrome)
        assert events, "trace must not be empty"
        phases = {event["ph"] for event in events}
        assert "X" in phases  # duration events
        assert "i" in phases  # instant events (decide/propose points)
        first = events[0]
        assert {"name", "pid", "tid", "ts"} <= set(first)


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_profiles_accumulate_per_task(self):
        cluster, runtime = traced_cluster(ProtectedMemoryPaxos())
        cluster.run(["a", "b", "c"])
        resumes, wall = runtime.profiler.totals()
        assert resumes > 0 and wall > 0
        labels = {p.label for p in runtime.profiler.profiles.values()}
        assert any("pmp-proposer" in label for label in labels)
        report = runtime.profiler.report(limit=5)
        assert "task profile" in report and "resumes" in report


# ----------------------------------------------------------------------
# trip dumps
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_agreement_violation_trips_a_dump(self):
        kernel = make_kernel()
        runtime = attach(kernel)
        kernel.metrics.record_decision(ProcessId(0), "a", 1.0)
        with pytest.raises(AgreementViolation):
            kernel.metrics.record_decision(ProcessId(1), "b", 2.0)
        [dump] = runtime.dumps
        assert "agreement violated" in dump["reason"]

    def test_staleness_violation_trips_a_dump(self):
        kernel = make_kernel()
        runtime = attach(kernel)
        with pytest.raises(StalenessViolation):
            kernel.metrics.record_stale_read("stale read of shard g0")
        assert runtime.dumps[-1]["reason"] == "stale read of shard g0"

    def test_dump_carries_recent_and_open_spans(self):
        kernel = make_kernel()
        runtime = attach(kernel)
        env = env_of(kernel, 0)

        def worker():
            yield from env.write(0, "r", ("x", "k"), 1)
            yield env.sleep(100)  # leave the task span open at trip time

        kernel.spawn(ProcessId(0), "worker", worker())
        kernel.run(until=10)
        dump = json.loads(json.dumps(runtime.trip("manual")))
        assert dump["time"] == kernel.now
        assert any(s["kind"] == "memop" for s in dump["recent"])
        assert any(s["name"] == "worker" for s in dump["open"])

    def test_ring_keeps_newest(self):
        kernel = make_kernel()
        runtime = attach(kernel)
        env = env_of(kernel, 0)

        def writer():
            for i in range(10):
                yield from env.write(0, "r", ("x", "k"), i)

        run_single(kernel, 0, writer())
        # the runtime keeps no ring of its own: "recent" is the tail of
        # its span log, rebuilt on read
        with mock.patch.object(obs_runtime, "DUMP_ROWS", 4):
            recent = runtime.trip("manual")["recent"]
        assert len(recent) == 4
        assert recent == [s.to_dict() for s in runtime.spans[-4:]]


# ----------------------------------------------------------------------
# trace context survives crash/recover respawns (satellite)
# ----------------------------------------------------------------------
class TestTraceAcrossRecovery:
    def test_recovered_process_traces_fresh_and_decides(self):
        script = FaultScript()
        script.at(1.0).crash_process(0).recover(at=30.0)
        cluster = Cluster(
            ProtectedMemoryPaxos(), ClusterConfig(3, 3, deadline=60_000), script
        )
        from repro.consensus.omega import crash_aware_omega

        cluster.kernel.omega = crash_aware_omega(cluster.kernel)
        runtime = attach(cluster.kernel)
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed
        # the first incarnation's spans were closed as killed...
        killed = [s for s in runtime.spans if (s.attrs or {}).get("killed")]
        assert killed and all(s.end == 1.0 for s in killed)
        # ...the respawned incarnation opened fresh root traces...
        respawned = [
            s
            for s in runtime.spans + runtime.open_spans()
            if s.kind == K_TASK and s.start == 30.0 and s.actor.startswith("p1/")
        ]
        assert respawned
        killed_traces = {s.trace_id for s in killed}
        assert all(s.trace_id not in killed_traces for s in respawned)
        # ...and the recovered process's decision is traceable end to end
        path = critical_path(runtime, ProcessId(0))
        assert path.decided_at > 30.0
        assert path.memory_delays >= 2.0  # full takeover: prepare + phase 2

    def test_sharded_recovery_keeps_tracing(self):
        script = FaultScript()
        script.at(30.0).crash_process(2).recover(at=90.0)
        service = ShardedKV(
            ShardConfig(
                n_shards=2,
                n_processes=3,
                n_memories=3,
                faults=script,
                deadline=100_000,
            )
        )
        runtime = attach(service.kernel)
        # pin clients to surviving processes: p3 crashes mid-run
        clients = [
            ClosedLoopClient(
                client_id=c,
                n_ops=12,
                keys=UniformKeys(16),
                mix=OperationMix(0.0),
                think_time=10.0,
                pid=c % 2,
            )
            for c in range(3)
        ]
        report = service.run_workload(clients)
        assert report.ok
        # batches committed after the recovery still trace to the memories
        late_batches = [
            s
            for s in runtime.spans
            if s.name == "leader.batch" and s.start > 90.0
        ]
        assert late_batches, "ops blocked by the crash must commit after recovery"
        for batch in late_batches:
            index = span_tree(runtime.spans, batch.trace_id)
            kids = index.get(batch.span_id, [])
            assert any(k.name == "log.phase2" or k.kind == K_MEMOP for k in kids)


# ----------------------------------------------------------------------
# the combined run report
# ----------------------------------------------------------------------
class TestRunReport:
    def test_report_combines_workload_faults_reconfig_and_obs(self):
        script = FaultScript()
        script.at(30.0).crash_process(2).recover(at=90.0)
        service = ShardedKV(
            ShardConfig(
                n_shards=2,
                n_processes=3,
                n_memories=3,
                faults=script,
                deadline=100_000,
            )
        )
        runtime = attach(service.kernel)
        clients = [
            ClosedLoopClient(
                client_id=c,
                n_ops=12,
                keys=UniformKeys(16),
                mix=OperationMix(0.0),
                think_time=10.0,
            )
            for c in range(2)
        ]
        report = service.run_workload(clients)
        text = run_report(report, service.kernel.metrics, runtime)
        assert "workload" in text
        assert "fault timeline" in text
        assert "crash_proc" in text and "recover_proc" in text
        assert "reconfiguration timeline" in text
        assert "[PASS] agreement" in text
        assert "metrics registry" in text
        assert "task profile" in text

    def test_report_sections_are_optional(self):
        text = run_report(ledger=make_kernel().metrics)
        assert "fault timeline" in text and "workload" not in text


# ----------------------------------------------------------------------
# critical-path edge cases: crashed memories, fused chains, empty traces
# ----------------------------------------------------------------------
def _span(span_id, name, kind, start, end, trace_id=1, attrs=None):
    span = Span(span_id, None, trace_id, name, kind, "p0", start, attrs)
    span.end = end
    return span


class TestCriticalPathEdges:
    def test_empty_trace_is_pure_queueing(self):
        path = critical_path_between([], 0, proposed_at=2.0, decided_at=9.0)
        assert path.queueing == pytest.approx(7.0)
        assert path.message_delays == 0 and path.memory_delays == 0
        assert len(path.segments) == 1

    def test_open_span_from_crashed_memory_is_excluded(self):
        # A memory that crashed mid-operation leaves its span open
        # (end=None); the analyzer must not try to walk through it —
        # the window degrades to queueing instead of crashing.
        hung = Span(1, None, 1, "WriteOp", K_MEMOP, "p0", 1.0)
        assert hung.end is None
        path = critical_path_between([hung], 0, proposed_at=0.0, decided_at=6.0)
        assert path.memory_delays == 0
        assert path.queueing == pytest.approx(6.0)

    def test_fused_chain_span_is_one_tile_with_op_count(self):
        # single-completion semantics: a chain of 3 WRs is ONE span and
        # ONE 2-delay tile, annotated with what it amortized
        chain = _span(1, "BatchOp", K_MEMOP, 1.0, 3.0, attrs={"ops": 3})
        path = critical_path_between([chain], 0, proposed_at=1.0, decided_at=3.0)
        assert path.memory_delays == 2
        (segment,) = path.segments
        assert segment.name == "BatchOp[3]"

    def test_queueing_never_negative(self):
        # overlapping spans that extend past both window edges must not
        # produce negative gaps
        spans = [
            _span(1, "m", K_MSG, -1.0, 2.0),
            _span(2, "w", K_MEMOP, 1.5, 4.0),
        ]
        path = critical_path_between(spans, 0, proposed_at=0.0, decided_at=4.0)
        assert path.queueing >= 0.0
        assert all(s.end >= s.start for s in path.segments)

    def test_chain_annotation_survives_real_batched_run(self):
        from repro.consensus.protected_memory_paxos import PmpConfig

        cluster, runtime = traced_cluster(
            ProtectedMemoryPaxos(PmpConfig(skip_first_attempt=False))
        )
        cluster.run(["a", "b", "c"])
        path = critical_path(runtime, ProcessId(0))
        labels = [s.name for s in path.segments]
        assert any("[" in label for label in labels if label != "queue")


# ----------------------------------------------------------------------
# gauge ring bound + dropped counter (obs under long SLO windows)
# ----------------------------------------------------------------------
class TestGaugeRing:
    def test_dropped_counts_scrolled_samples(self):
        g = Gauge("depth", (), bound=8)
        for i in range(20):
            g.sample(float(i), float(i))
        assert len(g.series) == 8
        assert g.total == 20
        assert g.dropped == 12
        # newest samples win
        assert [v for _t, v in g.series] == [float(i) for i in range(12, 20)]

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            Gauge("x", (), bound=0)


# ----------------------------------------------------------------------
# trip dumps carry the metrics + SLO state of the run
# ----------------------------------------------------------------------
class TestFlightContext:
    def test_dump_includes_registry_and_slo_snapshots(self):
        from repro.obs.slo import Objective

        cluster, runtime = traced_cluster(ProtectedMemoryPaxos())
        runtime.track_slo([Objective("lat", latency_budget=50.0)])
        cluster.run(["a", "b", "c"])
        dump = runtime.trip("test")
        assert "metrics" in dump
        assert "slo" in dump
        assert dump["slo"]["objectives"][0]["name"] == "lat"

    def test_dump_without_slo_still_has_metrics(self):
        cluster, runtime = traced_cluster(ProtectedMemoryPaxos())
        cluster.run(["a", "b", "c"])
        dump = runtime.trip("test")
        assert "metrics" in dump and "slo" not in dump


# ----------------------------------------------------------------------
# chrome sink: counter tracks and fan-out flow arrows
# ----------------------------------------------------------------------
class TestChromeFlowsAndCounters:
    def _batched_trace(self):
        from repro.consensus.protected_memory_paxos import PmpConfig

        buf = io.StringIO()
        cluster, runtime = traced_cluster(
            ProtectedMemoryPaxos(PmpConfig())
        )
        runtime.add_sink(ChromeTraceSink(buf))
        runtime.start_sampling(5.0, until=30.0)
        cluster.run(["a", "b", "c"])
        runtime.close()
        return json.loads(buf.getvalue())

    def test_gauges_become_counter_tracks(self):
        events = self._batched_trace()
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        assert all(e["pid"] == "metrics" and "value" in e["args"] for e in counters)
        assert any(e["name"] == "kernel.queue_depth" for e in counters)

    def test_fanout_legs_flow_into_the_verdict(self):
        events = self._batched_trace()
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert starts and finishes
        # every flow id that finishes was started
        started_ids = {e["id"] for e in starts}
        assert all(e["id"] in started_ids for e in finishes)
        # the verdict binds at its enclosing slice's start
        assert all(e.get("bp") == "e" for e in finishes)


# ----------------------------------------------------------------------
# kernel fan-out verdict point + latency hot-swap
# ----------------------------------------------------------------------
class TestKernelObsSeams:
    def test_single_completion_emits_verdict_span(self):
        from repro.consensus.protected_memory_paxos import PmpConfig

        cluster, runtime = traced_cluster(
            ProtectedMemoryPaxos(PmpConfig())
        )
        cluster.run(["a", "b", "c"])
        verdicts = [s for s in runtime.spans if s.name == "fanout.verdict"]
        assert verdicts
        for span in verdicts:
            assert span.attrs["acked"] >= 0
            assert "flow" in span.attrs

    def test_set_latency_recaches_constants(self, kernel):
        from repro.sim.latency import JitteredSynchrony, NominalLatency

        assert kernel._msg_delay == 1.0
        assert kernel.fifo_memory_ops
        kernel.set_latency(JitteredSynchrony())
        assert kernel._msg_delay is None
        assert not kernel.fifo_memory_ops
        kernel.set_latency(NominalLatency())
        assert kernel._msg_delay == 1.0
        assert kernel.fifo_memory_ops

    def test_dynamic_model_can_promise_fifo(self, kernel):
        from repro.sim.latency import JitteredSynchrony

        model = JitteredSynchrony()
        model.fifo_memory_ops = True
        kernel.set_latency(model)
        assert kernel.fifo_memory_ops


# ----------------------------------------------------------------------
# one write path per fact: the ledger records, spans mirror when attached
# ----------------------------------------------------------------------
def _churny_cluster():
    """PMP under every fault kind the controller knows."""
    from repro.consensus.omega import crash_aware_omega

    script = FaultScript()
    script.at(1.0).crash_process(0).recover(at=30.0)
    script.at(2.0).partition({0, 1}, {2}).heal(at=25.0)
    script.at(3.0).delay_link(1, 2, factor=2.0, until=20.0)
    script.at(4.0).permission_storm(pid=2, region="pmp", shots=2)
    script.at(5.0).crash_memory(2).recover(at=40.0)
    cluster = Cluster(ProtectedMemoryPaxos(), ClusterConfig(3, 3, deadline=60_000), script)
    cluster.kernel.omega = crash_aware_omega(cluster.kernel)
    return cluster


def _timeline(ledger):
    return [
        (r.time, r.kind, r.subject, r.detail)
        for r in ledger.fault_timeline + ledger.reconfig_timeline + ledger.slo_timeline
    ]


class TestOneWritePath:
    def test_every_fault_record_is_exactly_one_point_span(self):
        cluster = _churny_cluster()
        runtime = attach(cluster.kernel, profile=False)
        assert cluster.run(["a", "b", "c"]).all_decided
        records = _timeline(cluster.kernel.metrics)
        assert {kind for _t, kind, _s, _d in records} == {
            "crash_proc", "recover_proc", "crash_mem", "recover_mem",
            "partition", "heal", "link_chaos", "link_clear", "perm_change",
        }
        points = [
            s for s in runtime.spans if s.kind == K_POINT and "subject" in (s.attrs or {})
        ]
        # same order, same instant, same kind, same subject, same detail
        assert [
            (p.start, p.name, p.attrs["subject"], {k: v for k, v in p.attrs.items() if k != "subject"})
            for p in points
        ] == records

    def test_detached_ledger_is_identical_and_no_span_is_built(self, monkeypatch):
        attached = _churny_cluster()
        attach(attached.kernel, profile=False)
        attached.run(["a", "b", "c"])

        def no_span(*_args, **_kwargs):
            raise AssertionError("a Span was constructed with obs detached")

        monkeypatch.setattr("repro.obs.runtime.Span", no_span)
        detached = _churny_cluster()
        assert detached.run(["a", "b", "c"]).all_decided
        assert detached.kernel.obs is None and detached.kernel.metrics.obs is None
        assert _timeline(detached.kernel.metrics) == _timeline(attached.kernel.metrics)
        assert detached.kernel.metrics.decisions == attached.kernel.metrics.decisions
        assert detached.kernel.metrics.mem_ops == attached.kernel.metrics.mem_ops
        assert detached.kernel.queue.popped == attached.kernel.queue.popped

    def test_the_three_drop_points_fire(self, kernel):
        runtime = attach(kernel, profile=False)
        env0, env1 = env_of(kernel, 0), env_of(kernel, 1)
        script = FaultScript()
        script.at(0.0).crash_memory(1)
        script.at(0.0).drop_link(0, 2, prob=1.0)
        script.at(0.5).partition({0}, {1, 2})  # severs the link mid-flight
        script.install(kernel)

        def sender():
            yield env0.send(1, "cut", topic="t")   # lands in the partition
            yield env0.send(2, "lost", topic="t")  # eaten by the chaos filter
            yield from env0.write(1, "r", ("x", "k"), 1)  # memory is down

        kernel.spawn(0, "sender", sender())
        kernel.run(until=10)
        drops = {
            s.name: s.attrs for s in runtime.spans if s.name.endswith("_drop")
        }
        assert drops == {
            "chaos_drop": {"dst": "p3"},
            "partition_drop": {"src": "p1", "dst": "p2", "topic": "t"},
            "mem_drop": {"mem": "mu2"},
        }
        assert kernel.network.chaos_dropped == kernel.network.partition_dropped == 1
        assert all(s.kind == K_POINT for s in runtime.spans if s.name in drops)
