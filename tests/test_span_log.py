"""The columnar span log against the store it replaced.

Until PR 21 the finished spans of an attached run were a
``deque(maxlen=max_spans)`` of :class:`Span` objects.  They are now rows
of :class:`SpanLog` and every read rebuilds a ``Span``.  The deque lives
on here, as the reference: whatever sequence of spans is appended, at
whatever capacity, the log must read back exactly what the deque would
hold — all nine fields, attrs with their key order and ``None`` told apart
from ``{}``, times as ``float``.  The structural tests pin *why* the log
exists: a finished span is not a GC-tracked object, and a task's label is
one string however many spans carry it.
"""

from __future__ import annotations

import gc
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.consensus.protected_memory_paxos import PmpConfig, ProtectedMemoryPaxos
from repro.core.cluster import Cluster, ClusterConfig
from repro.obs import attach, critical_path, diff_runs, diff_spans
from repro.sim import run_hash
from repro.obs.critical import critical_path_between
from repro.obs.spans import Span, SpanLog
from repro.shard import ClosedLoopClient, ShardConfig, ShardedKV, YCSB_A, ZipfianKeys
from repro.types import ProcessId

_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

FIELDS = Span.__slots__


class _Opaque:
    """An arbitrary attr value (``decide`` carries the decided value)."""

    def __init__(self, tag: int) -> None:
        self.tag = tag


_IDS = st.integers(1, 2**62)
_VALUES = st.one_of(
    st.text(max_size=6),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.tuples(st.integers(), st.text(max_size=3)),
    st.builds(_Opaque, st.integers(0, 9)),
)
_KEYS = st.sampled_from(["src", "dst", "mem", "status", "value", "ops", "flow"])
# a list of unique (key, value) pairs keeps the drawn key ORDER in the dict
_ATTRS = st.none() | st.lists(
    st.tuples(_KEYS, _VALUES), unique_by=lambda kv: kv[0], max_size=5
).map(dict)


@st.composite
def finished_spans(draw) -> Span:
    start = draw(st.floats(0.0, 1e9, allow_nan=False))
    length = draw(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 1e6, allow_nan=False))
    span = Span(
        draw(_IDS),
        draw(st.none() | _IDS),
        draw(_IDS),
        draw(st.sampled_from(["msg:t", "WriteOp", "pmp.phase2", "decide", ""])),
        draw(st.sampled_from(["task", "msg", "memop", "phase", "point"])),
        draw(st.sampled_from(["kernel", "p1/leader", "p3/client-7"])),
        start,
        draw(_ATTRS),
    )
    span.end = start + length
    return span


def fields(span: Span) -> tuple:
    """Everything a span carries, in a form ``==`` is strict about."""
    attrs = span.attrs
    return (
        span.span_id,
        span.parent_id,
        span.trace_id,
        span.name,
        span.kind,
        span.actor,
        (type(span.start), span.start),
        (type(span.end), span.end),
        # dict == ignores order and {} == {} says nothing about None
        None if attrs is None else list(attrs.items()),
    )


class TestAgainstTheDeque:
    @_SETTINGS
    @given(
        # 3, 5 and 8 cross the log's compaction point several times
        st.sampled_from([0, 1, 3, 5, 8, 1000]),
        st.lists(finished_spans(), max_size=30),
    )
    def test_every_read_matches_after_every_append(self, capacity, spans):
        reference: deque = deque(maxlen=capacity)
        dropped = 0
        log = SpanLog(capacity)
        for span in spans:
            if len(reference) == capacity:
                dropped += 1
            reference.append(span)
            log.append(span)

            assert len(log) == len(reference)
            assert log.dropped == dropped
            expected = [fields(s) for s in reference]
            assert [fields(s) for s in log] == expected
            assert [fields(log[i]) for i in range(len(log))] == expected
            assert [fields(s) for s in log[-3:]] == expected[-3:]
            if reference:
                assert fields(log[-1]) == fields(reference[-1])
            else:
                with pytest.raises(IndexError):
                    log[-1]
            with pytest.raises(IndexError):
                log[len(reference)]

    def test_a_rebuilt_span_is_equal_not_identical(self):
        value = _Opaque(1)
        span = Span(7, None, 3, "decide", "point", "p1/leader", 2.0, {"value": value})
        span.end = 2.0
        log = SpanLog(4)
        log.append(span)
        first, second = log[0], log[0]
        assert first is not span and first is not second
        assert fields(first) == fields(second) == fields(span)
        assert first.attrs["value"] is value  # the value itself is shared
        first.attrs["value"] = None  # ...but the dict is the reader's own
        assert log[0].attrs["value"] is value
        assert first.to_dict() != span.to_dict() == second.to_dict()

    def test_empty_attrs_stay_a_dict_and_absent_attrs_stay_none(self):
        log = SpanLog(2)
        for attrs in (None, {}):
            span = Span(1, None, 1, "n", "point", "kernel", 0.0, attrs)
            span.end = 0.0
            log.append(span)
        assert log[0].attrs is None and log[1].attrs == {} and log[1].attrs is not None


# ----------------------------------------------------------------------
# service level: the analyzers read rows and say what they said of objects
# ----------------------------------------------------------------------
class _Capture:
    """A sink that keeps the very ``Span`` objects the runtime finished."""

    def __init__(self) -> None:
        self.spans = []

    def emit(self, span: Span) -> None:
        self.spans.append(span)

    def close(self) -> None:
        pass


def _traced_pmp(**pmp):
    cluster = Cluster(ProtectedMemoryPaxos(PmpConfig(**pmp)), ClusterConfig(3, 3))
    runtime = attach(cluster.kernel, profile=False)
    capture = _Capture()
    runtime.add_sink(capture)
    assert cluster.run(["a", "b", "c"]).agreed
    assert len(capture.spans) == len(runtime.finished) and not runtime.dropped
    return cluster.kernel, runtime, capture.spans


class TestServicesReadRows:
    def test_captured_objects_equal_the_rows(self):
        _kernel, runtime, captured = _traced_pmp()
        assert all(s not in captured for s in runtime.spans)  # rebuilt, not kept
        assert [fields(s) for s in runtime.spans] == [fields(s) for s in captured]

    def test_run_hash_over_rows_equals_run_hash_over_objects(self):
        kernel, runtime, captured = _traced_pmp()
        from_rows = run_hash(kernel)
        kernel.obs = SimpleNamespace(
            finished=captured, dropped=0, open_spans=runtime.open_spans
        )
        try:
            assert run_hash(kernel) == from_rows
        finally:
            kernel.obs = runtime

    def test_critical_path_over_rows_equals_over_objects(self):
        kernel, runtime, captured = _traced_pmp(skip_first_attempt=False)
        pid = ProcessId(0)
        decided_at, trace_id = runtime.decide_points[(pid, None)]
        reference = critical_path_between(
            captured, 0, kernel.metrics.proposals[pid], decided_at, trace_id
        )
        path = critical_path(runtime, pid)
        assert path.summary() == reference.summary()
        assert path.memory_delays == reference.memory_delays > 0

    def test_diff_runs_over_rows_equals_diff_spans_over_objects(self):
        _k, fast, fast_spans = _traced_pmp()
        _k, slow, slow_spans = _traced_pmp(skip_first_attempt=False)
        reference = diff_spans(fast_spans, slow_spans)
        diff = diff_runs(fast, slow)
        assert diff.summary() == reference.summary()
        assert diff.matched and diff.only_b
        assert [(p.identity, p.delta) for p in diff.matched] == [
            (p.identity, p.delta) for p in reference.matched
        ]
        assert [fields(s) for s in diff.only_b] == [fields(s) for s in reference.only_b]


# ----------------------------------------------------------------------
# the structure, not the megabytes
# ----------------------------------------------------------------------
def _tracked_growth(n_ops: int, attached: bool):
    """GC-tracked objects a ``ShardedKV`` run of *n_ops* leaves behind."""
    service = ShardedKV(
        ShardConfig(n_shards=4, n_processes=3, n_memories=3, batch_max=8, seed=7)
    )
    runtime = attach(service.kernel, profile=False) if attached else None
    clients = [
        ClosedLoopClient(
            client_id=i, n_ops=n_ops // 16, keys=ZipfianKeys(256), mix=YCSB_A
        )
        for i in range(16)
    ]
    gc.collect()
    before = len(gc.get_objects())
    report = service.run_workload(clients, deadline=1e9)
    gc.collect()
    growth = len(gc.get_objects()) - before
    assert report.completed_requests == n_ops
    return growth, service, runtime


class TestFinishedSpansAreNotObjects:
    def test_finished_rows_allocate_no_tracked_object(self):
        def span(i: int) -> Span:
            attrs = {"src": 0, "dst": 1, "seq": 2**40 + i, "flow": f"{i}.1"}
            span = Span(i, i - 1, 1, "msg:t", "msg", "p1/leader", float(i), attrs)
            span.end = i + 1.0
            return span

        log = SpanLog(20_000)
        log.append(span(1))  # the first row of a shape may keep what it builds
        gc.disable()
        try:
            before = len(gc.get_objects())
            for i in range(2, 10_002):
                log.append(span(i))
            growth = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(log) == 10_001 and log[-1].attrs["seq"] == 2**40 + 10_001
        # a row that kept its own attrs tuple grew the heap by 10 000 here
        assert growth <= 16

    def test_attached_heap_grows_like_the_detached_one(self):
        small, large = 2_000, 20_000
        detached = _tracked_growth(large, False)[0] - _tracked_growth(small, False)[0]
        growth_small, _service, runtime_small = _tracked_growth(small, True)
        growth_large, _service, runtime_large = _tracked_growth(large, True)
        spans = len(runtime_large.finished) - len(runtime_small.finished)
        assert spans > 4 * (large - small) and not runtime_large.dropped
        # as objects the extra spans were one tracked Span + one attrs dict
        # each (+4 per operation at the parent); as rows they are none
        assert (growth_large - growth_small) - detached <= 500

    def test_one_label_string_per_task(self):
        _growth, service, runtime = _tracked_growth(2_000, True)
        # a rebuilt span carries the very string its row refers to, so the
        # distinct objects read back are the distinct objects stored
        actors = [span.actor for span in runtime.finished]
        assert len(actors) == len(runtime.finished) > 10_000
        assert len({id(label) for label in actors}) <= len(service.kernel.tasks)
        assert all(task.label is task.label for task in service.kernel.tasks)

    def test_a_detached_run_builds_no_label(self):
        _growth, service, _runtime = _tracked_growth(320, False)
        assert service.kernel.tasks
        assert all(task._label is None for task in service.kernel.tasks)
