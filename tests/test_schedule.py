"""The pluggable-scheduler contract: frontier, parity, watchdog.

The load-bearing property is *parity*: a run under ``FifoScheduler`` must
be bit-for-bit identical — trace hash, queue counters, final time — to a
run with no scheduler at all.  Everything the model checker does sits on
that equivalence: if index 0 of the frontier were not exactly what the
default loop fires next, "diverge at step N" would be meaningless.
"""

from __future__ import annotations

import pytest

from conftest import env_of, make_kernel
from repro.consensus.omega import crash_aware_omega
from repro.consensus.protected_memory_paxos import ProtectedMemoryPaxos
from repro.core.cluster import Cluster, ClusterConfig
from repro.errors import LivelockError
from repro.sim.event_queue import EV_RESUME, EV_WAKE, EventQueue
from repro.failures.script import FaultScript
from repro.obs.runtime import attach
from repro.sim import run_hash
from repro.sim.schedule import (
    FifoScheduler,
    RandomScheduler,
    Scheduler,
    build_frontier,
)

from test_determinism_replay import _run_mixed


# ---------------------------------------------------------------------------
# frontier construction
# ---------------------------------------------------------------------------
class TestFrontier:
    def test_ready_lane_precedes_same_instant_heap_entries(self):
        queue = EventQueue()
        queue.push(5.0, EV_WAKE, "heap-a")
        queue.push(5.0, EV_WAKE, "heap-b")
        queue.push(9.0, EV_WAKE, "later")
        queue.push_ready(EV_RESUME, "ready-a")
        frontier = build_frontier(queue, 5.0)
        assert [fe.lane for fe in frontier] == ["ready", "heap", "heap"]
        assert [fe.a for fe in frontier] == ["ready-a", "heap-a", "heap-b"]
        # seq order within the heap slice, and "later" excluded
        assert frontier[1].seq < frontier[2].seq

    def test_seqs_are_shared_across_lanes_and_stable(self):
        queue = EventQueue()
        queue.push(1.0, EV_WAKE, "h")
        queue.push_ready(EV_RESUME, "r")
        frontier = build_frontier(queue, 1.0)
        seqs = {fe.a: fe.seq for fe in frontier}
        assert seqs["h"] == 1 and seqs["r"] == 2

    def test_take_ready_and_remove_heap_entry(self):
        queue = EventQueue()
        queue.push(2.0, EV_WAKE, "x")
        queue.push(2.0, EV_WAKE, "y")
        queue.push_ready(EV_RESUME, "r1")
        queue.push_ready(EV_RESUME, "r2")
        frontier = build_frontier(queue, 2.0)
        taken = queue.take_ready(1)
        assert taken[1] == "r2" and queue.ready_count == 1
        queue.remove_heap_entry(frontier[3].raw)  # "y"
        assert [e[3] for e in queue.heap_frontier(2.0)] == ["x"]

    def test_pop_ready_contract_unchanged(self):
        # the default hot loop (and its tests) still see 4-tuples
        queue = EventQueue()
        queue.push_ready(EV_RESUME, "task", "value")
        assert queue.pop_ready() == (EV_RESUME, "task", "value", None)


# ---------------------------------------------------------------------------
# parity: FifoScheduler == default loop, bit for bit
# ---------------------------------------------------------------------------
def _chaos_hash(seed: int, scheduled: bool) -> str:
    """A churny PMP run's full observable fingerprint."""
    script = FaultScript()
    script.at(1.0).crash_process(0).recover(at=30.0)
    script.at(2.0).partition({0, 1}, {2}).heal(at=25.0)
    cluster = Cluster(
        ProtectedMemoryPaxos(),
        ClusterConfig(3, 3, seed=seed, deadline=60_000),
        script,
    )
    kernel = cluster.kernel
    attach(kernel, profile=False)
    kernel.omega = crash_aware_omega(kernel)
    if scheduled:
        kernel.scheduler = FifoScheduler()
    result = cluster.run(["a", "b", "c"])
    assert result.all_decided
    return run_hash(kernel)


class TestFifoParity:
    def test_chaos_cluster_trace_is_bit_identical(self):
        assert _chaos_hash(7, scheduled=False) == _chaos_hash(7, scheduled=True)

    def test_mixed_sharded_workload_is_bit_identical(self):
        # the determinism-replay suite's heavy workload: a 4-shard KV, a
        # memory crash, and 12 clients
        service, report = _run_mixed(23)
        assert report.ok
        default = run_hash(service.kernel)
        service, report = _run_mixed(23, scheduler=FifoScheduler())
        assert report.ok
        assert run_hash(service.kernel) == default

    def test_scheduler_attribute_defaults_to_none(self):
        kernel = make_kernel()
        assert kernel.scheduler is None


# ---------------------------------------------------------------------------
# custom scheduler behaviour
# ---------------------------------------------------------------------------
class TestCustomSchedulers:
    def test_random_scheduler_is_reproducible(self):
        assert _chaos_random_hash(3) == _chaos_random_hash(3)

    def test_scheduler_sees_every_step(self):
        class Counting(Scheduler):
            def __init__(self):
                self.picks = 0

            def pick(self, kernel, now, frontier):
                self.picks += 1
                assert frontier, "frontier must never be empty"
                return 0

        kernel = make_kernel(n_processes=1)
        counting = Counting()
        kernel.scheduler = counting

        def task(env):
            yield env.sleep(1.0)
            yield env.sleep(1.0)

        kernel.spawn(0, "t", task(env_of(kernel, 0)))
        kernel.run()
        assert counting.picks == kernel.queue.popped == 3


def _chaos_random_hash(seed: int) -> str:
    cluster = Cluster(
        ProtectedMemoryPaxos(),
        ClusterConfig(3, 3, seed=1, deadline=60_000),
    )
    attach(cluster.kernel, profile=False)
    cluster.kernel.scheduler = RandomScheduler(seed)
    result = cluster.run(["a", "b", "c"])
    assert result.all_decided
    return run_hash(cluster.kernel)


# ---------------------------------------------------------------------------
# livelock watchdog (satellite: max_events diagnostic budget)
# ---------------------------------------------------------------------------
class TestLivelockWatchdog:
    def _spinner(self, kernel):
        def spin(env):
            while True:
                yield env.sleep(1.0)

        kernel.spawn(0, "spinner", spin(env_of(kernel, 0)), daemon=True)

    def test_default_loop_raises_diagnostic(self):
        kernel = make_kernel(n_processes=1)
        self._spinner(kernel)
        with pytest.raises(LivelockError) as err:
            kernel.run(max_events=25)
        message = str(err.value)
        assert "max_events=25" in message
        assert "wake" in message  # per-kind queue-depth snapshot
        assert "parked" in message

    def test_scheduled_loop_raises_too(self):
        kernel = make_kernel(n_processes=1)
        kernel.scheduler = FifoScheduler()
        self._spinner(kernel)
        with pytest.raises(LivelockError):
            kernel.run(max_events=25)

    def test_flight_dump_attached_when_obs_present(self):
        from repro.obs.runtime import attach

        kernel = make_kernel(n_processes=1)
        attach(kernel)
        self._spinner(kernel)
        with pytest.raises(LivelockError) as err:
            kernel.run(max_events=25)
        dump = err.value.flight_dump
        assert dump is not None and "livelock" in dump["reason"]

    def test_budget_not_hit_is_silent(self):
        kernel = make_kernel(n_processes=1)

        def task(env):
            yield env.sleep(1.0)

        kernel.spawn(0, "t", task(env_of(kernel, 0)))
        kernel.run(max_events=100)
        assert kernel.now == 1.0
