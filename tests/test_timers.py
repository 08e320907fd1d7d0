"""Timers: a waiting task keeps one armed timer entry in the heap.

Every timed wait (sleep, gate wait, recv and a parked fan-out) is armed
through ``Kernel._arm``.  A deadline strictly after the task's armed entry
is recorded on the task and pushed only when that entry pops, if its wait
is still pending.  These tests pin the saving (a retry timer whose reply
came first costs no event), the equivalence with pushing every timer (the
same resumes at the same instants, the same run hash but for the queue
totals and a drained run's final clock, the same live explorer
frontiers), the crash path, the explorer's default pick, and the typed
rejection of a bad duration at park time.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import env_of, make_kernel
from repro.check.scheduler import ControlledScheduler
from repro.errors import ReproError, SimulationError
from repro.mem.operations import ReadOp
from repro.sim import run_hash
from repro.sim.event_queue import EV_RECV_TIMEOUT, EV_WAKE
from repro.sim.kernel import Kernel
from repro.sim.schedule import Scheduler
from repro.types import MemoryId


def _masked_hash(kernel: Kernel, now: float) -> str:
    """``run_hash`` with the queue's ``pushed`` / ``popped`` totals masked
    and the final clock read as *now*.  A run whose last event is a
    superseded timer ends at that timer's deadline when every timer is
    pushed, and at its last live event when it is not; every other part
    of the run must match."""
    queue = kernel.queue
    saved = queue.pushed, queue.popped, kernel.now
    queue.pushed = queue.popped = 0
    kernel.now = now
    try:
        return run_hash(kernel)
    finally:
        queue.pushed, queue.popped, kernel.now = saved


def _push_every_timer(self, task, delay, kind, token, value):
    # The reference: one heap entry per timed wait, live or not.
    self.queue.push(self.now + delay, kind, task, token, value)


# ---------------------------------------------------------------------------
# (a) a waiter answered before its timeout costs no timer event
# ---------------------------------------------------------------------------
class TestOneArmedTimer:
    N = 1_000

    def _answered_gate_waits(self, push_every: bool):
        """A waiter gate-waits N times with ``timeout=200``, each answered
        one delay later.  Returns the waiter's timer pops and the most
        entries of its own the heap held at any wait or answer."""
        kernel = make_kernel(n_processes=1, n_memories=0)
        if push_every:
            kernel._arm = _push_every_timer.__get__(kernel)
        env = env_of(kernel, 0)
        gate = env.new_gate("answer")
        heap = kernel.queue._heap
        most = [0]

        def own_entries():
            mine = sum(1 for entry in heap if entry[3] is waiter_task)
            most[0] = max(most[0], mine)

        def waiter():
            for _ in range(self.N):
                own_entries()
                assert (yield env.gate_wait(gate, timeout=200)) is True

        def answerer():
            for _ in range(self.N):
                yield env.sleep(1)
                own_entries()
                env.pulse(gate)

        waiter_task = kernel.spawn(0, "waiter", waiter())
        kernel.spawn(0, "answerer", answerer())
        kernel.run()
        assert waiter_task.done and not heap
        # Besides the waiter's timers, the run pops two spawn resumes,
        # N answerer sleeps and N ready-lane resumes of the waiter.
        return kernel.queue.popped - (2 + 2 * self.N), most[0]

    def test_answered_gate_waits_keep_one_entry_and_pop_few_timers(self):
        timer_pops, most = self._answered_gate_waits(push_every=False)
        assert most == 1
        assert 0 < timer_pops <= 10
        # pushing every timer: one entry per wait, all of them popped, and
        # a timeout's worth of them in the heap at once
        timer_pops, most = self._answered_gate_waits(push_every=True)
        assert timer_pops == self.N and most > 100

    def test_a_long_timer_carries_the_next_ones_past_short_sleeps(self):
        # request / think loop: each request's 200-delay timer is answered
        # after 1, then the client sleeps 10 — the sleep is pushed beside
        # the armed request timer, and the next request's timer is
        # deferred behind it instead of pushed
        kernel = make_kernel(n_processes=1, n_memories=0)
        env = env_of(kernel, 0)
        gate = env.new_gate("reply")

        def client():
            for _ in range(100):
                assert (yield env.gate_wait(gate, timeout=200)) is True
                yield env.sleep(10)

        def server():
            for _ in range(100):
                yield env.sleep(1)
                env.pulse(gate)
                yield env.sleep(10)

        kernel.spawn(0, "client", client())
        kernel.spawn(0, "server", server())
        kernel.run()
        # two spawn resumes, 200 server sleeps, 100 client sleeps and 100
        # ready-lane resumes of the client: the rest are request timers
        request_timer_pops = kernel.queue.popped - (2 + 200 + 100 + 100)
        assert 0 < request_timer_pops <= 10

    def test_shorter_deadline_after_a_longer_one_fires_on_time(self):
        kernel = make_kernel(n_processes=1, n_memories=0)
        env = env_of(kernel, 0)
        gate = env.new_gate("g")
        seen = []

        def waiter():
            # armed at t=10 and answered at t=1; the next wait's deadline,
            # t=3, is earlier, so it is pushed beside it and times out on
            # time; the sleep's, t=11, is deferred behind the dead t=10
            for wait in (env.gate_wait(gate, timeout=10), env.gate_wait(gate, timeout=2),
                         env.sleep(8)):
                value = yield wait
                seen.append((kernel.now, value))

        def answerer():
            yield env.sleep(1)
            env.pulse(gate)

        kernel.spawn(0, "waiter", waiter())
        kernel.spawn(0, "answerer", answerer())
        kernel.run()
        assert seen == [(1.0, True), (3.0, False), (11.0, None)]


# ---------------------------------------------------------------------------
# (b) differential: the same resumes and run as pushing every timer
# ---------------------------------------------------------------------------
_DURATIONS = st.sampled_from([0, 0.5, 1, 1, 2, 2, 3, 5, 8])
_STEP = st.one_of(
    st.tuples(st.just("sleep"), _DURATIONS),
    st.tuples(st.just("gate"), st.none() | _DURATIONS),
    st.tuples(st.just("recv"), st.none() | _DURATIONS),
)
_PROGRAMS = st.lists(st.lists(_STEP, min_size=1, max_size=8), min_size=1, max_size=4)
_STIMULI = st.lists(
    st.tuples(
        st.sampled_from(["signal", "pulse", "send"]),
        st.sampled_from([0, 0.5, 1, 1, 2, 3]),
        st.integers(0, 3),
    ),
    max_size=12,
)


class _LiveFrontiers(Scheduler):
    """Fire ``frontier[0]`` like the default loop, and record each step
    that fires a live entry: the instant, the entry, and every live entry
    the explorer could have fired instead.  A timer entry is dead once its
    task's wait ended (its token is no longer pending)."""

    def __init__(self) -> None:
        self.steps = []

    def pick(self, kernel, now, frontier):
        live = [
            entry.seq for entry in frontier
            if entry.kind not in (EV_WAKE, EV_RECV_TIMEOUT)
            or entry.a.pending_token == entry.b
        ]
        if live and live[0] == frontier[0].seq:
            self.steps.append((now, live[0], tuple(live)))
        return 0


def _timer_run(programs, stimuli, push_every: bool, scheduler=None):
    """Waiter tasks on p1 run *programs*, and a driver task signals or
    pulses their gates and messages their topics after the delays in
    *stimuli*.  Returns the ``(now, task, resume value)`` log and the
    kernel."""
    kernel = make_kernel(n_processes=1, n_memories=0)
    kernel.scheduler = scheduler
    if push_every:
        kernel._arm = _push_every_timer.__get__(kernel)
    env = env_of(kernel, 0)
    gates = [env.new_gate(f"g{i}") for i in range(len(programs))]
    log = []

    def waiter(index, program):
        name = f"w{index}"
        for op, duration in program:
            if op == "sleep":
                value = yield env.sleep(duration)
            elif op == "gate":
                value = yield env.gate_wait(gates[index], timeout=duration)
                gates[index].clear()
            else:
                envelope = yield from env.recv(topic=name, timeout=duration)
                value = None if envelope is None else envelope.payload
            log.append((kernel.now, name, value))

    def driver():
        for number, (action, delay, target) in enumerate(stimuli):
            yield env.sleep(delay)
            index = target % len(programs)
            if action == "signal":
                env.signal(gates[index])
            elif action == "pulse":
                env.pulse(gates[index])
            else:
                yield env.send(0, f"m{number}", topic=f"w{index}")

    for index, program in enumerate(programs):
        kernel.spawn(0, f"w{index}", waiter(index, program))
    kernel.spawn(0, "driver", driver())
    kernel.run(until=200.0)
    return log, kernel


def _equivalent(programs, stimuli):
    """Run the scenario both ways and assert the one-armed-timer run is
    the push-every-timer run minus superseded timer pops."""
    log, kernel = _timer_run(programs, stimuli, push_every=False)
    ref_log, ref_kernel = _timer_run(programs, stimuli, push_every=True)
    assert log == ref_log
    assert _masked_hash(kernel, 0.0) == _masked_hash(ref_kernel, 0.0)
    assert kernel.now <= ref_kernel.now
    assert kernel.queue.popped <= ref_kernel.queue.popped
    # Under the explorer's loop: the same resumes, and at every step the
    # same live entries to choose from — a deferred timer is in the heap
    # before the clock reaches its instant.
    frontiers, ref_frontiers = _LiveFrontiers(), _LiveFrontiers()
    assert _timer_run(programs, stimuli, False, frontiers)[0] == log
    assert _timer_run(programs, stimuli, True, ref_frontiers)[0] == log
    assert frontiers.steps == ref_frontiers.steps
    return log, kernel, ref_kernel


class TestEquivalence:
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(programs=_PROGRAMS, stimuli=_STIMULI)
    def test_same_resumes_and_hash_as_pushing_every_timer(self, programs, stimuli):
        _equivalent(programs, stimuli)

    def test_equal_deadlines_keep_their_order(self):
        # w1's sleep ends at the instant of its armed gate timer, behind
        # w0's earlier-queued sleep: it is pushed, not deferred, so it is
        # in the frontier when w0's sleep fires, and fires after it
        log, _, _ = _equivalent(
            [[("sleep", 2)], [("gate", 2), ("sleep", 1)]], [("pulse", 1, 1)]
        )
        assert log == [(1.0, "w1", True), (2.0, "w0", None), (2.0, "w1", None)]

    def test_a_drained_run_ends_at_its_last_live_event(self):
        # the second wait's timer (t=6) is superseded before its armed
        # entry (t=2) pops, so it is never pushed and never moves the clock
        log, kernel, ref_kernel = _equivalent(
            [[("gate", 2), ("gate", 5)]], [("pulse", 1, 0), ("pulse", 0.5, 0)]
        )
        assert log == [(1.0, "w0", True), (1.5, "w0", True)]
        assert (kernel.now, ref_kernel.now) == (2.0, 6.0)
        assert kernel.queue.popped == ref_kernel.queue.popped - 1


# ---------------------------------------------------------------------------
# (c) a crash kills a task that holds a deferred recv timeout
# ---------------------------------------------------------------------------
class TestDeferredRecvTimeoutOfADeadTask:
    def _park_deferred_recv(self, kernel):
        env, remote = env_of(kernel, 0), env_of(kernel, 1)
        resumed = []

        def receiver():
            first = yield from env.recv(topic="x", timeout=10)
            resumed.append((kernel.now, first.payload))
            # armed entry at t=10; this deadline, t=11, is deferred
            second = yield from env.recv(topic="y", timeout=10)
            resumed.append((kernel.now, second))

        def sender():
            yield remote.send(0, "hello", topic="x")

        task = kernel.spawn(0, "receiver", receiver())
        kernel.spawn(1, "sender", sender())
        kernel.run(until=2.0)
        assert resumed == [(1.0, "hello")]
        assert task.deferred is not None and task.timer_at == 10.0
        assert kernel.network.waiters[0]
        return task, resumed

    def test_crash_leaves_no_waiter(self):
        kernel = make_kernel(n_processes=2, n_memories=0)
        task, resumed = self._park_deferred_recv(kernel)
        kernel.crash_process(0)
        assert task.done and not kernel.network.waiters[0]
        kernel.run()
        assert resumed == [(1.0, "hello")]
        assert not kernel.network.waiters[0] and not kernel.queue

    def test_killed_task_waiter_leaves_at_its_deadline(self):
        # kill_task (a deposed leader) keeps the network waiter until its
        # recv timeout pops, as when every timer was pushed: the deferred
        # record is pushed for a dead task too
        kernel = make_kernel(n_processes=2, n_memories=0)
        task, resumed = self._park_deferred_recv(kernel)
        kernel.kill_task(task)
        kernel.run(until=10.5)
        assert kernel.network.waiters[0]
        kernel.run()
        assert resumed == [(1.0, "hello")]
        assert not kernel.network.waiters[0] and kernel.now == 11.0


# ---------------------------------------------------------------------------
# (d) the explorer's default pick is the default loop
# ---------------------------------------------------------------------------
class TestControlledSchedulerParity:
    def test_frontier_zero_reproduces_the_default_run(self):
        programs = [
            [("gate", 5), ("recv", 5), ("gate", 3), ("sleep", 2)],
            [("recv", 8), ("recv", 1), ("gate", None)],
            [("sleep", 1), ("gate", 4), ("recv", 4)],
        ]
        stimuli = [("pulse", 1, 0), ("send", 0, 1), ("send", 1, 0), ("pulse", 2, 2),
                   ("signal", 3, 1), ("send", 1, 2)]
        default_log, default_kernel = _timer_run(programs, stimuli, push_every=False)
        assert default_kernel.queue.popped < _timer_run(
            programs, stimuli, push_every=True
        )[1].queue.popped, "the run must defer at least one timer"

        original = Kernel.run

        def scheduled_run(self, *args, **kwargs):
            self.scheduler = ControlledScheduler()
            return original(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Kernel, "run", scheduled_run)
            log, kernel = _timer_run(programs, stimuli, push_every=False)
        assert log == default_log
        assert run_hash(kernel) == run_hash(default_kernel)
        assert kernel.scheduler.step == kernel.queue.popped


# ---------------------------------------------------------------------------
# bad durations fail at park time, typed
# ---------------------------------------------------------------------------
class TestBadDurations:
    def _fails(self, body, match):
        kernel = make_kernel(n_processes=1, n_memories=1)
        env = env_of(kernel, 0)
        kernel.spawn(0, "bad", body(env))
        with pytest.raises(SimulationError, match=match) as info:
            kernel.run()
        assert isinstance(info.value, ReproError)
        assert "p1/bad" in str(info.value)

    def test_negative_sleep_after_time_moved(self):
        def body(env):
            yield env.sleep(5)
            yield env.sleep(-1)

        self._fails(body, r"timeout -1 at t=5")

    def test_nan_gate_wait(self):
        def body(env):
            yield env.gate_wait(env.new_gate(), timeout=math.nan)

        self._fails(body, r"timeout nan")

    def test_negative_recv_timeout(self):
        def body(env):
            yield from env.recv(topic="t", timeout=-0.5)

        self._fails(body, r"timeout -0.5")

    def test_negative_fanout_timeout(self):
        def body(env):
            yield env.op_fanout([(MemoryId(0), ReadOp("r", ("x", 0)))], 1, timeout=-2)

        self._fails(body, r"timeout -2")

    def test_zero_stays_legal(self):
        kernel = make_kernel(n_processes=1, n_memories=0)
        env = env_of(kernel, 0)
        seen = []

        def body():
            yield env.sleep(3)
            seen.append((yield env.sleep(0)))
            seen.append((yield env.gate_wait(env.new_gate(), timeout=0)))
            seen.append((yield from env.recv(topic="t", timeout=0)))
            seen.append(kernel.now)

        kernel.spawn(0, "zero", body())
        kernel.run()
        assert seen == [None, False, None, 3.0]
