"""Kernel memory-operation semantics: delays, quorum fan-outs, crash-hang,
the one-outstanding observer."""

import pytest

from repro.check.outstanding import watch_outstanding
from repro.errors import OutstandingOpError
from repro.mem.operations import ReadOp, WriteOp
from repro.types import BOTTOM, MemoryId, ProcessId, is_bottom

from tests.conftest import env_of, run_single


class TestDelayAccounting:
    def test_memory_op_takes_two_delays(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            result = yield from env.write(0, "r", ("x", "a"), 1)
            assert result.ok
            return env.now

        task = run_single(kernel, 0, gen())
        assert task.result == 2.0

    def test_sequential_ops_accumulate(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            yield from env.write(0, "r", ("x", "a"), 1)
            yield from env.read(0, "r", ("x", "a"))
            return env.now

        task = run_single(kernel, 0, gen())
        assert task.result == 4.0


class TestOpResults:
    def test_write_then_read_roundtrip(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            yield from env.write(1, "r", ("x", "key"), {"deep": [1, 2]})
            result = yield from env.read(1, "r", ("x", "key"))
            return result.value

        task = run_single(kernel, 0, gen())
        assert task.result == {"deep": [1, 2]}

    def test_read_unwritten_returns_bottom(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            result = yield from env.read(0, "r", ("x", "nothing"))
            return result.value

        task = run_single(kernel, 0, gen())
        assert is_bottom(task.result)

class TestCrashedMemory:
    def test_op_on_crashed_memory_hangs_until_the_timeout(self, kernel):
        kernel.crash_memory(MemoryId(0))
        env = env_of(kernel, 0)

        def gen():
            state = yield env.op_fanout(
                [(0, ReadOp("r", ("x", "k")))], need=1, timeout=5.0
            )
            return (state.satisfied, state.done, env.now)

        task = run_single(kernel, 0, gen())
        assert task.result == (False, 0, 5.0)

    def test_crash_after_response_in_flight_still_delivers(self, kernel):
        # The response left the memory before the crash: it arrives.
        env = env_of(kernel, 0)

        def gen():
            state = yield env.op_fanout(
                [(0, WriteOp("r", ("x", "k"), 1))], need=1, timeout=20.0
            )
            return state.acked

        kernel.call_at(1.5, lambda: kernel.crash_memory(MemoryId(0)))
        task = run_single(kernel, 0, gen())
        assert task.result == 1


class TestOutstandingRule:
    """The one-outstanding-op rule lives in a checker-side observer on the
    obs hooks; a kernel without it is permissive and pays nothing."""

    @staticmethod
    def _two_reads_one_memory(env):
        state = yield env.op_fanout(
            [(0, ReadOp("r", ("x", "a"))), (0, ReadOp("r", ("x", "b")))], need=2
        )
        return state.acked

    def test_observer_rejects_second_op_same_memory(self, kernel):
        watch_outstanding(kernel)
        kernel.spawn(0, "g", self._two_reads_one_memory(env_of(kernel, 0)))
        with pytest.raises(OutstandingOpError):
            kernel.run(until=10)

    def test_observer_allows_sequential_reuse_and_quorum_stragglers(self, kernel):
        # The leg a majority verdict left behind (memory 2, crashed) is
        # the pfor branch the algorithm stopped waiting for: the next
        # step may post to that memory again.
        watch_outstanding(kernel)
        kernel.crash_memory(MemoryId(2))
        env = env_of(kernel, 0)

        def gen():
            yield from env.write(0, "r", ("x", "a"), 1)
            yield from env.write(0, "r", ("x", "a"), 2)
            for value in (3, 4):
                yield env.fanout_to_all(WriteOp("r", ("x", "a"), value))
            return True

        assert run_single(kernel, 0, gen()).result is True

    def test_default_mode_is_permissive(self, kernel):
        task = run_single(kernel, 0, self._two_reads_one_memory(env_of(kernel, 0)))
        assert task.result == 2


class TestGates:
    def test_gate_wait_and_signal(self, kernel):
        env = env_of(kernel, 0)
        gate = env.new_gate("g")
        order = []

        def waiter():
            yield env.gate_wait(gate)
            order.append(("woke", env.now))

        def signaller():
            yield env.sleep(3.0)
            env.signal(gate)
            order.append(("signalled", env.now))

        kernel.spawn(0, "w", waiter())
        kernel.spawn(0, "s", signaller())
        kernel.run(until=100)
        assert ("signalled", 3.0) in order
        assert ("woke", 3.0) in order

    def test_gate_wait_timeout(self, kernel):
        env = env_of(kernel, 0)
        gate = env.new_gate("never")

        def waiter():
            arrived = yield env.gate_wait(gate, timeout=4.0)
            return (arrived, env.now)

        task = run_single(kernel, 0, waiter())
        assert task.result == (False, 4.0)

    def test_set_gate_admits_immediately(self, kernel):
        env = env_of(kernel, 0)
        gate = env.new_gate("pre-set")
        gate.set()

        def waiter():
            arrived = yield env.gate_wait(gate, timeout=100.0)
            return (arrived, env.now)

        task = run_single(kernel, 0, waiter())
        assert task.result == (True, 0.0)
