"""Unit tests for FanoutState and Gate plumbing."""

from repro.sim.futures import FanoutState
from repro.types import OpResult, OpStatus

from tests.conftest import env_of, run_single


class TestFanoutState:
    def test_acked_values_skip_naks_and_outstanding_legs(self):
        state = FanoutState(3, need=2, count_acks=False, spare_naks=0, token=1)
        state.results[0] = OpResult(OpStatus.ACK, 5)
        state.results[2] = OpResult(OpStatus.NAK)
        assert state.acked_values() == [5]


class TestGate:
    """Latch versus pulse, through the kernel's ``gate_wait`` parks."""

    def test_set_wakes_current_waiters(self, kernel):
        env = env_of(kernel, 0)
        gate = env.new_gate("g")
        woke = []

        def waiter():
            arrived = yield env.gate_wait(gate)
            woke.append((arrived, env.now))

        def signaller():
            yield env.sleep(2.0)
            env.signal(gate)

        kernel.spawn(0, "w", waiter())
        kernel.spawn(0, "s", signaller())
        kernel.run(until=100)
        assert woke == [(True, 2.0)]
        assert gate.is_set

    def test_waiter_after_set_fires_immediately(self, kernel):
        env = env_of(kernel, 0)
        gate = env.new_gate("g")
        env.signal(gate)

        def waiter():
            arrived = yield env.gate_wait(gate, timeout=50.0)
            return (arrived, env.now)

        assert run_single(kernel, 0, waiter()).result == (True, 0.0)

    def test_clear_blocks_new_waiters(self, kernel):
        env = env_of(kernel, 0)
        gate = env.new_gate("g")
        env.signal(gate)
        gate.clear()

        def waiter():
            arrived = yield env.gate_wait(gate, timeout=5.0)
            return (arrived, env.now)

        assert run_single(kernel, 0, waiter()).result == (False, 5.0)

    def test_pulse_wakes_parked_waiters_and_leaves_the_gate_closed(self, kernel):
        env = env_of(kernel, 0)
        gate = env.new_gate("g")
        seen = []

        def waiter(name, start):
            yield env.sleep(start)
            arrived = yield env.gate_wait(gate, timeout=10.0)
            seen.append((name, arrived, env.now))

        def pulser():
            yield env.sleep(3.0)
            env.pulse(gate)

        kernel.spawn(0, "early", waiter("early", 1.0))
        kernel.spawn(0, "late", waiter("late", 5.0))
        kernel.spawn(0, "pulse", pulser())
        kernel.run(until=100)
        assert seen == [("early", True, 3.0), ("late", False, 15.0)]
        assert not gate.is_set
