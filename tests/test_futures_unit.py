"""Unit tests for FanoutState and Gate plumbing."""

from repro.sim.futures import FanoutState, Gate
from repro.types import OpResult, OpStatus


class TestFanoutState:
    def test_acked_values_skip_naks_and_outstanding_legs(self):
        state = FanoutState(3, need=2, count_acks=False, spare_naks=0, token=1)
        state.results[0] = OpResult(OpStatus.ACK, 5)
        state.results[2] = OpResult(OpStatus.NAK)
        assert state.acked_values() == [5]


class TestGate:
    def test_set_wakes_current_waiters(self):
        gate = Gate("g")
        fired = []
        gate.add_waiter(lambda: fired.append(1))
        for w in gate.set():
            w()
        assert fired == [1]
        assert gate.is_set

    def test_waiter_after_set_fires_immediately(self):
        gate = Gate("g")
        gate.set()
        fired = []
        gate.add_waiter(lambda: fired.append(1))
        assert fired == [1]

    def test_clear_blocks_new_waiters(self):
        gate = Gate("g")
        gate.set()
        gate.clear()
        fired = []
        gate.add_waiter(lambda: fired.append(1))
        assert fired == []

    def test_remove_waiter(self):
        gate = Gate("g")
        cb = lambda: None
        gate.add_waiter(cb)
        gate.remove_waiter(cb)
        assert gate.set() == []

    def test_remove_unknown_waiter_harmless(self):
        Gate("g").remove_waiter(lambda: None)
