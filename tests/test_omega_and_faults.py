"""Ω oracles and the static corner of fault scripts (crash-at-time, Byzantine seats)."""

import pytest

from repro.consensus.omega import crash_aware_omega, leader_schedule, stable_leader
from repro.errors import ConfigurationError
from repro.failures.script import FaultScript
from repro.types import MemoryId, ProcessId

from tests.conftest import make_kernel


class TestOmega:
    def test_stable_leader(self):
        omega = stable_leader(2)
        assert omega(0.0) == 2
        assert omega(1e9) == 2

    def test_leader_schedule(self):
        omega = leader_schedule([(0.0, 0), (10.0, 1), (20.0, 2)])
        assert omega(0.0) == 0
        assert omega(9.9) == 0
        assert omega(10.0) == 1
        assert omega(25.0) == 2

    def test_leader_schedule_unsorted_input(self):
        omega = leader_schedule([(10.0, 1), (0.0, 0)])
        assert omega(5.0) == 0
        assert omega(15.0) == 1

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            leader_schedule([])

    def test_crash_aware_tracks_crashes(self):
        kernel = make_kernel()
        omega = crash_aware_omega(kernel)
        assert omega(0.0) == 0
        kernel.crash_process(ProcessId(0))
        assert omega(1.0) == 1
        kernel.crash_process(ProcessId(1))
        assert omega(2.0) == 2

    def test_crash_aware_preference_order(self):
        kernel = make_kernel()
        omega = crash_aware_omega(kernel, preference=[2, 1, 0])
        assert omega(0.0) == 2
        kernel.crash_process(ProcessId(2))
        assert omega(1.0) == 1


class TestStaticFaults:
    def test_builder_chaining(self):
        plan = FaultScript().at(5.0).crash_process(0).at(2.0).crash_memory(1)
        assert [(time, type(event).__name__) for time, event in plan.events] == [
            (5.0, "CrashProcess"),
            (2.0, "CrashMemory"),
        ]

    def test_faulty_processes_union(self):
        plan = FaultScript().at(0.0).crash_process(0).make_byzantine(2, object())
        assert plan.faulty_processes == {0, 2}

    def test_validate_unknown_process(self):
        plan = FaultScript().at(0.0).crash_process(9)
        with pytest.raises(ConfigurationError):
            plan.validate(3, 3)

    def test_validate_unknown_memory(self):
        plan = FaultScript().at(0.0).crash_memory(7)
        with pytest.raises(ConfigurationError):
            plan.validate(3, 3)

    def test_validate_crash_and_byzantine_conflict(self):
        plan = FaultScript().at(0.0).crash_process(1).make_byzantine(1, object())
        with pytest.raises(ConfigurationError):
            plan.validate(3, 3)

    def test_install_schedules_crashes(self):
        kernel = make_kernel()
        plan = FaultScript().at(5.0).crash_process(1).at(3.0).crash_memory(0)
        plan.install(kernel)
        kernel.run(until=10)
        assert ProcessId(1) in kernel.crashed_processes
        assert kernel.memories[0].crashed

    def test_install_marks_byzantine(self):
        kernel = make_kernel()
        plan = FaultScript().make_byzantine(2, object())
        plan.install(kernel)
        assert ProcessId(2) in kernel.byzantine_processes
        assert ProcessId(2) in kernel.metrics.byzantine

    def test_crash_times_are_honored(self):
        kernel = make_kernel()
        plan = FaultScript().at(7.0).crash_process(0)
        plan.install(kernel)
        kernel.run(until=6.9)
        assert ProcessId(0) not in kernel.crashed_processes
        kernel.run(until=7.1)
        assert ProcessId(0) in kernel.crashed_processes
