"""Property-based safety tests: agreement + validity across random
schedules, fault mixes and seeds, for every protocol.

These are the tests the paper's theorems correspond to: safety must hold in
*all* executions (hypothesis explores schedules), while termination is only
asserted under the synchronous/crash-free configurations.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    AlignedConfig,
    AlignedPaxos,
    DiskPaxos,
    FastPaxos,
    FaultScript,
    JitteredSynchrony,
    MessagePaxos,
    ProtectedMemoryPaxos,
    run_consensus,
)

_PROPERTY_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _check_safety(result, inputs):
    """Agreement + weak validity; termination not required here."""
    assert not result.metrics.violations
    values = result.decided_values
    assert len(values) <= 1
    assert all(v in inputs for v in values)


class TestCrashProtocolSafety:
    @_PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10_000), jitter=st.floats(0.0, 0.9))
    def test_message_paxos_safe_under_random_jitter(self, seed, jitter):
        inputs = ["a", "b", "c"]
        result = run_consensus(
            MessagePaxos(), 3, 0, inputs=inputs,
            latency=JitteredSynchrony(jitter), seed=seed, deadline=4000,
        )
        _check_safety(result, inputs)

    @_PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10_000), jitter=st.floats(0.0, 0.9))
    def test_pmp_safe_under_random_jitter(self, seed, jitter):
        inputs = ["a", "b", "c"]
        result = run_consensus(
            ProtectedMemoryPaxos(), 3, 3, inputs=inputs,
            latency=JitteredSynchrony(jitter), seed=seed, deadline=4000,
        )
        _check_safety(result, inputs)

    @_PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_disk_paxos_safe_and_never_faster_than_4(self, seed):
        inputs = ["a", "b", "c"]
        result = run_consensus(
            DiskPaxos(), 3, 3, inputs=inputs,
            latency=JitteredSynchrony(0.4), seed=seed, deadline=4000,
        )
        _check_safety(result, inputs)
        delay = result.earliest_decision_delay
        if delay is not None:
            assert delay >= 4.0

    @_PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        crashed=st.sets(st.integers(0, 2), max_size=2),
    )
    def test_fast_paxos_safe_under_crashes(self, seed, crashed):
        inputs = ["a", "b", "c"]
        faults = FaultScript()
        for pid in crashed:
            faults.at(float(seed % 7) / 2).crash_process(pid)
        result = run_consensus(
            FastPaxos(), 3, 0, inputs=inputs, faults=faults, seed=seed,
            omega="crash-aware", deadline=4000,
        )
        _check_safety(result, inputs)


class TestPmpCrashMatrix:
    @_PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        crash_time=st.floats(0.0, 10.0),
        n=st.integers(2, 4),
    )
    def test_any_single_crash_any_time(self, seed, crash_time, n):
        inputs = [f"v{p}" for p in range(n)]
        faults = FaultScript().at(crash_time).crash_process(seed % n)
        result = run_consensus(
            ProtectedMemoryPaxos(), n, 3, inputs=inputs, faults=faults,
            seed=seed, omega="crash-aware", deadline=4000,
        )
        _check_safety(result, inputs)

    @_PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        mem_crash=st.integers(0, 2),
        crash_time=st.floats(0.0, 6.0),
    )
    def test_any_single_memory_crash(self, seed, mem_crash, crash_time):
        inputs = ["a", "b", "c"]
        faults = FaultScript().at(crash_time).crash_memory(mem_crash)
        result = run_consensus(
            ProtectedMemoryPaxos(), 3, 3, inputs=inputs, faults=faults,
            seed=seed, deadline=4000,
        )
        _check_safety(result, inputs)
        assert result.all_decided  # minority memory crash: still live


class TestAlignedCombinedMatrix:
    @_PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        proc_crash=st.booleans(),
        mem_crash=st.booleans(),
    )
    def test_two_agent_crashes_safe_and_live(self, seed, proc_crash, mem_crash):
        inputs = ["a", "b", "c"]
        faults = FaultScript()
        if proc_crash:
            faults.at(0.5).crash_process(1)
        if mem_crash:
            faults.at(0.5).crash_memory(2)
        result = run_consensus(
            AlignedPaxos(), 3, 3, inputs=inputs, faults=faults, seed=seed,
            deadline=6000,
        )
        _check_safety(result, inputs)
        assert result.all_decided

    @_PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_disk_variant_safe(self, seed):
        inputs = ["a", "b", "c"]
        result = run_consensus(
            AlignedPaxos(AlignedConfig(variant="disk")), 3, 3, inputs=inputs,
            latency=JitteredSynchrony(0.5), seed=seed, deadline=6000,
        )
        _check_safety(result, inputs)


class TestLeaderFlapSafety:
    @_PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        flips=st.lists(st.floats(0.5, 50.0), min_size=1, max_size=5),
    )
    def test_pmp_safe_under_arbitrary_leader_flapping(self, seed, flips):
        from repro.consensus.omega import leader_schedule

        schedule = [(0.0, 0)] + [
            (t, i % 2) for i, t in enumerate(sorted(flips), start=1)
        ]
        inputs = ["a", "b"]
        result = run_consensus(
            ProtectedMemoryPaxos(), 2, 3, inputs=inputs,
            omega=leader_schedule(schedule), seed=seed, deadline=4000,
        )
        _check_safety(result, inputs)
