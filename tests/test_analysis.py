"""The multi-seed decision-delay sweep behind the E12 distribution bench."""

import pytest

from repro import MessagePaxos, ProtectedMemoryPaxos
from repro.sim.latency import JitteredSynchrony

from benchmarks.bench_latency_distributions import sweep_decision_delays


class TestSweep:
    def test_nominal_sweep_is_constant(self):
        samples, undecided = sweep_decision_delays(ProtectedMemoryPaxos, seeds=range(5))
        assert len(samples) == 5
        assert min(samples) == max(samples) == 2.0
        assert undecided == 0

    def test_jitter_sweep_spreads(self):
        samples, _undecided = sweep_decision_delays(
            MessagePaxos,
            seeds=range(8),
            latency_factory=lambda: JitteredSynchrony(0.4),
            n_memories=0,
        )
        assert len(samples) == 8
        assert min(samples) >= 4.0
        assert max(samples) > min(samples)

    def test_all_runs_undecided_raises(self):
        # With a deadline below the minimum decision latency no run can
        # produce a sample, and an empty summary must be an explicit error.
        with pytest.raises(ValueError):
            sweep_decision_delays(
                ProtectedMemoryPaxos, seeds=range(2), deadline=1.0
            )
