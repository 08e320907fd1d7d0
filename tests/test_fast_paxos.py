"""Fast Paxos baseline: 2-delay fast path, classic recovery."""

import pytest

from repro import FastPaxos, FaultScript, JitteredSynchrony, run_consensus
from repro.core.cluster import Cluster, ClusterConfig
from repro.consensus.fast_paxos import RECOVERY_DELAY
from repro.consensus.omega import crash_aware_omega
from repro.obs.runtime import attach


class TestFastPath:
    def test_decides_in_two_delays(self):
        result = run_consensus(FastPaxos(), 3, 0)
        assert result.all_decided and result.agreed and result.valid
        assert result.earliest_decision_delay == 2.0

    def test_fast_path_across_sizes(self):
        for n in (3, 5, 7):
            result = run_consensus(FastPaxos(), n, 0, deadline=3000)
            assert result.earliest_decision_delay == 2.0, f"n={n}"
            assert result.all_decided

    def test_all_processes_decide_same_value(self):
        result = run_consensus(FastPaxos(), 5, 0, inputs=list("abcde"))
        assert len(result.decided_values) == 1
        assert result.valid


class TestRecovery:
    def test_acceptor_crash_forces_recovery_but_decides(self):
        # Fast quorum is all n; a crashed acceptor blocks the fast path and
        # the coordinator recovers via the classic majority path.
        faults = FaultScript().at(0.0).crash_process(2)
        result = run_consensus(FastPaxos(), 3, 0, faults=faults, deadline=3000)
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay > 2.0

    def test_contention_under_jitter_recovers_safely(self):
        for seed in (3, 5, 8, 13):
            result = run_consensus(
                FastPaxos(), 3, 0, latency=JitteredSynchrony(0.9), seed=seed,
                deadline=5000,
            )
            assert result.agreed and result.valid, f"seed={seed}"

    def test_coordinator_crash_failover(self):
        config = ClusterConfig(n_processes=5, n_memories=0, deadline=5000)
        faults = FaultScript().at(0.5).crash_process(0).at(0.5).crash_process(1)
        cluster = Cluster(FastPaxos(), config, faults)
        cluster.kernel.omega = crash_aware_omega(cluster.kernel)
        result = cluster.run(list("abcde"))
        assert result.all_decided and result.agreed

    def test_recovery_opens_the_classic_phase_spans(self):
        # recovery is PaxosNode's proposer, so it is traced like one
        cluster = Cluster(
            FastPaxos(),
            ClusterConfig(n_processes=3, n_memories=0, deadline=3000),
            FaultScript().at(0.5).crash_process(2),
        )
        runtime = attach(cluster.kernel, profile=False)
        result = cluster.run(["a", "b", "c"])
        assert result.decided_values == {"a"}
        assert result.earliest_decision_delay == 14.0
        names = [span.name for span in runtime.spans]
        assert names.count("paxos.prepare") >= 1
        assert names.count("paxos.accept") >= 1

    def test_forced_value_rule(self):
        """If a value may have been fast-decided (all acceptors accepted it),
        recovery must choose it."""
        # Crash one process just after it fast-accepts; remaining majority
        # all report the fast value, and recovery picks it.
        faults = FaultScript().at(1.5).crash_process(2)
        result = run_consensus(
            FastPaxos(), 3, 0, faults=faults, inputs=["F", "x", "y"],
            deadline=5000,
        )
        assert result.agreed
        if result.decided_values:
            assert result.decided_values == {"F"}


class TestConfig:
    def test_recovery_delay_is_tunable(self):
        # the delay is one module constant, and recovery follows it: the
        # fast round waits RECOVERY_DELAY, then the classic prepare and
        # accept take two delays each
        faults = FaultScript().at(0.0).crash_process(2)
        result = run_consensus(FastPaxos(), 3, 0, faults=faults, deadline=3000)
        assert result.all_decided
        assert result.earliest_decision_delay == RECOVERY_DELAY + 4.0
