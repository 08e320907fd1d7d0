"""Robust Backup(Paxos) — Theorems 4.2/4.4: WBA with n >= 2f+1."""

import pytest

from repro import (
    EquivocatingBroadcaster,
    FaultScript,
    PaxosValueLiar,
    RobustBackup,
    SilentByzantine,
    run_consensus,
)
from repro.types import MemoryId


class TestCrashOnlyOperation:
    def test_basic_agreement(self):
        result = run_consensus(RobustBackup(), 3, 3, deadline=5000)
        assert result.all_decided and result.agreed and result.valid

    def test_five_processes(self):
        result = run_consensus(RobustBackup(), 5, 3, deadline=8000)
        assert result.all_decided and result.agreed

    def test_crash_minority(self):
        faults = FaultScript().at(0.0).crash_process(2)
        result = run_consensus(RobustBackup(), 3, 3, faults=faults, deadline=8000)
        assert result.all_decided and result.agreed

    def test_memory_minority_crash(self):
        faults = FaultScript().at(0.0).crash_memory(1)
        result = run_consensus(RobustBackup(), 3, 3, faults=faults, deadline=8000)
        assert result.all_decided and result.agreed


class TestByzantineTolerance:
    """n = 2f+1 = 3 with one Byzantine process: every strategy must be
    reduced to (at worst) a crash."""

    def test_silent_byzantine(self):
        faults = FaultScript().make_byzantine(2, SilentByzantine())
        result = run_consensus(RobustBackup(), 3, 3, faults=faults, deadline=8000)
        assert result.all_decided and result.agreed and result.valid

    def test_equivocating_broadcaster_is_contained(self):
        faults = FaultScript().make_byzantine(1, EquivocatingBroadcaster())
        result = run_consensus(RobustBackup(), 3, 3, faults=faults, deadline=8000)
        assert result.all_decided and result.agreed
        # The honest processes' decision came from an honest input.
        assert result.decided_values <= {"value-1", "value-3"}

    def test_paxos_liar_is_dropped(self):
        faults = FaultScript().make_byzantine(1, PaxosValueLiar("EVIL"))
        result = run_consensus(RobustBackup(), 3, 3, faults=faults, deadline=8000)
        assert result.all_decided and result.agreed
        assert "EVIL" not in result.decided_values

    def test_two_byzantine_of_five(self):
        faults = (
            FaultScript()
            .make_byzantine(3, PaxosValueLiar("EVIL"))
            .make_byzantine(4, EquivocatingBroadcaster())
        )
        result = run_consensus(RobustBackup(), 5, 3, faults=faults, deadline=12_000)
        assert result.all_decided and result.agreed
        assert "EVIL" not in result.decided_values

    def test_byzantine_leader_seat(self):
        # The Byzantine process occupies the Ω-preferred seat; liveness must
        # come from honest proposers taking over.
        faults = FaultScript().make_byzantine(0, SilentByzantine())
        result = run_consensus(
            RobustBackup(), 3, 3, faults=faults,
            omega=lambda now: 1, deadline=8000,
        )
        assert result.all_decided and result.agreed
