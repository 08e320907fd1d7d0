"""The service-level model-checking targets: the PR 5 quorum-read window
and the epoch cutover with a deposed coordinator.  These spaces are too
large to exhaust at useful depth, so the tests pin bounded sweeps: the
default schedule plus a budgeted neighbourhood must be violation-free,
and the scenario oracles must actually bite on corrupted state."""

from __future__ import annotations

import pytest

from repro.check import Budget, explore, make_scenario
from repro.check.scenarios import SCENARIOS


class TestQuorumReadWindow:
    def test_default_schedule_passes_all_oracles(self):
        scenario = make_scenario("quorum-read")
        run = scenario.build()
        run.execute()
        assert run.check(()) == []

    def test_default_schedule_shares_a_quorum_read(self):
        # clients 2 and 3 on p3 issue each get at the same instant, so
        # one of them joins the other's read before its legs land
        from unittest import mock

        from repro.smr.log import ReplicatedLog

        joined = []
        join = ReplicatedLog._join

        def spy(log, shared, timeout):
            joined.append(log.env.now)
            return join(log, shared, timeout)

        run = make_scenario("quorum-read").build()
        with mock.patch.object(ReplicatedLog, "_join", spy):
            run.execute()
        assert run.check(()) == []
        assert joined

    def test_bounded_sweep_finds_no_violations(self):
        report = explore(
            make_scenario("quorum-read"), Budget(divergences=1, max_runs=150)
        )
        assert report.violations == 0
        assert report.runs == 150  # budget honoured

    def test_replica_divergence_oracle_bites(self):
        # corrupt one replica's applied log and the oracle must name it
        from repro.shard.router import READ_QUORUM
        from repro.shard.service import ShardConfig, ShardedKV
        from repro.shard.workload import ScriptedClient

        service = ShardedKV(
            ShardConfig(n_shards=1, n_processes=3, batch_max=2, vnodes=8,
                        seed=0, read_mode=READ_QUORUM)
        )
        report = service.run_workload(
            [ScriptedClient(client_id=1, script=[("put", "k", "v")], pid=1)]
        )
        assert report.ok
        machine = service.machine(2, 0)
        if machine.applied:
            slot, command, _result = machine.applied[0]
            machine.applied[0] = (slot, command, "corrupted")
        else:
            machine.applied.append((0, "phantom", "corrupted"))
        errors = service.replica_divergence()
        assert errors and "shard 0" in errors[0]

    def test_replica_divergence_oracle_bites_inside_a_batch(self):
        # every command of a batched slot is compared, not just its last:
        # corrupt the result of the FIRST command of a full 4-command
        # batch on one replica and the oracle must name that slot
        from repro.shard.service import ShardConfig, ShardedKV
        from repro.shard.workload import ScriptedClient

        service = ShardedKV(
            ShardConfig(n_shards=1, n_processes=3, batch_max=4, vnodes=8, seed=0)
        )
        clients = [
            ScriptedClient(
                client_id=c, script=[("put", f"k{c}", i) for i in range(3)], pid=0
            )
            for c in range(8)
        ]
        assert service.run_workload(clients).ok
        assert service.replica_divergence() == []
        applied = service.machine(2, 0).applied
        slots = [slot for slot, _command, _result in applied]
        first = next(row for row, slot in enumerate(slots) if slots.count(slot) == 4)
        slot, command, _result = applied[first]
        applied[first] = (slot, command, "corrupted")
        errors = service.replica_divergence()
        assert len(errors) == 2  # p3 against each of the other two replicas
        assert all(error.startswith(f"shard 0 slot {slot}: ") for error in errors)


class TestEpochCutover:
    def test_default_schedule_moves_and_fences_the_leader(self):
        scenario = make_scenario("epoch-cutover")
        run = scenario.build()
        run.execute()
        assert run.check(()) == []

    def test_bounded_sweep_finds_no_violations(self):
        report = explore(
            make_scenario("epoch-cutover"), Budget(divergences=1, max_runs=40)
        )
        assert report.violations == 0

    def test_fence_oracle_skipped_only_for_revoke_injections(self):
        scenario = make_scenario("epoch-cutover")
        run = scenario.build()
        run.execute()
        # with a revoke injection reported, the fence check must not fire
        # (the injection legitimately rewrites permissions)...
        assert run.check(("revoke-shard0-p1",)) == []
        # ...and a crash-style injection does not exempt it
        assert run.check(("crash-p1",)) == []


class TestRegistry:
    def test_all_targets_registered(self):
        # the regression corpus registers lazily; force it
        import repro.check.regressions  # noqa: F401

        assert {
            "pmp-single",
            "quorum-read",
            "epoch-cutover",
            "regression-unpark-collision",
            "regression-stale-wake",
        } <= set(SCENARIOS)

    def test_params_roundtrip_through_registry(self):
        scenario = make_scenario("pmp-single", {"seed": 3, "crashes": 0})
        assert scenario.params["seed"] == 3
        rebuilt = make_scenario(scenario.name, scenario.params)
        assert rebuilt.params == scenario.params
