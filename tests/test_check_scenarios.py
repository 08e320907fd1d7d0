"""The model-checking targets and their command line.

The service-level targets (the one-sided quorum-read window and the epoch
cutover with a deposed coordinator) are too large to exhaust at useful
depth, so the tests pin bounded sweeps: the default schedule plus a
budgeted neighbourhood must be violation-free, and the scenario oracles
must actually bite on corrupted state.  The consensus targets (the
failure landscape and Theorem 6.1's row) are small enough to exhaust,
so their schedule counts are pinned exactly."""

from __future__ import annotations

import pytest

from repro.check import Budget, explore, make_scenario
from repro.check.scenarios import SCENARIOS
from repro.errors import ConfigurationError


class TestQuorumReadWindow:
    def test_default_schedule_passes_all_oracles(self):
        scenario = make_scenario("quorum-read")
        run = scenario.build()
        run.execute()
        assert run.check(()) == []

    def test_default_schedule_shares_a_quorum_read(self):
        # clients 2 and 3 on p3 issue each get at the same instant, so
        # one of them joins the other's read before its legs land;
        # client 4, out of phase behind its put, finds a read whose legs
        # already landed and must post its own
        from unittest import mock

        from repro.smr.log import ReplicatedLog

        joined, refused = [], []
        joinable = ReplicatedLog._joinable_read

        def spy(log):
            shared = joinable(log)
            if shared is not None:
                joined.append(log.env.now)
            elif log._joinable is not None:
                refused.append(log.env.now)
            return shared

        run = make_scenario("quorum-read").build()
        with mock.patch.object(ReplicatedLog, "_joinable_read", spy):
            run.execute()
        assert run.check(()) == []
        assert len(joined) == 3
        assert len(refused) == 1

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
            "theorem61/naive_fast",
            "theorem61/pmp",
            "theorem61/disk_paxos",
            *(cell("pmp", column) for column in COLUMNS),
            *(cell("disk_paxos", column) for column in DISK_PAXOS_COLUMNS),
        } <= set(SCENARIOS)
        assert "disk_paxos/permission_storm" not in SCENARIOS

    def test_params_roundtrip_through_registry(self):
        scenario = make_scenario("pmp-single", {"seed": 3, "crashes": 0})
        assert scenario.params["seed"] == 3
        rebuilt = make_scenario(scenario.name, scenario.params)
        assert rebuilt.params == scenario.params

    def test_unknown_chain_delivery_is_rejected(self):
        # a misspelt mode used to run segmented delivery silently
        with pytest.raises(ConfigurationError, match="segmnted"):
            make_scenario("pmp-single", {"chain_delivery": "segmnted"})


#: the failure landscape's columns: one core.scenarios factory each
COLUMNS = (
    "common_case",
    "leader_crash",
    "memory_minority_crash",
    "partition_minority",
    "crash_recover_leader",
    "permission_storm",
)

#: Disk Paxos's row: its region is statically open, so every grab is
#: refused and a permission storm would change nothing
DISK_PAXOS_COLUMNS = COLUMNS[:-1]


def cell(protocol: str, column: str) -> str:
    """A landscape cell's registered name (PMP on common_case keeps its
    older name, ``pmp-single``)."""
    name = f"{protocol}/{column}"
    return "pmp-single" if name == "pmp/common_case" else name


class TestLandscape:
    NO_INJECTIONS = {"crashes": 0, "revokes": 0}

    def test_pmp_row_exhausts_clean_at_depth_one(self):
        runs = {}
        for column in COLUMNS:
            name = cell("pmp", column)
            report = explore(
                make_scenario(name, self.NO_INJECTIONS), Budget(divergences=1)
            )
            assert report.exhausted and report.violations == 0, name
            runs[column] = report.runs
        assert runs == {
            "common_case": 31,
            "leader_crash": 53,
            "memory_minority_crash": 32,
            "partition_minority": 49,
            # the recovered leader rejoins and decides; leader_crash
            # stops once the survivors decide
            "crash_recover_leader": 75,
            "permission_storm": 58,
        }

    def test_crash_recover_leader_waits_for_the_recovered_leader(self):
        # the cluster's script crashes p1 at t=1 and recovers it at t=30:
        # the default run must go on until p1 rejoined and decided
        run = make_scenario("pmp/crash_recover_leader").build()
        run.execute()
        assert run.check(()) == []
        decisions = run.kernel.metrics.decisions
        assert 0 in decisions and decisions[0].decided_at > 30.0
        assert 0 not in run.kernel.crashed_processes

    def test_a_crash_after_the_scripted_recovery_is_for_good(self):
        # With the default budgets the explorer may crash p1 for good at
        # t=30, the instant its scripted recovery already ran.  p1 is then
        # not live, so no liveness verdict may wait for it to decide.
        runs = {}
        for protocol in ("pmp", "disk_paxos"):
            report = explore(
                make_scenario(f"{protocol}/crash_recover_leader"),
                Budget(divergences=1),
            )
            assert report.exhausted and report.violations == 0, protocol
            runs[protocol] = report.runs
        assert runs == {"pmp": 423, "disk_paxos": 466}

    def test_revokes_offered_only_where_a_grab_can_succeed(self):
        # Disk Paxos's region is statically open: it refuses every grab,
        # so a revoke there changes nothing and only widens the search
        for column in DISK_PAXOS_COLUMNS:
            pmp = make_scenario(cell("pmp", column)).injections
            disk = make_scenario(cell("disk_paxos", column)).injections
            assert [spec.name for spec in pmp if spec.name.startswith("revoke-")]
            assert not [spec.name for spec in disk if spec.name.startswith("revoke-")]
            assert [spec.name for spec in disk if spec.name.startswith("crash-")]

    def test_storm_aims_at_the_protocols_own_region(self):
        from repro.consensus.disk_paxos import DiskPaxos
        from repro.consensus.protected_memory_paxos import ProtectedMemoryPaxos
        from repro.core.scenarios import permission_storm

        for protocol, region, granted in (
            (ProtectedMemoryPaxos(), "pmp", True), (DiskPaxos(), "dp", False)
        ):
            cluster = permission_storm(protocol, shots=2)
            cluster.run(["a", "b", "c"])
            records = cluster.kernel.metrics.faults_of("perm_change")
            assert len(records) == 2 * 3
            assert {(r.detail["region"], r.detail["ok"]) for r in records} == {
                (region, granted)
            }

    def test_theorem_6_1_row(self):
        # Theorem 6.1: no 2-delay algorithm is safe with static
        # permissions.  Same-instant reorderings alone break the strawman
        # at 2×2; PMP (dynamic permissions) and Disk Paxos (an extra
        # confirming read) stay clean under the same two inputs.
        verdicts = {}
        for protocol in ("naive_fast", "pmp", "disk_paxos"):
            report = explore(
                make_scenario(f"theorem61/{protocol}", self.NO_INJECTIONS),
                Budget(divergences=1),
            )
            assert report.exhausted
            verdicts[protocol] = (report.runs, report.violations)
        assert verdicts == {
            "naive_fast": (16, 2), "pmp": (11, 0), "disk_paxos": (17, 0)
        }

    def test_factory_omega_is_kept(self):
        # partition_minority hands leadership to the healed minority by
        # schedule; the adapter must not swap in crash_aware_omega
        run = make_scenario("pmp/partition_minority").build()
        assert run.kernel.omega(0.0) == 0 and run.kernel.omega(25.0) == 2


class TestCli:
    @staticmethod
    def run_cli(tmp_path, *params):
        from repro.check.cli import main

        argv = ["explore", "pmp-single", "--divergences", "0",
                "--out", str(tmp_path)]
        for param in params:
            argv += ["--param", param]
        return main(argv)

    @pytest.mark.parametrize("param", ["crashes", "crash=0"])
    def test_malformed_or_unknown_param_is_a_usage_error(
        self, param, tmp_path, capsys
    ):
        # "crashes" without "=" used to run with crashes="" (no crash
        # injections); an unknown key died with a TypeError traceback
        with pytest.raises(SystemExit) as exit_info:
            self.run_cli(tmp_path, param)
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert repr(param) in error
        for accepted in ("seed", "deadline", "crashes", "revokes",
                         "with_recovery", "chain_delivery"):
            assert accepted in error

    def test_unknown_chain_delivery_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            self.run_cli(tmp_path, "chain_delivery=segmnted")
        assert "segmnted" in capsys.readouterr().err

    def test_a_cells_counterexample_is_saved_and_replays(self, tmp_path):
        from repro.check.cli import main

        assert main(["explore", "theorem61/naive_fast", "--divergences", "1",
                     "--param", "crashes=0", "--param", "revokes=0",
                     "--stop-on-first", "--out", str(tmp_path)]) == 1
        trace = tmp_path / "theorem61-naive_fast-cx0.json"
        assert main(["replay", str(trace)]) == 0

    def test_valid_params_run(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, "seed=3", "with_recovery=true") == 0
        assert "1 schedules" in capsys.readouterr().out
