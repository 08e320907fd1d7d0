"""Byzantine strategies: enforcement boundaries they cannot cross."""

import pytest

from repro import (
    CheapQuorumEquivocatorLeader,
    EquivocatingBroadcaster,
    FastRobust,
    FastRobustConfig,
    FaultScript,
    PermissionAbuser,
    ProtectedMemoryPaxos,
    RobustBackup,
    SilentByzantine,
    run_consensus,
)
from repro.consensus.cheap_quorum import CheapQuorumConfig, LEADER_REGION
from repro.mem.operations import WriteOp
from repro.mem.permissions import Permission

from tests.conftest import env_of, make_kernel


def _fr():
    return FastRobust(
        FastRobustConfig(
            cheap_quorum=CheapQuorumConfig(
                leader_timeout=15.0, unanimity_timeout=25.0
            )
        )
    )


class TestEnforcementBoundaries:
    def test_byzantine_cannot_write_other_swmr_regions(self):
        """The memory is the trusted component: a Byzantine process writing
        somebody else's SWMR slot gets nak, full stop."""
        from repro.registers.swmr import swmr_regions

        kernel = make_kernel(3, 3, regions=swmr_regions("s", range(3), range(3)))
        kernel.mark_byzantine(2)
        env = env_of(kernel, 2)

        def attack():
            results = []
            for victim in (0, 1):
                result = yield from env.write(
                    0, f"s:{victim}", ("s", victim, "k"), "corrupted"
                )
                results.append(result.ok)
            return results

        task = kernel.spawn(2, "attack", attack())
        kernel.run(until=100)
        assert task.result == [False, False]

    def test_byzantine_cannot_forge_signatures(self):
        kernel = make_kernel()
        byz = env_of(kernel, 2)
        honest = env_of(kernel, 0)
        # The Byzantine process signs with its own key and claims otherwise:
        forged = byz.sign("fake")
        assert not honest.valid(0, forged)  # claimed signer 0: rejected
        assert honest.valid(2, forged)  # it only ever counts as p3's word

    def test_permission_abuser_never_changes_anything(self):
        from repro.consensus.cheap_quorum import cq_regions

        kernel = make_kernel(3, 3, regions=cq_regions(3, leader=0))
        kernel.mark_byzantine(2)
        env = env_of(kernel, 2)
        before = [m.permission_of(LEADER_REGION) for m in kernel.memories]
        strategy = PermissionAbuser()
        for name, gen in strategy.tasks(env, None):
            kernel.spawn(2, name, gen)
        kernel.run(until=50)
        after = [m.permission_of(LEADER_REGION) for m in kernel.memories]
        assert before == after


class TestStrategyMatrix:
    """Each strategy against the protocol it targets; honest side wins."""

    @pytest.mark.parametrize(
        "strategy,seat,omega",
        [
            (SilentByzantine(), 1, None),
            (SilentByzantine(), 0, 1),  # Byzantine occupies the leader seat
            (EquivocatingBroadcaster(), 2, None),
            (CheapQuorumEquivocatorLeader(), 0, 1),
        ],
        ids=["silent-follower", "silent-leader", "equivocator", "byz-cq-leader"],
    )
    def test_fast_robust_survives(self, strategy, seat, omega):
        faults = FaultScript().make_byzantine(seat, strategy)
        result = run_consensus(
            _fr(), 3, 3, faults=faults,
            omega=(lambda now: omega) if omega is not None else None,
            deadline=40_000,
        )
        assert result.all_decided and result.agreed
        assert not result.metrics.violations

    def test_two_byzantine_of_five(self):
        faults = (
            FaultScript()
            .make_byzantine(3, SilentByzantine())
            .make_byzantine(4, EquivocatingBroadcaster())
        )
        result = run_consensus(_fr(), 5, 3, faults=faults, deadline=60_000)
        assert result.all_decided and result.agreed

    def test_crash_model_protocol_unaffected_by_byzantine_writes(self):
        """PMP is a crash-model algorithm, but the permission system still
        stops a (hypothetical) Byzantine non-leader from corrupting slots."""
        from repro.consensus.protected_memory_paxos import pmp_regions

        kernel = make_kernel(3, 3, regions=pmp_regions(3))
        env = env_of(kernel, 1)

        def rogue_write():
            result = yield from env.write(0, "pmp", ("pmp", 1), "garbage")
            return result.ok

        task = kernel.spawn(1, "rogue", rogue_write())
        kernel.run(until=50)
        assert task.result is False  # p1 holds exclusivity initially


class TestStrategySurface:
    def test_all_strategies_expose_tasks(self):
        kernel = make_kernel()
        env = env_of(kernel, 0)
        for strategy in (
            SilentByzantine(),
            EquivocatingBroadcaster(),
            CheapQuorumEquivocatorLeader(),
            PermissionAbuser(),
        ):
            tasks = strategy.tasks(env, "input")
            assert tasks and all(len(t) == 2 for t in tasks)

    def test_base_class_is_abstract(self):
        from repro.failures.byzantine import ByzantineStrategy

        with pytest.raises(NotImplementedError):
            ByzantineStrategy().tasks(None, None)
