"""Unit coverage for the reconfiguration vocabulary and its parts:
epoch folding, the fence policy, the autoscaler policy, the config log."""

import pytest

from repro.errors import ConfigurationError
from repro.mem.permissions import Permission, epoch_fence_policy
from repro.metrics.ledger import MetricsLedger
from repro.reconfig import (
    ActivateEpoch,
    AddReplica,
    Autoscaler,
    AutoscalerConfig,
    ConfigState,
    MergeShard,
    MoveLeader,
    RemoveReplica,
    SealShard,
    SplitShard,
)
from repro.types import ProcessId


class TestConfigStateFold:
    def make(self, n_shards=2, n_processes=3, replicas=None):
        return ConfigState(
            n_shards, n_processes, tuple(range(n_processes)) if replicas is None else replicas
        )

    def test_epoch_zero_matches_static_layout(self):
        state = self.make(n_shards=4, n_processes=3)
        epoch = state.active_epoch
        assert epoch.number == 0 and epoch.active
        assert epoch.shards == (0, 1, 2, 3)
        assert epoch.leaders == {0: 0, 1: 1, 2: 2, 3: 0}

    def test_split_allocates_fresh_id_and_balances_leaders(self):
        state = self.make()
        epoch = state.apply(SplitShard())
        assert epoch.number == 1 and not epoch.active
        assert epoch.shards == (0, 1, 2)
        # p3 leads nothing at epoch 0 -> least-loaded gets the new shard
        assert epoch.leaders[2] == 2
        assert epoch.migration_sources == (0, 1)
        assert state.next_shard_id == 3

    def test_merge_retires_and_records_the_deposed_leader(self):
        state = self.make(n_shards=3)
        epoch = state.apply(MergeShard(1))
        assert epoch.shards == (0, 2)
        assert epoch.retired == (1,)
        assert epoch.migration_sources == (1,)
        assert epoch.deposed == ((1, 1),)
        assert 1 not in epoch.leaders

    def test_shard_ids_never_recycle_after_merge(self):
        state = self.make(n_shards=3)
        state.apply(MergeShard(2))
        epoch = state.apply(SplitShard())
        assert epoch.shards == (0, 1, 3)  # id 2 stays retired forever

    def test_move_leader(self):
        state = self.make()
        epoch = state.apply(MoveLeader(0, 2))
        assert epoch.leaders[0] == 2
        assert epoch.deposed == ((0, 0),)
        assert epoch.migration_sources == ()

    def test_replica_swap_reassigns_led_shards(self):
        state = self.make(n_shards=2, n_processes=4, replicas=(0, 1, 2))
        added = state.apply(AddReplica(3))
        assert added.replicas == (0, 1, 2, 3)
        removed = state.apply(RemoveReplica(1))
        assert removed.replicas == (0, 2, 3)
        assert (1, 1) in removed.deposed
        assert removed.leaders[1] in (2, 3)  # reassigned off the leaver

    def test_seal_and_activate_fold_in_place(self):
        state = self.make()
        epoch = state.apply(SplitShard())
        assert state.apply(SealShard(epoch.number, 0)) is None
        assert 0 in epoch.sealed
        assert state.apply(ActivateEpoch(epoch.number)) is None
        assert state.active_epoch is epoch and epoch.active

    def test_activation_must_be_in_order(self):
        state = self.make()
        state.apply(SplitShard())
        second = state.apply(SplitShard())
        state.apply(ActivateEpoch(second.number))  # out of order: rejected
        assert state.active_epoch.number == 0
        assert state.rejected and "not the next pending" in state.rejected[-1][1]

    def test_invalid_commands_fold_to_recorded_rejections(self):
        state = self.make()
        assert state.apply(MergeShard(7)) is None
        assert state.apply(MoveLeader(0, 9)) is None
        assert state.apply(AddReplica(1)) is None
        assert state.apply(RemoveReplica(9)) is None
        assert len(state.rejected) == 4
        assert state.latest.number == 0  # nothing opened an epoch

    def test_cannot_remove_last_replica_or_merge_last_shard(self):
        state = ConfigState(1, 1, (0,))
        assert state.check(RemoveReplica(0)) is not None
        assert state.check(MergeShard(0)) is not None

    def test_max_shards_bounds_splits_in_the_fold(self):
        state = ConfigState(2, 3, (0, 1, 2), max_shards=3)
        assert state.apply(SplitShard()) is not None  # 2 -> 3 fits
        assert state.apply(SplitShard()) is None  # 3 -> 4 bounces
        assert "max_shards" in state.rejected[-1][1]
        # a merge frees headroom again
        assert state.check(MergeShard(0)) is None


class TestEpochFencePolicy:
    def setup_method(self):
        self.processes = range(3)
        self.policy = epoch_fence_policy(self.processes)
        self.tombstone = Permission()

    def test_exclusive_grants_are_legal_for_any_requester(self):
        old = Permission.exclusive_writer(0, self.processes)
        new = Permission.exclusive_writer(2, self.processes)
        assert self.policy(ProcessId(2), old, new)  # self-grab
        assert self.policy(ProcessId(1), old, new)  # coordinator grant

    def test_malformed_shapes_are_illegal(self):
        old = Permission.exclusive_writer(0, self.processes)
        assert not self.policy(ProcessId(0), old, Permission.open(self.processes))
        assert not self.policy(ProcessId(0), old, Permission.read_only(self.processes))
        outsider = Permission.exclusive_writer(7, range(8))
        assert not self.policy(ProcessId(0), old, outsider)

    def test_retirement_is_sticky(self):
        old = Permission.exclusive_writer(1, self.processes)
        assert self.policy(ProcessId(0), old, self.tombstone)  # retire: legal
        grab = Permission.exclusive_writer(1, self.processes)
        assert not self.policy(ProcessId(1), self.tombstone, grab)  # no way back
        assert self.policy(ProcessId(1), self.tombstone, self.tombstone)

    def test_dormant_read_only_region_is_grabbable(self):
        dormant = Permission.read_only(self.processes)
        grab = Permission.exclusive_writer(2, self.processes)
        assert self.policy(ProcessId(2), dormant, grab)

    def test_non_retirable_region_rejects_the_tombstone(self):
        # the config log's own region must never be brickable — a
        # scripted-adversarial tombstone against "cfg" is just illegal
        policy = epoch_fence_policy(self.processes, retirable=False)
        old = Permission.exclusive_writer(0, self.processes)
        assert not policy(ProcessId(0), old, self.tombstone)
        assert not policy(ProcessId(2), old, self.tombstone)
        grab = Permission.exclusive_writer(1, self.processes)
        assert policy(ProcessId(1), old, grab)  # leadership still moves


class TestAutoscaler:
    def tick(self, policy, ledger, now, shards=(0, 1), pending=False):
        return policy.observe(now, ledger, shards, pending)

    def test_first_tick_only_baselines(self):
        policy = Autoscaler(AutoscalerConfig(split_above=1.0, cooldown=0.0))
        ledger = MetricsLedger()
        ledger.count_shard_commit(0, 100)
        assert self.tick(policy, ledger, 100.0) == []

    def test_hot_shard_triggers_split(self):
        policy = Autoscaler(AutoscalerConfig(split_above=50.0, cooldown=0.0))
        ledger = MetricsLedger()
        self.tick(policy, ledger, 100.0)
        ledger.count_shard_commit(0, 30)  # 300/ktime over the window
        proposals = self.tick(policy, ledger, 200.0)
        assert len(proposals) == 1
        assert isinstance(proposals[0], SplitShard)
        assert proposals[0].hot_shard == 0

    def test_pending_reconfig_and_cooldown_mute_the_policy(self):
        policy = Autoscaler(AutoscalerConfig(split_above=1.0, cooldown=500.0))
        ledger = MetricsLedger()
        self.tick(policy, ledger, 100.0)
        ledger.count_shard_commit(0, 500)
        assert self.tick(policy, ledger, 200.0, pending=True) == []
        ledger.count_shard_commit(0, 500)
        assert self.tick(policy, ledger, 300.0) != []  # fires once...
        ledger.count_shard_commit(0, 500)
        assert self.tick(policy, ledger, 400.0) == []  # ...then cools down

    def test_max_shards_is_a_ceiling(self):
        policy = Autoscaler(AutoscalerConfig(split_above=1.0, max_shards=2, cooldown=0.0))
        ledger = MetricsLedger()
        self.tick(policy, ledger, 100.0)
        ledger.count_shard_commit(0, 500)
        assert self.tick(policy, ledger, 200.0) == []

    # A zero interval looped the autoscaler task at t=0: the kernel
    # livelocked, or a run without an event cap never returned.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("interval", 0.0),
            ("interval", -1.0),
            ("interval", float("inf")),
            ("interval", float("nan")),
            ("cooldown", -1.0),
        ],
    )
    def test_config_is_validated(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            AutoscalerConfig(**{field: value})


class TestElasticConfigValidation:
    def test_replicas_validated(self):
        from repro import ElasticConfig

        with pytest.raises(ConfigurationError):
            ElasticConfig(n_processes=3, initial_replicas=(0, 7))
        with pytest.raises(ConfigurationError):
            ElasticConfig(n_shards=4, max_shards=2)
        cfg = ElasticConfig(n_processes=4, initial_replicas=(2, 0))
        assert cfg.initial_replicas == (0, 2)
