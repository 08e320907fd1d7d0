"""Memory semantics: regions, permission enforcement, snapshots,
legalChange no-op behaviour."""

import time
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.mem.layout import MemoryLayout
from repro.mem.memory import Memory, OpCounts
from repro.mem.operations import (
    ChangePermissionOp,
    ReadOp,
    ReadSnapshotOp,
    SnapshotOp,
    WriteOp,
)
from repro.mem.permissions import Permission, revoke_only_policy
from repro.mem.regions import RegionSpec
from repro.types import BOTTOM, MemoryId, OpStatus, ProcessId, is_bottom


def _memory(regions) -> Memory:
    return Memory(MemoryId(0), MemoryLayout(list(regions)))


def _swmr_memory(n=3):
    return _memory(
        [RegionSpec(f"s:{p}", ("s", p), Permission.swmr(p, range(n))) for p in range(n)]
    )


class TestReadWrite:
    def test_owner_writes_and_reads(self):
        mem = _swmr_memory()
        assert mem.apply(ProcessId(0), WriteOp("s:0", ("s", 0, "k"), 42)).ok
        result = mem.apply(ProcessId(0), ReadOp("s:0", ("s", 0, "k")))
        assert result.ok and result.value == 42

    def test_non_owner_write_naks(self):
        mem = _swmr_memory()
        result = mem.apply(ProcessId(1), WriteOp("s:0", ("s", 0, "k"), 13))
        assert not result.ok
        assert is_bottom(mem.peek(("s", 0, "k")))

    def test_everyone_reads_swmr(self):
        mem = _swmr_memory()
        mem.apply(ProcessId(0), WriteOp("s:0", ("s", 0, "k"), "v"))
        for p in range(3):
            assert mem.apply(ProcessId(p), ReadOp("s:0", ("s", 0, "k"))).value == "v"

    def test_key_outside_region_naks(self):
        mem = _swmr_memory()
        result = mem.apply(ProcessId(0), WriteOp("s:0", ("other", "k"), 1))
        assert not result.ok

    def test_unknown_region_naks(self):
        mem = _swmr_memory()
        assert not mem.apply(ProcessId(0), ReadOp("nope", ("s", 0, "k"))).ok

    def test_unwritten_register_reads_bottom(self):
        mem = _swmr_memory()
        result = mem.apply(ProcessId(1), ReadOp("s:0", ("s", 0, "never")))
        assert result.ok and is_bottom(result.value)

    def test_overwrite_replaces(self):
        mem = _swmr_memory()
        mem.apply(ProcessId(0), WriteOp("s:0", ("s", 0, "k"), "old"))
        mem.apply(ProcessId(0), WriteOp("s:0", ("s", 0, "k"), "new"))
        assert mem.apply(ProcessId(1), ReadOp("s:0", ("s", 0, "k"))).value == "new"


class TestSnapshot:
    def test_snapshot_returns_prefix_view(self):
        mem = _swmr_memory()
        mem.apply(ProcessId(0), WriteOp("s:0", ("s", 0, "a"), 1))
        mem.apply(ProcessId(0), WriteOp("s:0", ("s", 0, "b"), 2))
        result = mem.apply(ProcessId(2), SnapshotOp("s:0", ("s", 0)))
        assert result.ok
        assert result.value == {("s", 0, "a"): 1, ("s", 0, "b"): 2}

    def test_snapshot_excludes_other_regions(self):
        mem = _swmr_memory()
        mem.apply(ProcessId(0), WriteOp("s:0", ("s", 0, "a"), 1))
        mem.apply(ProcessId(1), WriteOp("s:1", ("s", 1, "a"), 9))
        result = mem.apply(ProcessId(2), SnapshotOp("s:0", ("s", 0)))
        assert ("s", 1, "a") not in result.value

    def test_snapshot_without_read_permission_naks(self):
        region = RegionSpec("priv", ("priv",), Permission(readwrite=frozenset({0})))
        mem = _memory([region])
        assert not mem.apply(ProcessId(1), SnapshotOp("priv", ("priv",))).ok

    def test_empty_snapshot(self):
        mem = _swmr_memory()
        result = mem.apply(ProcessId(0), SnapshotOp("s:1", ("s", 1)))
        assert result.ok and result.value == {}


class TestChangePermission:
    def _revocable(self):
        revoked = Permission.read_only(range(3))
        return _memory(
            [
                RegionSpec(
                    "lead",
                    ("lead",),
                    Permission.exclusive_writer(0, range(3)),
                    legal_change=revoke_only_policy(revoked),
                )
            ]
        ), revoked

    def test_legal_change_applies(self):
        mem, revoked = self._revocable()
        result = mem.apply(ProcessId(2), ChangePermissionOp("lead", revoked))
        assert result.ok
        assert mem.permission_of("lead") == revoked

    def test_illegal_change_is_noop(self):
        mem, _ = self._revocable()
        grab = Permission.exclusive_writer(2, range(3))
        before = mem.permission_of("lead")
        result = mem.apply(ProcessId(2), ChangePermissionOp("lead", grab))
        assert not result.ok
        assert mem.permission_of("lead") == before

    def test_write_after_revocation_naks(self):
        mem, revoked = self._revocable()
        assert mem.apply(ProcessId(0), WriteOp("lead", ("lead", "v"), 1)).ok
        mem.apply(ProcessId(2), ChangePermissionOp("lead", revoked))
        assert not mem.apply(ProcessId(0), WriteOp("lead", ("lead", "v"), 2)).ok
        # The old value is preserved.
        assert mem.apply(ProcessId(1), ReadOp("lead", ("lead", "v"))).value == 1

    def test_static_region_never_changes(self):
        mem = _swmr_memory()
        anything = Permission.open(range(3))
        result = mem.apply(ProcessId(0), ChangePermissionOp("s:0", anything))
        assert not result.ok


class TestCounters:
    def test_op_counters(self):
        mem = _swmr_memory()
        mem.apply(ProcessId(0), WriteOp("s:0", ("s", 0, "a"), 1))
        mem.apply(ProcessId(1), ReadOp("s:0", ("s", 0, "a")))
        mem.apply(ProcessId(1), SnapshotOp("s:0", ("s", 0)))
        mem.apply(ProcessId(1), WriteOp("s:0", ("s", 0, "a"), 2))  # nak
        assert mem.counts.writes == 2
        assert mem.counts.reads == 1
        assert mem.counts.snapshots == 1
        assert mem.counts.naks == 1


class TestLayout:
    def test_duplicate_region_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryLayout(
                [
                    RegionSpec("a", ("a",), Permission.open(range(2))),
                    RegionSpec("a", ("b",), Permission.open(range(2))),
                ]
            )

    def test_overlapping_regions_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryLayout(
                [
                    RegionSpec("a", ("x",), Permission.open(range(2))),
                    RegionSpec("b", ("x", 1), Permission.open(range(2))),
                ]
            )

    def test_region_for_lookup(self):
        layout = MemoryLayout(
            [
                RegionSpec("a", ("a",), Permission.open(range(2))),
                RegionSpec("b", ("b",), Permission.open(range(2))),
            ]
        )
        assert layout.region_for(("a", 1, 2)).region_id == "a"
        assert layout.region_for(("b",)).region_id == "b"
        assert layout.region_for(("c",)) is None

    def test_merged_with(self):
        first = MemoryLayout([RegionSpec("a", ("a",), Permission.open(range(2)))])
        second = MemoryLayout([RegionSpec("b", ("b",), Permission.open(range(2)))])
        merged = first.merged_with(second)
        assert merged.region_ids() == ["a", "b"]

    def test_region_contains(self):
        spec = RegionSpec("a", ("neb", 2), Permission.open(range(3)))
        assert spec.contains(("neb", 2, 1, 0))
        assert not spec.contains(("neb", 3, 1, 0))
        assert not spec.contains(("neb",))

    def test_region_overlap_detection(self):
        a = RegionSpec("a", ("x",), Permission.open(range(2)))
        b = RegionSpec("b", ("x", 1), Permission.open(range(2)))
        c = RegionSpec("c", ("y",), Permission.open(range(2)))
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)


# ----------------------------------------------------------------------
# the region-indexed store against the flat dict it replaced
# ----------------------------------------------------------------------
def _scan(registers, prefix, floor=None):
    """The reference: one flat dict for the whole memory, walked in full
    for every view (what ``Memory`` did before it kept a store per region)."""
    cut = len(prefix)
    view = {}
    for key, value in registers.items():
        if key[:cut] != prefix:
            continue
        if floor is not None and len(key) > cut:
            index = key[cut]
            if isinstance(index, int) and index < floor:
                continue
        view[key] = value
    return view


class _FlatMemory:
    """The reference memory around ``_scan``: same checks, same counters."""

    def __init__(self, layout):
        self.layout = layout
        self.registers = {}
        self.counts = OpCounts()

    def apply(self, pid, op):
        spec = self.layout.by_id(op.region)
        write = isinstance(op, WriteOp)
        single = write or isinstance(op, ReadOp)
        if write:
            self.counts.writes += 1
        elif single:
            self.counts.reads += 1
        else:
            self.counts.snapshots += 1
        inside = spec is not None and spec.contains(op.key if single else op.prefix)
        perm = spec.initial_permission if spec is not None else None
        if not inside or not (perm.can_write(pid) if write else perm.can_read(pid)):
            self.counts.naks += 1
            return OpStatus.NAK, None
        if write:
            self.registers[op.key] = op.value
            return OpStatus.ACK, None
        if single:
            return OpStatus.ACK, self.registers.get(op.key, BOTTOM)
        return OpStatus.ACK, _scan(self.registers, op.prefix, getattr(op, "floor", None))


_PIDS = (ProcessId(0), ProcessId(1))
#: region id differs from prefix[0], as in benchmarks/e2e/layers.py's probe
_LOG = RegionSpec("log", ("x",), Permission.open(_PIDS))
#: a two-component prefix, written by p1 only: p2's writes NAK
_OWNED = RegionSpec("s:0", ("s", 0), Permission.swmr(0, _PIDS))
#: installed mid-run with add_region; unknown (NAK) before that
_LATE = RegionSpec("late", ("late",), Permission.open(_PIDS))

_SLOTS = st.integers(-1, 6)  # -1 is smr/log.py's _RECOVERY_PROBE_SLOT
_TAILS = st.one_of(
    st.tuples(_SLOTS, st.sampled_from((0, 1))),  # two pids on one slot
    st.tuples(_SLOTS),
    st.tuples(st.just("wm"), st.sampled_from((0, 1))),  # named registers
    st.tuples(st.just("wm")),
    st.just(()),  # a key equal to the region prefix
)
_KEYS = st.builds(
    lambda spec, tail: (spec.region_id, spec.prefix + tail),
    st.sampled_from((_LOG, _OWNED, _LATE)),
    _TAILS,
)
#: a key outside the region it is addressed to, and a region nobody declared
_STRAYS = st.sampled_from((("log", ("y", 1)), ("s:0", ("x", 1, 0)), ("nope", ("x", 1))))
_STEPS = st.one_of(
    st.tuples(st.just("write"), _KEYS | _STRAYS, st.sampled_from(_PIDS), st.integers(0, 99)),
    st.tuples(st.just("poke"), _KEYS, st.integers(100, 199)),
    st.tuples(st.just("drop"), _KEYS),
    st.just(("wipe",)),
    st.just(("install",)),
)
#: per region: its own prefix, longer ones, and one it does not contain
_PREFIXES = {
    "log": (("x",), ("x", 3), ("x", "wm"), ("x", 3, 0), ("s", 0), ()),
    "s:0": (("s", 0), ("s", 0, 2), ("s", 0, "wm"), ("s",), ("x",)),
    "late": (("late",), ("late", 0)),
}
_FLOORS = (None, -5, 3, 100)  # none, below all, mid, above all


class TestStoreMatchesFlatScan:
    def _assert_same_views(self, memory, flat):
        for region, prefixes in _PREFIXES.items():
            for prefix in prefixes:
                status, expected = flat.apply(_PIDS[1], SnapshotOp(region, prefix))
                got = memory.apply(_PIDS[1], SnapshotOp(region, prefix))
                assert got.status is status
                if status is OpStatus.ACK:  # write order is part of the contract
                    assert list(got.value.items()) == list(expected.items())
                for floor in _FLOORS:
                    op = ReadSnapshotOp(region, prefix, floor)
                    status, expected = flat.apply(_PIDS[1], op)
                    got = memory.apply(_PIDS[1], op)
                    assert got.status is status
                    assert got.value == expected
        assert memory.counts == flat.counts
        assert memory.registers == flat.registers

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_STEPS, max_size=40))
    def test_every_view_nak_and_count_agrees_after_every_step(self, steps):
        layout = MemoryLayout([_LOG, _OWNED])
        memory = Memory(MemoryId(0), layout)
        flat = _FlatMemory(layout)
        for step in steps:
            if step[0] == "write":
                _, (region, key), pid, value = step
                status, _ = flat.apply(pid, WriteOp(region, key, value))
                assert memory.apply(pid, WriteOp(region, key, value)).status is status
                status, expected = flat.apply(pid, ReadOp(region, key))
                got = memory.apply(pid, ReadOp(region, key))
                assert (got.status, got.value) == (status, expected)
            elif step[0] == "wipe":
                memory.recover(wipe=True)
                flat.registers.clear()
            elif step[0] == "install":
                if layout.by_id("late") is None:
                    layout.add(_LATE)
                memory.add_region(_LATE)
            else:
                self._backdoor(memory, flat, *step)
            self._assert_same_views(memory, flat)

    def _backdoor(self, memory, flat, kind, target, value=None):
        region, key = target
        if kind == "poke" and memory.layout.by_id(region) is not None:
            memory.poke(key, value)
            flat.registers[key] = value
        elif kind == "drop" and key in flat.registers:
            memory.drop(key)
            del flat.registers[key]
        else:  # no region to plant it in, nothing to erase
            with pytest.raises(KeyError):
                memory.poke(key, value) if kind == "poke" else memory.drop(key)

    def test_registers_is_a_read_only_view(self):
        memory = _swmr_memory()
        memory.poke(("s", 0, "k"), 1)
        assert isinstance(memory.registers, MappingProxyType)
        with pytest.raises(TypeError):
            memory.registers[("s", 0, "k")] = 2
        assert memory.peek(("s", 0, "k")) == 1
        assert dict(memory.items()) == {("s", 0, "k"): 1}


class TestSnapshotCostFollowsTheAnswer:
    def _best_tail_read(self, n_slots):
        spec = RegionSpec("r", ("x",), Permission.open(range(1)))
        memory = Memory(MemoryId(0), MemoryLayout([spec]))
        for slot in range(n_slots):
            memory.apply(ProcessId(0), WriteOp("r", ("x", slot, 0), slot))
        op = ReadSnapshotOp("r", ("x",), floor=n_slots - 10)
        best = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            for _ in range(20):
                view = memory.apply(ProcessId(0), op).value
            best = min(best, time.perf_counter() - started)
        assert len(view) == 10
        return best

    def test_ten_slot_tail_costs_the_same_from_200_or_20000_slots(self):
        # a scan of the region is ~100x here, the index ~1x: 10 splits them
        # by a margin no host noise crosses
        assert self._best_tail_read(20_000) < 10 * self._best_tail_read(200)
