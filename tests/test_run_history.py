"""The service's run history as flat columns, against what it replaced.

A replica's applied history was a list of ``(slot, command, result)``
tuples and the replicated log kept one ``_SlotState`` object per slot.
Both are columns now: :class:`AppliedLog` holds an ``array('q')`` of
slots and two reference lists, and ``ReplicatedLog.decided`` is one dict
of decided values.  The differential test keeps the plain list as the
reference: under any sequence of edits the store must read back exactly
what the list would hold.  The structural tests pin *why* the columns
exist: a history row is not a GC-tracked object.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.smr.kv import AppliedLog, KVCommand, KVStateMachine
from repro.smr.log import Batch, ReplicatedLog, smr_regions

from tests.conftest import env_of, make_kernel

_SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_rows = st.tuples(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.sampled_from([KVCommand("put", "k", 1), KVCommand("get", "k"), "noop", None]),
    st.one_of(st.none(), st.integers(), st.text(max_size=3)),
)
_indices = st.integers(min_value=-12, max_value=12)
_slices = st.builds(
    slice,
    st.one_of(st.none(), _indices),
    st.one_of(st.none(), _indices),
    st.one_of(st.none(), st.sampled_from([-2, -1, 1, 2, 3])),
)
_edits = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _rows),
        st.tuples(st.just("get"), _indices),
        st.tuples(st.just("slice"), _slices),
        st.tuples(st.just("set"), st.tuples(_indices, _rows)),
        st.tuples(st.just("del"), st.one_of(_indices, _slices)),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=40,
)


def _outcome(action):
    """What *action* returns, or the type of what it raises."""
    try:
        return action()
    except IndexError:
        return IndexError


class TestAppliedLogIsTheList:
    @_SETTINGS
    @given(rows=st.lists(_rows, max_size=12), edits=_edits)
    def test_every_read_matches_after_every_edit(self, rows, edits):
        log, reference = AppliedLog(), []
        for row in rows:
            log.append(row)
            reference.append(row)
        for kind, arg in edits:
            if kind == "append":
                log.append(arg)
                reference.append(arg)
            elif kind == "get":
                assert _outcome(lambda: log[arg]) == _outcome(lambda: reference[arg])
            elif kind == "slice":
                assert log[arg] == reference[arg]
            elif kind == "set":
                index, row = arg

                def assign(target):
                    target[index] = row

                assert _outcome(lambda: assign(log)) == _outcome(lambda: assign(reference))
            elif kind == "del":

                def delete(target):
                    del target[arg]

                assert _outcome(lambda: delete(log)) == _outcome(lambda: delete(reference))
            else:
                del log[:]
                del reference[:]
            assert len(log) == len(reference)
            assert list(log) == reference
            assert log == reference and log == list(reference)
            assert not log != reference
        other = AppliedLog()
        for row in reference:
            other.append(row)
        assert log == other

    def test_a_different_list_is_unequal(self):
        log = AppliedLog()
        log.add(0, "noop", None)
        assert log != [(0, "noop", 1)]
        assert log != [[0, "noop", None]]  # rows are tuples, as in the list
        assert log != [(0, "noop", None)] * 2
        assert log != (0, "noop", None)

    def test_slice_assignment_is_refused(self):
        log = AppliedLog()
        log.add(0, "noop", None)
        with pytest.raises(TypeError):
            log[0:1] = [(1, "noop", None)]
        assert list(log) == [(0, "noop", None)]

    def test_slot_runs_are_the_row_ranges_of_each_slot(self):
        log = AppliedLog()
        for slot, n in ((0, 1), (1, 4), (2, 0), (3, 2)):
            for i in range(n):
                log.add(slot, f"c{slot}.{i}", None)
        assert log.slot_runs() == {0: (0, 1), 1: (1, 5), 3: (5, 7)}
        assert AppliedLog().slot_runs() == {}


# ----------------------------------------------------------------------
# the structure, not the megabytes
# ----------------------------------------------------------------------
ROWS = 10_000


def _tracked_growth(step, n: int) -> int:
    """GC-tracked objects ``step(i)`` for ``i < n`` leaves behind."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for i in range(n):
            step(i)
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


class TestRunHistoryIsNotObjects:
    def test_applied_rows_allocate_no_tracked_object(self):
        machine = KVStateMachine()
        batches = [
            Batch(
                tuple(
                    KVCommand("put", f"k{(8 * b + i) % 256}", i, client=1,
                              request_id=8 * b + i)
                    for i in range(8)
                )
            )
            for b in range(ROWS // 8)
        ]
        growth = _tracked_growth(lambda b: machine.apply(b, batches[b]), len(batches))
        assert len(machine.applied) == ROWS
        assert machine.applied[-1] == (ROWS // 8 - 1, batches[-1].commands[-1], None)
        # a tuple per row grew the heap by 10 000 here
        assert growth <= 64

    def test_decided_slots_allocate_no_tracked_object(self):
        kernel = make_kernel(2, 3, regions=smr_regions(2))
        machine = KVStateMachine()
        log = ReplicatedLog(env_of(kernel, 0), machine.apply)
        values = [Batch((KVCommand("put", "k", i),)) for i in range(ROWS)]
        # commit in pairs, the later slot first: the earlier one must
        # still release both, in order
        order = [s ^ 1 for s in range(ROWS)]
        growth = _tracked_growth(lambda i: log._commit(order[i], values[order[i]]), ROWS)
        assert log.applied_upto == ROWS - 1
        assert len(log.decided) == len(machine.applied) == ROWS
        assert [slot for slot, _command, _result in machine.applied] == list(range(ROWS))
        # a _SlotState per slot, plus its row tuple, grew the heap by 20 000
        assert growth <= 64
