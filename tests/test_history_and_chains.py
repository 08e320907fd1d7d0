"""Trusted-history helpers and the per-memory fan-out legs of the
Disk Paxos and Aligned Paxos rounds."""

from unittest import mock

from repro import AlignedConfig, AlignedPaxos, DiskPaxos, FaultScript
from repro.consensus.aligned_paxos import AlignedNode
from repro.core.cluster import Cluster, ClusterConfig
from repro.mem.memory import Memory
from repro.sim.kernel import Kernel
from repro.sim.latency import AdversarialLatency
from repro.trusted.history import (
    RecvEvent,
    SentEvent,
    TO_ALL,
    last_sent_matching,
    received_events,
    received_from,
    sent_count,
    sent_events,
)
from repro.types import ProcessId


def _history():
    return (
        SentEvent(1, TO_ALL, "a"),
        RecvEvent(ProcessId(1), 1, TO_ALL, "x"),
        SentEvent(2, ProcessId(2), "b"),
        RecvEvent(ProcessId(1), 2, TO_ALL, "y"),
        RecvEvent(ProcessId(2), 1, ProcessId(0), "z"),
    )


class TestHistoryHelpers:
    def test_sent_count(self):
        assert sent_count(_history()) == 2
        assert sent_count(()) == 0

    def test_received_from(self):
        events = received_from(_history(), ProcessId(1))
        assert [e.message for e in events] == ["x", "y"]

    def test_received_events(self):
        assert len(received_events(_history())) == 3

    def test_sent_events(self):
        assert [e.k for e in sent_events(_history())] == [1, 2]

    def test_last_sent_matching(self):
        event = last_sent_matching(_history(), lambda m: isinstance(m, str))
        assert event.message == "b"  # most recent
        assert last_sent_matching(_history(), lambda m: m == "a").k == 1
        assert last_sent_matching(_history(), lambda m: m == "nope") is None


def _cluster(protocol, crashed_memories=(), **config) -> Cluster:
    faults = FaultScript()
    for mid in crashed_memories:
        faults.at(0.0).crash_memory(mid)
    return Cluster(protocol, ClusterConfig(n_processes=3, n_memories=3, **config), faults)


class TestPerMemoryLegs:
    """The paper's "for every memory in parallel, continue on a majority"
    as one-target fan-out legs: no task per memory, one wake per leg."""

    def test_disk_paxos_reads_back_each_disk_after_its_write(self):
        # Disk 0's write request leg takes 2.5 instead of 1.  Its read-back
        # is posted only when that write completes (t=3.5), so it applies
        # at t=4.5, after the write at t=2.5; a read posted beside the
        # write would have applied first, at t=1.  Disks 1 and 2 still
        # close the round at the nominal 4 delays.
        slow_write = AdversarialLatency(
            lambda kind, pid, mid, now: 2.5
            if kind == "mem_req" and int(mid) == 0 and now < 1.0 else None
        )
        cluster = _cluster(DiskPaxos(), latency=slow_write)
        applied = []
        apply = Memory.apply

        def recording(memory, pid, op):
            applied.append((int(memory.mid), type(op).__name__, cluster.kernel.now))
            return apply(memory, pid, op)

        with mock.patch.object(Memory, "apply", recording):
            result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay == 4.0
        assert sorted(applied) == [
            (0, "SnapshotOp", 4.5), (0, "WriteOp", 2.5),
            (1, "SnapshotOp", 3.0), (1, "WriteOp", 1.0),
            (2, "SnapshotOp", 3.0), (2, "WriteOp", 1.0),
        ]

    def test_aligned_round_completes_on_a_mixed_majority(self):
        # Memories 0 and 1 down: the four live agents of six are the three
        # processes and memory 2, so each quorum of four mixes the process
        # replies with memory 2's leg, all on the one ``node.wake`` gate.
        posted = []
        post_legs = AlignedNode._post_legs

        def recording(node, op):
            legs = yield from post_legs(node, op)
            posted.append(legs)
            return legs

        cluster = _cluster(
            AlignedPaxos(AlignedConfig(variant="disk")), crashed_memories=(0, 1)
        )
        with mock.patch.object(AlignedNode, "_post_legs", recording):
            result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay == 4.0
        assert len(posted) == 2  # phase 1 and phase 2 of one attempt
        for legs in posted:
            assert [leg.fired for leg in legs] == [False, False, True]
            assert legs[2].results[0].ok

    def test_a_hung_leg_never_wakes_the_proposer(self):
        # Disk 2 is down.  The round's gate is pulsed once per fired leg:
        # two writes at t=2, two read-backs at t=4, which close the round;
        # disk 2's write leg never completes, so it never pulses and its
        # read-back is never posted.
        pulses = []
        pulse_gate = Kernel.pulse_gate
        cluster = _cluster(DiskPaxos(), crashed_memories=(2,))

        def recording(kernel, gate):
            if gate.name.startswith("dp-"):
                pulses.append(kernel.now)
            return pulse_gate(kernel, gate)

        with mock.patch.object(Kernel, "pulse_gate", recording):
            result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed
        assert result.earliest_decision_delay == 4.0
        assert pulses == [2.0, 2.0, 4.0, 4.0]
