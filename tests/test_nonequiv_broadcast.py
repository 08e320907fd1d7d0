"""Non-equivocating broadcast: the three properties of Definition 1."""

from repro.broadcast.nonequivocating import (
    NonEquivocatingBroadcast,
    make_unit,
    neb_regions,
    unit_valid,
)
from repro.failures.byzantine import EquivocatingBroadcaster
from repro.mem.operations import WriteOp
from repro.types import MemoryId, ProcessId

from tests.conftest import env_of, make_kernel


def _kernel(n=3, m=3, **kw):
    return make_kernel(n, m, regions=neb_regions(range(n)), **kw)


def _wire(kernel, n):
    """One broadcast endpoint per process, delivery daemons running."""
    endpoints = []
    for p in range(n):
        env = env_of(kernel, p)
        neb = NonEquivocatingBroadcast(env)
        kernel.spawn(p, "neb", neb.delivery_daemon())
        endpoints.append((env, neb))
    return endpoints


class TestProperty1Delivery:
    def test_broadcast_reaches_all_correct_processes(self):
        kernel = _kernel()
        endpoints = _wire(kernel, 3)
        env0, neb0 = endpoints[0]

        def sender():
            yield from neb0.broadcast("m1")

        kernel.spawn(0, "send", sender())
        kernel.run(until=200)
        for _, neb in endpoints:
            assert [(d.sender, d.k, d.payload) for d in neb.delivered] == [
                (ProcessId(0), 1, "m1")
            ]

    def test_sequence_numbers_deliver_in_order(self):
        kernel = _kernel()
        endpoints = _wire(kernel, 3)
        env0, neb0 = endpoints[0]

        def sender():
            for i in range(5):
                yield from neb0.broadcast(f"m{i}")

        kernel.spawn(0, "send", sender())
        kernel.run(until=500)
        received = [d.payload for d in endpoints[2][1].delivered]
        assert received == [f"m{i}" for i in range(5)]

    def test_delivery_with_memory_crash(self):
        kernel = _kernel(m=3)
        kernel.crash_memory(MemoryId(1))
        endpoints = _wire(kernel, 3)
        _, neb0 = endpoints[0]

        def sender():
            yield from neb0.broadcast("resilient")

        kernel.spawn(0, "send", sender())
        kernel.run(until=300)
        assert endpoints[1][1].delivered[0].payload == "resilient"

    def test_two_broadcasters_interleave(self):
        kernel = _kernel()
        endpoints = _wire(kernel, 3)

        def sender(neb, tag):
            def gen():
                yield from neb.broadcast(f"{tag}-a")
                yield from neb.broadcast(f"{tag}-b")
            return gen()

        kernel.spawn(0, "s0", sender(endpoints[0][1], "p0"))
        kernel.spawn(1, "s1", sender(endpoints[1][1], "p1"))
        kernel.run(until=500)
        delivered = {(int(d.sender), d.k): d.payload for d in endpoints[2][1].delivered}
        assert delivered == {
            (0, 1): "p0-a",
            (0, 2): "p0-b",
            (1, 1): "p1-a",
            (1, 2): "p1-b",
        }


class TestProperty2NoEquivocation:
    def test_split_replica_writes_never_deliver_conflicting_values(self):
        kernel = _kernel()
        kernel.mark_byzantine(ProcessId(0))
        endpoints = [None]
        for p in range(1, 3):
            env = env_of(kernel, p)
            neb = NonEquivocatingBroadcast(env)
            kernel.spawn(p, "neb", neb.delivery_daemon())
            endpoints.append((env, neb))

        strategy = EquivocatingBroadcaster("A", "B")
        for name, gen in strategy.tasks(env_of(kernel, 0), None):
            kernel.spawn(0, name, gen)
        kernel.run(until=500)

        values_1 = {d.payload for d in endpoints[1][1].delivered}
        values_2 = {d.payload for d in endpoints[2][1].delivered}
        # Either nobody delivers (mixed replica read -> ⊥) or everybody
        # delivers the same value; never conflicting deliveries.
        assert len(values_1 | values_2) <= 1

    def test_direct_conflicting_witness_copies_block_delivery(self):
        # A Byzantine broadcaster writes value A to its own slot, but a
        # colluding witness plants a *validly signed* B copy: the honest
        # reader must detect the equivocation and never deliver.
        kernel = _kernel()
        kernel.mark_byzantine(ProcessId(0))
        kernel.mark_byzantine(ProcessId(1))
        env0 = env_of(kernel, 0)
        env2 = env_of(kernel, 2)
        neb2 = NonEquivocatingBroadcast(env2)
        kernel.spawn(2, "neb", neb2.delivery_daemon())

        def byzantine_pair():
            unit_a = make_unit(env0, 1, "A")
            unit_b = make_unit(env0, 1, "B")  # signed by 0: 0 equivocates
            # Colluder 1 writes unit_b into ITS witness slot; since unit_b
            # is signed by 0, the kernel permits it in region neb:1.
            write = WriteOp("neb:0", ("neb", 0, 1, 0), unit_a)
            yield env0.fanout_to_all(write, need=0)
            yield env0.sleep(1.0)

        def colluder():
            env1 = env_of(kernel, 1)
            unit_b = make_unit(env0, 1, "B")
            write = WriteOp("neb:1", ("neb", 1, 1, 0), unit_b)
            yield env1.fanout_to_all(write, need=0)
            yield env1.sleep(1.0)

        kernel.spawn(0, "byz0", byzantine_pair())
        kernel.spawn(1, "byz1", colluder())
        kernel.run(until=500)
        assert neb2.delivered == []
        assert ProcessId(0) in neb2.convicted


class TestProperty3Authenticity:
    def test_unsigned_junk_is_never_delivered(self):
        kernel = _kernel()
        kernel.mark_byzantine(ProcessId(0))
        env0 = env_of(kernel, 0)
        env1 = env_of(kernel, 1)
        neb1 = NonEquivocatingBroadcast(env1)
        kernel.spawn(1, "neb", neb1.delivery_daemon())

        def junk_writer():
            write = WriteOp("neb:0", ("neb", 0, 1, 0), "raw-junk")
            yield env0.fanout_to_all(write, need=0)
            yield env0.sleep(1.0)

        kernel.spawn(0, "junk", junk_writer())
        kernel.run(until=300)
        assert neb1.delivered == []

    def test_wrong_sequence_number_rejected(self):
        kernel = _kernel()
        env0 = env_of(kernel, 0)
        unit = make_unit(env0, 5, "m")
        assert not unit_valid(env0, ProcessId(0), unit, 1)
        assert unit_valid(env0, ProcessId(0), unit, 5)

    def test_wrong_signer_rejected(self):
        kernel = _kernel()
        env0 = env_of(kernel, 0)
        unit = make_unit(env0, 1, "m")
        assert not unit_valid(env0, ProcessId(1), unit, 1)

    def test_self_delivery(self):
        kernel = _kernel()
        env0 = env_of(kernel, 0)
        neb0 = NonEquivocatingBroadcast(env0)
        kernel.spawn(0, "neb", neb0.delivery_daemon())

        def sender():
            yield from neb0.broadcast("to-myself")

        kernel.spawn(0, "send", sender())
        kernel.run(until=100)
        assert [d.payload for d in neb0.delivered] == ["to-myself"]
