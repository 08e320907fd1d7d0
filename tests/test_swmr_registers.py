"""Replicated SWMR registers over fail-prone memories (Section 4.1)."""

from repro.mem.operations import WriteOp
from repro.registers.swmr import (
    ReplicatedRegister,
    ReplicatedSlotArray,
    read_many,
    swmr_regions,
)
from repro.types import MemoryId, OpStatus, is_bottom

from tests.conftest import env_of, make_kernel, run_single


def _kernel(n=3, m=3, **kw):
    return make_kernel(n, m, regions=swmr_regions("s", range(n), range(n)), **kw)


def _reg(owner=0, name="k"):
    return ReplicatedRegister(f"s:{owner}", ("s", owner, name))


class TestBasicOperation:
    def test_write_then_read(self):
        kernel = _kernel()
        env = env_of(kernel, 0)

        def gen():
            status = yield from _reg(0).write(env, "hello")
            assert status is OpStatus.ACK
            value = yield from _reg(0).read(env)
            return value

        task = run_single(kernel, 0, gen())
        assert task.result == "hello"

    def test_reader_is_another_process(self):
        kernel = _kernel()
        env0, env1 = env_of(kernel, 0), env_of(kernel, 1)

        def writer():
            yield from _reg(0).write(env0, 99)

        def reader():
            yield env1.sleep(5.0)
            value = yield from _reg(0).read(env1)
            return value

        kernel.spawn(0, "w", writer())
        task = run_single(kernel, 1, reader())
        assert task.result == 99

    def test_unwritten_reads_bottom(self):
        kernel = _kernel()
        env = env_of(kernel, 1)

        def gen():
            value = yield from _reg(0).read(env)
            return value

        task = run_single(kernel, 1, gen())
        assert is_bottom(task.result)

    def test_write_takes_two_delays(self):
        kernel = _kernel()
        env = env_of(kernel, 0)

        def gen():
            yield from _reg(0).write(env, 1)
            return env.now

        task = run_single(kernel, 0, gen())
        assert task.result == 2.0

    def test_non_owner_write_naks(self):
        kernel = _kernel()
        env = env_of(kernel, 1)

        def gen():
            status = yield from _reg(0).write(env, "stolen")
            return status

        task = run_single(kernel, 1, gen())
        assert task.result is OpStatus.NAK


class TestMemoryFailures:
    def test_tolerates_minority_crash(self):
        kernel = _kernel(m=3)
        kernel.crash_memory(MemoryId(2))
        env = env_of(kernel, 0)

        def gen():
            status = yield from _reg(0).write(env, "survives")
            value = yield from _reg(0).read(env)
            return (status, value)

        task = run_single(kernel, 0, gen())
        assert task.result == (OpStatus.ACK, "survives")

    def test_tolerates_f_of_2f_plus_1(self):
        kernel = _kernel(m=5)
        kernel.crash_memory(MemoryId(0))
        kernel.crash_memory(MemoryId(4))
        env = env_of(kernel, 0)

        def gen():
            yield from _reg(0).write(env, "v")
            value = yield from _reg(0).read(env)
            return value

        task = run_single(kernel, 0, gen())
        assert task.result == "v"

    def test_majority_crash_blocks(self):
        kernel = _kernel(m=3)
        kernel.crash_memory(MemoryId(0))
        kernel.crash_memory(MemoryId(1))
        env = env_of(kernel, 0)
        finished = []

        def gen():
            yield from _reg(0).write(env, "v")
            finished.append(True)

        kernel.spawn(0, "g", gen())
        kernel.run(until=500)
        assert not finished  # correctly blocked: m >= 2f+1 was violated

    def test_stale_replica_is_outvoted(self):
        # A value present on only a crashed-then-recovered minority replica
        # cannot be the read result... here: write lands everywhere, then a
        # replica holding a *different* (attacker-planted) value yields a
        # mixed read view -> the paper's rule returns the unique non-bottom
        # value only when it IS unique.
        kernel = _kernel(m=3)
        env = env_of(kernel, 0)

        def gen():
            yield from _reg(0).write(env, "real")
            # Plant divergence directly (test-only backdoor).
            kernel.memories[0].poke(("s", 0, "k"), "planted")
            value = yield from _reg(0).read(env)
            return value

        task = run_single(kernel, 0, gen())
        assert is_bottom(task.result)  # two distinct values -> ⊥


class TestReadMany:
    def test_parallel_read_of_many_registers(self):
        kernel = _kernel()
        env0, env1, env2 = (env_of(kernel, p) for p in range(3))

        def w(env, owner):
            yield from _reg(owner).write(env, f"v{owner}")

        def reader():
            yield env2.sleep(5.0)
            start = env2.now
            view = yield from read_many(env2, [_reg(0), _reg(1), _reg(2, "k")])
            return (env2.now - start, view)

        kernel.spawn(0, "w0", w(env0, 0))
        kernel.spawn(1, "w1", w(env1, 1))
        kernel.spawn(2, "w2", w(env2, 2))
        task = run_single(kernel, 2, reader())
        elapsed, view = task.result
        assert elapsed == 2.0  # all registers in parallel
        assert view[("s", 0, "k")] == "v0"
        assert view[("s", 1, "k")] == "v1"

    def test_read_many_with_crashed_memory(self):
        kernel = _kernel(m=3)
        kernel.crash_memory(MemoryId(1))
        env = env_of(kernel, 0)

        def gen():
            yield from _reg(0).write(env, "x")
            view = yield from read_many(env, [_reg(0)])
            return view[("s", 0, "k")]

        task = run_single(kernel, 0, gen())
        assert task.result == "x"


class TestSlotArray:
    def test_snapshot_merges_across_memories(self):
        kernel = _kernel()
        env = env_of(kernel, 0)

        def gen():
            yield from ReplicatedRegister("s:0", ("s", 0, "a")).write(env, 1)
            yield from ReplicatedRegister("s:0", ("s", 0, "b")).write(env, 2)
            array = ReplicatedSlotArray("s:0", ("s", 0))
            view = yield from array.snapshot(env)
            return view

        task = run_single(kernel, 0, gen())
        assert task.result == {("s", 0, "a"): 1, ("s", 0, "b"): 2}

    def test_divergent_replica_value_reads_bottom(self):
        kernel = _kernel()
        env = env_of(kernel, 0)

        def gen():
            yield from ReplicatedRegister("s:0", ("s", 0, "a")).write(env, 1)
            # Corrupt a replica that is inside any responding majority: the
            # reader resumes as soon as 2 of 3 snapshots answer, so a value
            # diverging only on the last replica may legally go unseen.
            kernel.memories[1].poke(("s", 0, "a"), "evil")
            array = ReplicatedSlotArray("s:0", ("s", 0))
            view = yield from array.snapshot(env)
            return view

        task = run_single(kernel, 0, gen())
        assert is_bottom(task.result[("s", 0, "a")])
