"""Kernel edge cases and error paths."""

import random

import pytest

from repro.crypto.signatures import SignatureAuthority
from repro.errors import SimulationError
from repro.mem import operations as mem_operations
from repro.mem.memory import _OP_HANDLERS, Memory
from repro.mem.operations import BatchOp, ReadOp
from repro.obs.runtime import attach
from repro.sim import effects, event_queue, faults
from repro.sim.faults import _FK_HANDLERS
from repro.sim.kernel import Kernel, SimConfig
from repro.sim.schedule import EV_NAMES
from repro.types import MemoryId, ProcessId

from tests.conftest import env_of, make_kernel, run_single


class TestConfigValidation:
    def test_zero_processes_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(n_processes=0)

    def test_negative_memories_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(n_processes=1, n_memories=-1)

    def test_memoryless_system_allowed(self):
        # The pure message-passing special case of Section 3.
        kernel = Kernel(SimConfig(n_processes=2, n_memories=0))
        assert kernel.memories == []


def _kinds(module, prefix):
    """``{value: name}`` of a module's ``EV_*`` / ``FX_*`` constants."""
    return {
        value: name
        for name, value in vars(module).items()
        if name.startswith(prefix) and isinstance(value, int)
    }


class TestDispatchTables:
    """The kind constants, the name table and every handler table agree:
    each table is a flat tuple indexed by kind, so a renumbering that
    misses one of them dispatches to the wrong handler."""

    def test_event_kinds_match_names_and_handlers(self):
        handlers = Kernel._ev_handlers
        kinds = _kinds(event_queue, "EV_")
        assert sorted(kinds) == list(range(len(handlers)))
        assert len(EV_NAMES) == len(handlers)
        for kind, name in kinds.items():
            assert EV_NAMES[kind] == name[len("EV_"):].lower()
            assert handlers[kind].__name__ == "_ev_" + EV_NAMES[kind]

    def test_effect_kinds_match_handlers(self):
        handlers = Kernel._fx_handlers
        kinds = _kinds(effects, "FX_")
        assert sorted(kinds) == list(range(len(handlers)))
        for kind, name in kinds.items():
            assert handlers[kind].__name__ == "_fx_" + name[len("FX_"):].lower()

    def test_memory_op_kinds_match_handlers(self):
        kinds = _kinds(mem_operations, "OP_")
        assert sorted(kinds) == list(range(len(_OP_HANDLERS)))
        for kind, name in kinds.items():
            # a floor-filtered snapshot is served by the snapshot handler
            expected = "snapshot" if name == "OP_READ_SNAPSHOT" else name[3:].lower()
            assert _OP_HANDLERS[kind] is getattr(Memory, "_" + expected)

    def test_fault_kinds_match_handlers(self):
        kinds = _kinds(faults, "FK_")
        assert sorted(kinds) == list(range(len(_FK_HANDLERS)))
        for kind, name in kinds.items():
            assert _FK_HANDLERS[kind].__name__ == "_fk_" + name[3:].lower()

    def test_tables_belong_to_the_class_not_the_instance(self):
        # a fresh kernel, memory or failure controller binds no handler
        kernel = Kernel(SimConfig(n_processes=1, n_memories=1))
        assert not any(
            isinstance(value, (list, tuple)) and value and callable(value[0])
            for obj in (kernel, kernel.memories[0], kernel.failures)
            for value in vars(obj).values()
        )


class TestLazyServices:
    """The seeded RNG and the signature authority are built on first use,
    from the same seed, so a run that draws or signs sees exactly what an
    eagerly built one would."""

    SEED = 17

    def _cluster(self):
        from repro import Cluster, ClusterConfig, ProtectedMemoryPaxos

        return Cluster(
            ProtectedMemoryPaxos(), ClusterConfig(n_processes=3, seed=self.SEED)
        )

    def test_built_cluster_holds_neither(self):
        state = vars(self._cluster().kernel)
        assert "rng" not in state and "authority" not in state

    def test_a_clean_pmp_run_never_builds_them(self):
        cluster = self._cluster()
        result = cluster.run(["a", "b", "c"])
        assert result.agreed
        state = vars(cluster.kernel)
        assert "rng" not in state and "authority" not in state

    def test_first_draw_is_the_seeded_stream(self):
        kernel = self._cluster().kernel
        eager = random.Random(self.SEED)
        assert [kernel.rng.random() for _ in range(3)] == [
            eager.random() for _ in range(3)
        ]
        assert kernel.rng is kernel.rng

    def test_lazy_authority_signs_like_an_eager_one(self):
        kernel = self._cluster().kernel
        eager = SignatureAuthority(seed=self.SEED)
        payload = ("ballot", 3, "value")
        lazy = kernel.authority
        tag = lazy.sign(lazy.key_for(ProcessId(1)), payload).signature.tag
        assert tag == eager.sign(eager.key_for(ProcessId(1)), payload).signature.tag
        assert kernel.authority is lazy


class TestInvalidOperations:
    def test_op_on_missing_memory_raises(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            yield from env.read(9, "r", ("x", "k"))

        kernel.spawn(0, "bad", gen())
        with pytest.raises(SimulationError):
            kernel.run(until=10)

    def test_yielding_garbage_raises(self, kernel):
        def gen():
            yield "not-an-effect"

        kernel.spawn(0, "bad", gen())
        with pytest.raises(SimulationError):
            kernel.run(until=10)

    def test_time_never_goes_backwards(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            yield env.sleep(5.0)
            return env.now

        task = run_single(kernel, 0, gen())
        assert task.result == 5.0
        assert kernel.now >= 5.0


class TestSamePidMultipleTasks:
    def test_tasks_share_inbox(self, kernel):
        env = env_of(kernel, 0)
        got = []

        def producer():
            yield env.send(0, "one", topic="q")
            yield env.send(0, "two", topic="q")

        def consumer(tag):
            msg = yield from env.recv(topic="q")
            got.append((tag, msg.payload))

        kernel.spawn(0, "p", producer())
        kernel.spawn(0, "c1", consumer("c1"))
        kernel.spawn(0, "c2", consumer("c2"))
        kernel.run(until=50)
        # Each message consumed exactly once across the two consumers.
        assert sorted(p for _tag, p in got) == ["one", "two"]

    def test_crash_kills_all_tasks_of_process(self, kernel):
        env = env_of(kernel, 0)
        ticks = []

        def ticker(tag):
            while True:
                yield env.sleep(1.0)
                ticks.append((tag, env.now))

        kernel.spawn(0, "t1", ticker("a"))
        kernel.spawn(0, "t2", ticker("b"))
        kernel.call_at(2.5, lambda: kernel.crash_process(ProcessId(0)))
        kernel.run(until=20)
        assert all(t <= 2.5 for _tag, t in ticks)


class TestTimeoutRaces:
    def test_timeout_and_delivery_same_instant(self, kernel):
        """A message arriving exactly at the timeout instant: the receiver
        gets exactly one of the two outcomes, never both / neither."""
        env0, env1 = env_of(kernel, 0), env_of(kernel, 1)

        def sender():
            yield env0.sleep(4.0)
            yield env0.send(1, "late", topic="t")  # arrives at t=5

        def receiver():
            msg = yield from env1.recv(topic="t", timeout=5.0)
            return msg.payload if msg else "timeout"

        kernel.spawn(0, "s", sender())
        task = run_single(kernel, 1, receiver())
        assert task.result in ("late", "timeout")

    def test_stale_timer_does_not_rewake(self, kernel):
        env = env_of(kernel, 0)
        wakes = []

        def gen():
            msg = yield from env.recv(topic="t", timeout=10.0)
            wakes.append(msg)
            yield env.sleep(20.0)  # survive past the stale timer
            wakes.append("after")

        def sender():
            yield env.send(0, "fast", topic="t")

        kernel.spawn(1, "s", sender())
        kernel.spawn(0, "r", gen())
        kernel.run(until=100)
        assert len(wakes) == 2
        assert wakes[1] == "after"

    def test_fanout_needing_nothing_resumes_immediately(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            state = yield env.fanout_to_all(ReadOp("r", ("x", "k")), need=0)
            return (state.fired, env.now)

        task = run_single(kernel, 0, gen())
        assert task.result == (True, 0.0)

    def test_unreachable_fanout_quorum_is_a_typed_error_not_a_hang(self):
        def gen(env, **kwargs):
            yield env.fanout_to_all(ReadOp("r", ("x", "k")), **kwargs)

        kernel = make_kernel()
        kernel.spawn(0, "bad", gen(env_of(kernel, 0), need=4))
        with pytest.raises(SimulationError, match="could never wake"):
            kernel.run(until=10)
        # With a timeout the same fan-out is legal: the timer wakes it.
        kernel = make_kernel()
        task = run_single(kernel, 0, gen(env_of(kernel, 0), need=4, timeout=3.0))
        assert task.done

    def test_empty_chain_rejected_at_construction(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchOp(())


class TestMetricsPlumbing:
    def test_message_and_op_counters(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            yield env.send(1, "x", topic="t")
            yield from env.write(0, "r", ("x", "k"), 1)
            yield from env.read(0, "r", ("x", "k"))

        run_single(kernel, 0, gen())
        assert kernel.metrics.total_messages() == 1
        assert kernel.metrics.mem_ops[(ProcessId(0), "WriteOp")] == 1
        assert kernel.metrics.mem_ops[(ProcessId(0), "ReadOp")] == 1

    def test_trace_records_lifecycle(self):
        kernel = make_kernel()
        runtime = attach(kernel, profile=False)
        env = env_of(kernel, 0)

        def gen():
            yield env.send(1, "x", topic="t")
            yield from env.write(0, "r", ("x", "k"), 1)

        run_single(kernel, 0, gen())
        # spawn..task_done, send..deliver, invoke..op_result: one span each;
        # a single-memory write is a one-target fan-out, so its completion
        # also records the fan-out's verdict point
        assert [(s.kind, s.name, s.start, s.end) for s in runtime.spans] == [
            ("msg", "msg:t", 0.0, 1.0),
            ("memop", "WriteOp", 0.0, 2.0),
            ("point", "fanout.verdict", 2.0, 2.0),
            ("task", "test-task", 0.0, 2.0),
        ]
