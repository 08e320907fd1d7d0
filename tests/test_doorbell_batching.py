"""Doorbell batching: fused op chains and single-completion fan-outs.

The chain contract (``mem.operations.BatchOp`` + ``mem.memory._batch``):
sub-ops apply in order, atomically at the chain's arrival instant; the
first NAK aborts the unapplied tail and reports the failing index — RDMA
work-request-chain error semantics.  The pricing contract
(``sim.latency`` + ``sim.kernel``): a chain costs one request leg plus
per-WR issue increments (nominally zero) plus one response leg — N ops,
two delays.  The fan-out contract (``OpFanoutEffect`` +
``sim.futures.FanoutState``): one posted effect, one wake at the verdict.
"""

import pytest

from repro.errors import SimulationError
from repro.mem.operations import (
    BatchOp,
    ChangePermissionOp,
    ReadOp,
    SnapshotOp,
    WriteOp,
)
from repro.mem.permissions import Permission, exclusive_grab_policy
from repro.mem.regions import RegionSpec
from repro.obs.runtime import attach
from repro.obs.whatif import LatencyOverride, ScaleMemory
from repro.types import ChainAbort, MemoryId, ProcessId, is_bottom

from tests.conftest import env_of, make_kernel, run_single


def _fenced_kernel(**overrides):
    """An open region plus an exclusive-writer region p1 holds."""
    regions = [
        RegionSpec("open", ("o",), Permission.open(range(3))),
        RegionSpec(
            "fenced",
            ("f",),
            Permission.exclusive_writer(0, range(3)),
            legal_change=exclusive_grab_policy(range(3)),
        ),
    ]
    return make_kernel(3, 3, regions=regions, **overrides)


class TestChainSemantics:
    def test_chain_applies_in_order(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            result = yield from env.batch(
                0,
                (
                    WriteOp("r", ("x", "k"), "first"),
                    WriteOp("r", ("x", "k"), "second"),
                    ReadOp("r", ("x", "k")),
                ),
            )
            return result

        task = run_single(kernel, 0, gen())
        result = task.result
        assert result.ok
        # ACK value = per-WR values in chain order; the read sees the
        # LATER of the two writes — in-order apply.
        assert result.value[2] == "second"
        assert kernel.memories[0].peek(("x", "k")) == "second"

    def test_chain_costs_one_round(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            yield from env.batch(0, [WriteOp("r", ("x", str(i)), i) for i in range(8)])
            return env.now

        task = run_single(kernel, 0, gen())
        # 8 WRs, one doorbell: request + 8×issue(=0) + response = 2.0,
        # exactly one single op's round trip, landing as one batch.
        assert task.result == 2.0
        assert kernel.memories[0].counts.batches == 1

    def test_read_batch_returns_values_in_request_order(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            yield from env.batch(
                0, [WriteOp("r", ("x", "a"), 10), WriteOp("r", ("x", "b"), 20)]
            )
            result = yield from env.batch(
                0, [ReadOp("r", ("x", "b")), ReadOp("r", ("x", "a"))]
            )
            return result.value

        task = run_single(kernel, 0, gen())
        assert task.result == (20, 10)

    def test_revocation_between_post_and_arrival_aborts_chain(self):
        """p1 posts a chain while p2's permission grab is in flight and
        arrives first: the chain must abort AT THE MEMORY, leaving the
        tail unapplied — asserted on the registers, not the reply."""
        kernel = _fenced_kernel()
        env0 = env_of(kernel, 0)
        env1 = env_of(kernel, 1)
        grab = Permission.exclusive_writer(1, range(3))

        def usurper():
            result = yield from env1.change_permission(0, "fenced", grab)
            assert result.ok

        def leader():
            yield env0.sleep(0.5)  # chain arrives at 1.5, grab at 1.0
            result = yield from env0.batch(
                0,
                (
                    WriteOp("open", ("o", "head"), "landed"),
                    WriteOp("fenced", ("f", "slot"), "stale"),
                    WriteOp("open", ("o", "tail"), "flushed"),
                ),
            )
            return result

        kernel.spawn(ProcessId(1), "usurper", usurper())
        task = kernel.spawn(ProcessId(0), "leader", leader())
        kernel.run(until=100.0)
        result = task.result
        assert not result.ok and result.value.failed_index == 1
        memory = kernel.memories[0]
        assert memory.peek(("o", "head")) == "landed"
        assert is_bottom(memory.peek(("f", "slot")))  # fenced write refused
        assert is_bottom(memory.peek(("o", "tail")))  # tail flushed with it

    def test_chains_do_not_nest(self):
        inner = BatchOp((WriteOp("r", ("x", "k"), 1),))
        with pytest.raises(ValueError):
            BatchOp((inner,))

    def test_chain_footprint_is_region_union(self):
        chain = BatchOp(
            (
                WriteOp("a", ("a", 1), 0),
                ReadOp("b", ("b", 2)),
                WriteOp("a", ("a", 3), 0),
            )
        )
        assert chain.regions == ("a", "b")

    def test_chain_counts_one_batch_many_ops(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            yield from env.batch(0, [WriteOp("r", ("x", str(i)), i) for i in range(5)])

        run_single(kernel, 0, gen())
        assert kernel.memories[0].counts.batches == 1
        # The ledger prices sub-ops individually (A/B comparability with
        # the unbatched path), not one opaque BatchOp.
        assert kernel.metrics.mem_ops[ProcessId(0), "WriteOp"] == 5
        assert (ProcessId(0), "BatchOp") not in kernel.metrics.mem_ops


class TestSingleCompletionFanout:
    def test_fanout_wakes_once_at_majority(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            state = yield env.op_fanout(
                ((mid, WriteOp("r", ("x", "k"), int(mid))) for mid in env.memories),
                need=2,
            )
            return (env.now, state.done, state.acked)

        task = run_single(kernel, 0, gen())
        now, done, acked = task.result
        assert now == 2.0  # one round; the verdict needs no extra waits
        assert done >= 2 and acked >= 2

    def test_ack_counting_short_circuits_on_naks(self):
        kernel = _fenced_kernel()
        env = env_of(kernel, 1)  # p2: every fenced write NAKs

        def gen():
            state = yield env.fanout_to_all(
                WriteOp("fenced", ("f", "k"), 0),
                need=2,
                count_acks=True,
                spare_naks=1,
            )
            return (state.acked, state.naked)

        task = run_single(kernel, 1, gen())
        acked, naked = task.result
        assert acked == 0
        assert naked == 2  # woke as soon as a majority became impossible

    def test_late_completions_still_recorded_without_rewake(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            state = yield env.fanout_to_all(WriteOp("r", ("x", "k"), 1), need=1)
            woke_at = env.now
            yield env.sleep(50.0)  # let the stragglers land
            return (woke_at, state.done, state.fired)

        task = run_single(kernel, 0, gen())
        woke_at, done, fired = task.result
        assert woke_at == 2.0
        assert done == 3  # all results filed into the shared state
        assert fired is True

    def test_ack_counting_that_could_park_forever_is_rejected(self):
        kernel = _fenced_kernel()
        env = env_of(kernel, 1)  # p2: every fenced write NAKs

        def gen(**kwargs):
            yield env.fanout_to_all(
                WriteOp("fenced", ("f", "k"), 0), need=2, count_acks=True, **kwargs
            )
            return env.now

        # Three NAKs never exceed three spare ones, and never make two
        # ACKs: every leg would resolve at t=2 with the task still parked.
        kernel.spawn(1, "bad", gen(spare_naks=3))
        with pytest.raises(SimulationError, match="could never wake"):
            kernel.run(until=10)
        # A timer wakes the same fan-out, so it stays legal.
        kernel = _fenced_kernel()
        env = env_of(kernel, 1)
        task = run_single(kernel, 1, gen(spare_naks=3, timeout=5.0))
        assert task.result == 5.0

class TestSegmentedDelivery:
    """``chain_delivery="segmented"``: the same chain, one signalled round
    trip per work request — what the per-op "classic" paths used to spell
    out in protocol code."""

    def test_next_wr_posts_only_after_the_previous_resolves(self):
        kernel = make_kernel(chain_delivery="segmented")
        runtime = attach(kernel, profile=False)
        env = env_of(kernel, 0)

        def gen():
            result = yield from env.batch(
                0, [WriteOp("r", ("x", str(i)), i) for i in range(3)]
            )
            return (env.now, result)

        now, result = run_single(kernel, 0, gen()).result
        assert now == 6.0  # three round trips, not one
        assert result.ok and len(result.value) == 3
        wrs = [s for s in runtime.spans if s.kind == "memop"]
        assert [s.start for s in wrs] == [0.0, 2.0, 4.0]  # posts
        assert [s.end for s in wrs] == [2.0, 4.0, 6.0]  # completions
        # no chain ever reached the memory: three plain writes did
        assert kernel.memories[0].counts.batches == 0
        assert kernel.metrics.mem_ops[ProcessId(0), "WriteOp"] == 3

    @pytest.mark.parametrize("delivery, seen", [("fused", 1), ("segmented", 2)])
    def test_another_process_can_land_between_two_sub_ops(self, delivery, seen):
        kernel = make_kernel(chain_delivery=delivery)
        env0, env1 = env_of(kernel, 0), env_of(kernel, 1)

        def chain():
            result = yield from env0.batch(
                0, (WriteOp("r", ("x", "k"), 1), ReadOp("r", ("x", "k")))
            )
            return result.value[1]

        def intruder():
            yield env1.sleep(1.0)  # arrives at t=2: after WR 0, before WR 1
            yield from env1.write(0, "r", ("x", "k"), 2)

        task = kernel.spawn(0, "chain", chain())
        kernel.spawn(1, "intruder", intruder())
        kernel.run(until=100.0)
        assert task.result == seen

    @pytest.mark.parametrize("delivery", ["fused", "segmented"])
    def test_first_nak_aborts_tail_and_reports_index(self, delivery):
        """Same ChainAbort, same registers, however the chain travelled."""
        kernel = _fenced_kernel(chain_delivery=delivery)
        env = env_of(kernel, 1)  # p2 may not write the fenced region

        def gen():
            result = yield from env.batch(
                0,
                (
                    WriteOp("open", ("o", "before"), 1),
                    WriteOp("fenced", ("f", "blocked"), 2),
                    WriteOp("open", ("o", "after"), 3),
                ),
            )
            return result

        result = run_single(kernel, 1, gen()).result
        assert not result.ok
        assert result.value == ChainAbort(1, (None,))  # only WR 0 completed
        memory = kernel.memories[0]
        assert memory.peek(("o", "before")) == 1  # applied before the NAK
        assert is_bottom(memory.peek(("f", "blocked")))
        assert is_bottom(memory.peek(("o", "after")))  # flushed tail

    @pytest.mark.parametrize("delivery, woke_at", [("fused", 2.0), ("segmented", 4.0)])
    def test_fanout_leg_counts_once_toward_need(self, delivery, woke_at):
        kernel = make_kernel(chain_delivery=delivery)
        kernel.crash_memory(MemoryId(2))
        env = env_of(kernel, 0)
        chain = BatchOp((WriteOp("r", ("x", "s"), 7), WriteOp("r", ("x", "w"), 1)))

        def gen():
            state = yield env.fanout_to_all(chain, need=2)
            return (env.now, state.done, state.acked, state.results[0].value)

        now, done, acked, value = run_single(kernel, 0, gen()).result
        # Segmented, two legs x two WRs complete four times; the verdict
        # still needs two whole chains: the second round trip.
        assert (now, done, acked) == (woke_at, 2, 2)
        assert value == (None, None)  # the chain's ACK tuple either way
        for memory in kernel.memories[:2]:
            assert (memory.peek(("x", "s")), memory.peek(("x", "w"))) == (7, 1)

    @pytest.mark.parametrize(
        "delivery, returned_at, landed",
        [("fused", 2.0, [0, 1, 2]), ("segmented", 6.0, [0])],
    )
    def test_straggler_leg_after_the_issuer_returned(
        self, delivery, returned_at, landed
    ):
        """A leg still in flight when its issuer returned: a fused chain
        lands whole; a segmented one stops at the WR in flight, since the
        next is posted on the returned task's behalf."""
        kernel = make_kernel(
            chain_delivery=delivery,
            latency=LatencyOverride(rules=[ScaleMemory(4.0, mid=1)]),
        )
        env = env_of(kernel, 0)
        chain = BatchOp([WriteOp("r", ("x", str(i)), i) for i in range(3)])

        def gen():
            yield env.fanout_to_all(chain, need=1)
            return env.now

        task = run_single(kernel, 0, gen())
        assert task.result == returned_at
        slow = kernel.memories[1]
        assert [
            i for i in range(3) if not is_bottom(slow.peek(("x", str(i))))
        ] == landed

    def test_crashed_process_posts_no_further_wr(self):
        kernel = make_kernel(chain_delivery="segmented")
        env = env_of(kernel, 0)

        def gen():
            yield from env.batch(0, [WriteOp("r", ("x", str(i)), i) for i in range(3)])

        kernel.spawn(0, "chain", gen())
        # WR 1 is in flight at t=2.5 and still lands; WR 2 is never posted.
        kernel.call_at(2.5, lambda: kernel.crash_process(ProcessId(0)))
        kernel.run(until=100.0)
        memory = kernel.memories[0]
        assert [memory.peek(("x", str(i))) for i in range(2)] == [0, 1]
        assert is_bottom(memory.peek(("x", "2")))


class TestMechanismSwitch:
    def test_fused_and_segmented_reach_the_same_state(self):
        """chain_delivery is a mechanism switch, not a behaviour switch:
        the same scripted commands commit to the same stores either way.
        Quorum reads are on, so the slot+watermark commit chain and the
        chain read both run segmented; each client owns its keys, so the
        final state does not depend on how the slower rounds interleave."""
        from repro.shard import ScriptedClient, ShardConfig, ShardedKV

        def run(chain_delivery: str):
            service = ShardedKV(
                ShardConfig(
                    n_shards=2, batch_max=4, seed=7, read_mode="quorum",
                    deadline=100_000.0,
                )
            )
            service.kernel.config.chain_delivery = chain_delivery
            clients = [
                ScriptedClient(
                    client_id=c,
                    script=[
                        step
                        for r in range(4)
                        for step in (
                            ("put", f"c{c}-k{r % 2}", f"c{c}-r{r}"),
                            ("get", f"c{c}-k{r % 2}", None),
                        )
                    ],
                )
                for c in range(6)
            ]
            report = service.run_workload(clients)
            assert report.ok
            assert service.kernel.metrics.staleness_violations == 0
            return report.elapsed, {
                shard: dict(service.snapshot(shard))
                for shard in range(service.config.n_shards)
            }

        fused_elapsed, fused = run("fused")
        segmented_elapsed, segmented = run("segmented")
        assert fused == segmented
        assert segmented_elapsed > fused_elapsed  # the mechanism did switch
