"""Parallel simulation: conservative barriers, fabric, cross-W determinism.

The contract under test (see ``repro.sim.parallel``):

* **sequential equivalence** — one cell under the parallel driver with a
  deadline is bit-identical (trace hash, clock, event count) to the same
  kernel run directly with ``run(until=...)``;
* **worker-count invariance** — per-cell trace hashes, final KV digests
  and every summary figure are identical for W = 1, 2, 4 ... on the same
  cell layout, including under chaos + live reconfiguration, because
  barriers and the fabric merge are pure functions of the cells' own
  executions;
* **mode invariance** — fork mode (real OS processes) produces the same
  hashes, counters and round count as inline mode;
* **one loop, two transports** — both modes report the same result
  fields (virtual time, rounds, goal, a printable projection) and
  refuse a run that could never stop;
* **gateway at-most-once** — duplicate fabric requests are answered from
  the done table or absorbed by the in-flight guard, never re-applied.

Satellite: a quorum read never amplifies an unconfirmed watermark — a
failed commit chain's minority residue is neither served nor written back.
"""

import pytest

from repro import (
    ElasticConfig,
    ElasticKV,
    FaultScript,
    OperationMix,
    SplitShard,
    UniformKeys,
)
from repro.consensus.probes import watermark_key
from repro.mem.layout import MemoryLayout
from repro.shard.gateway import (
    GATEWAY_TOPIC,
    CellRouter,
    RemoteClient,
    client_cell_factory,
    gateway_reply_topic,
    kv_state_digest,
    service_cell_factory,
    spawn_gateway,
)
from repro.sim.environment import ProcessEnv
from repro.sim.kernel import EV_DELIVER, Kernel, SimConfig
from repro.sim.parallel import Cell, FabricPort, ParallelKernel
from repro.smr.kv import KVCommand, KVStateMachine
from repro.smr.log import ReplicatedLog, SmrConfig, smr_regions, smr_rx_regions
from repro.net.messages import Envelope
from repro.sim import run_hash
from repro.types import BOTTOM, ProcessId


def bare_kernel(n_processes=1, seed=0):
    return Kernel(
        SimConfig(n_processes=n_processes, n_memories=0, seed=seed),
        MemoryLayout([]),
    )


# ----------------------------------------------------------------------
# barrier primitives
# ----------------------------------------------------------------------
class TestBarrierPrimitives:
    def test_idle_before_and_next_time(self):
        kernel = bare_kernel()
        assert kernel.queue.idle_before(5.0)
        assert kernel.queue.next_time() is None
        env = ProcessEnv(kernel, ProcessId(0))
        kernel.spawn(0, "t", (None for _ in ()))  # scheduled start at t=0
        assert not kernel.queue.idle_before(5.0)
        assert kernel.queue.next_time() == 0.0
        kernel.run(until=0.0)
        kernel.queue.push(7.0, EV_DELIVER, Envelope(
            ProcessId(0), ProcessId(0), "x", None, 0.0))
        assert kernel.queue.idle_before(7.0)
        assert not kernel.queue.idle_before(7.5)
        assert kernel.queue.next_time() == 7.0

    def test_inject_delivers_and_counts(self):
        kernel = bare_kernel()
        env = ProcessEnv(kernel, ProcessId(0))
        got = []

        def task():
            e = yield from env.recv(topic="fab")
            got.append(e.payload)

        kernel.spawn(0, "t", task())
        kernel.inject(
            Envelope(ProcessId(0), ProcessId(0), "fab", "hello", 0.0), arrival=3.0
        )
        assert kernel.network.injected == 1
        kernel.run(until=10.0)
        assert got == ["hello"]

    def test_inject_coerces_an_int_arrival(self):
        kernel = bare_kernel()
        kernel.inject(Envelope(ProcessId(0), ProcessId(0), "fab", None, 0.0), arrival=3)
        kernel.run(until=10.0)
        assert kernel.now == 3.0 and type(kernel.now) is float

    def test_inject_into_the_past_raises(self):
        kernel = bare_kernel()
        kernel.inject(Envelope(ProcessId(0), ProcessId(0), "fab", None, 0.0), arrival=5.0)
        kernel.run(until=10.0)
        assert kernel.now == 5.0
        with pytest.raises(ValueError):
            kernel.inject(
                Envelope(ProcessId(0), ProcessId(0), "fab", None, 0.0),
                arrival=4.0,
            )

    def test_lookahead_comes_from_the_latency_model(self):
        kernel = bare_kernel()
        assert kernel.config.latency.lookahead() == \
            kernel.config.latency.cross_partition_delay
        kernel.config.latency.cross_partition_delay = 0.0
        with pytest.raises(ValueError):
            kernel.config.latency.lookahead()

    def test_fabric_port_stamps_arrival_and_sequence(self):
        kernel = bare_kernel()
        port = FabricPort(0, lookahead=2.5)
        port.bind(kernel)
        port.post(1, 0, "t", "a")
        port.post(1, 0, "t", "b")
        port.post(2, 3, "u", "c")
        entries = port.drain()
        assert port.outbox == [] and port.posted == 3
        assert [e[:4] for e in entries] == [
            (2.5, 0, 1, 1), (2.5, 0, 1, 2), (2.5, 0, 2, 1)]


# ----------------------------------------------------------------------
# sequential equivalence and cross-worker determinism
# ----------------------------------------------------------------------
def _traffic_kernel(seed=42):
    """A bare kernel with message traffic, as one self-contained cell."""
    kernel = bare_kernel(n_processes=3, seed=seed)
    envs = [ProcessEnv(kernel, ProcessId(p)) for p in range(3)]

    def pinger(p):
        env = envs[p]
        for i in range(15):
            yield env.send((p + 1) % 3, (p, i), topic="ring")
            yield from env.recv(topic="ring", timeout=50.0)

    for p in range(3):
        kernel.spawn(p, f"p{p}", pinger(p))
    return kernel


def _fingerprint(kernel):
    return (run_hash(kernel), kernel.now, kernel.queue.popped)


class TestSequentialEquivalence:
    def test_w1_is_bit_identical_to_the_plain_kernel(self):
        sequential = _traffic_kernel()
        sequential.run(until=500.0)

        driver = ParallelKernel(
            [lambda port: Cell(0, _traffic_kernel())], workers=1
        )
        driver.run(deadline=500.0)
        assert _fingerprint(driver.cells[0].kernel) == _fingerprint(sequential)


def _request_echo_factories(n=12):
    """Cell 0 sends *n* requests across the fabric; cell 1 echoes."""

    def requester(port):
        kernel = bare_kernel(seed=0)
        env = ProcessEnv(kernel, ProcessId(0))
        state = {"got": 0}

        def task():
            for i in range(n):
                port.post(1, 0, "ping", ("hi", i))
                yield from env.recv(topic="pong")
                state["got"] += 1

        kernel.spawn(0, "req", task())
        return Cell(0, kernel, goal=lambda: state["got"] >= n)

    def echoer(port):
        kernel = bare_kernel(seed=1)
        env = ProcessEnv(kernel, ProcessId(0))

        def task():
            while True:
                e = yield from env.recv(topic="ping")
                port.post(0, 0, "pong", e.payload)

        kernel.spawn(0, "echo", task())
        return Cell(1, kernel)

    return [requester, echoer]


def _draining_factories():
    """The request/echo pair without a goal: a run ends when both drain."""

    def goalless(factory):
        def build(port):
            cell = factory(port)
            cell.goal = None
            return cell

        return build

    return [goalless(factory) for factory in _request_echo_factories()]


def _digest(driver):
    """Everything the determinism contract compares, in one value."""
    report = driver.run_report()
    summaries = {
        cell: {k: v for k, v in s.items()}
        for cell, s in report["cells"].items()
    }
    return report["combined_hash"], summaries, report["run"]["rounds"]


class TestCrossWorkerDeterminism:
    def test_inline_and_fork_agree_on_the_fabric_workload(self):
        outcomes = []
        for workers, mode in ((1, "inline"), (2, "inline"), (2, "fork")):
            driver = ParallelKernel(
                _request_echo_factories(), workers=workers, mode=mode
            )
            result = driver.run()
            assert result.goal_met, (workers, mode)
            assert "projected=" in repr(result), (workers, mode)
            outcomes.append(_digest(driver))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_a_drained_run_reports_one_outcome_in_both_modes(self):
        outcomes = []
        for workers, mode in ((1, "inline"), (8, "inline"), (1, "fork"), (2, "fork")):
            driver = ParallelKernel(
                _draining_factories(), workers=workers, mode=mode
            )
            result = driver.run(deadline=10_000.0)
            assert result.workers == min(workers, 2)  # clamped to the cells
            outcomes.append((result.virtual_time, result.rounds, result.goal_met))
        assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]
        assert outcomes[0][0] > 0.0  # the last cell's clock, not the +inf floor

    @pytest.mark.parametrize("mode", ["inline", "fork"])
    def test_a_run_that_could_never_stop_is_refused(self, mode):
        driver = ParallelKernel(_draining_factories(), workers=2, mode=mode)
        with pytest.raises(ValueError, match="deadline or at least one cell goal"):
            driver.run()

    @staticmethod
    def _mixed_factories(seed=11, n_clients=6, ops=40):
        """Two ElasticKV cells under chaos + a live split, remote clients."""
        service_cells = [0, 1]
        router = CellRouter(service_cells)
        mix = OperationMix(read_fraction=0.5)
        keys = UniformKeys(48)

        def make_service(cell):
            def build():
                script = FaultScript()
                script.at(150.0).crash_process(1).recover(at=250.0)
                service = ElasticKV(
                    ElasticConfig(
                        n_shards=2, n_processes=3, batch_max=4,
                        seed=seed + cell, retry_timeout=25.0,
                        deadline=10.0**7, faults=script,
                    )
                )
                service.schedule_reconfig(120.0, SplitShard())
                return service

            return build

        factories = [
            service_cell_factory(cell, make_service(cell))
            for cell in service_cells
        ]

        def clients():
            return [
                RemoteClient(
                    client_id=i, n_ops=ops, keys=keys, mix=mix,
                    route=router.cell_for, pid=i % 3,
                )
                for i in range(n_clients)
            ]

        factories.append(
            client_cell_factory(2, clients, n_processes=3, seed=seed + 100)
        )
        return factories, n_clients * ops

    #: the mixed workload drains by about t=430 on seeds 0..2 and 11; a
    #: run still going at this bound lost a request (say, to a broken
    #: leader recovery) and fails here instead of resending for ever
    MIXED_DEADLINE = 5_000.0

    def _mixed_digest(self, workers, seed=11, mode="inline"):
        factories, total = self._mixed_factories(seed=seed)
        driver = ParallelKernel(factories, workers=workers, mode=mode)
        result = driver.run(deadline=self.MIXED_DEADLINE)
        assert result.goal_met, f"W={workers} {mode} seed={seed}"
        digest = _digest(driver)
        completed = sum(
            s["summary"]["completed"]
            for s in digest[1].values()
            if s["summary"] and "completed" in s["summary"]
        )
        assert completed == total
        return digest

    def test_chaos_plus_reconfig_is_worker_count_invariant(self):
        reference = self._mixed_digest(1)
        # the mixed workload exercises what it claims: both services
        # split (3 shards) and every cell saw fabric traffic
        shards = [
            s["summary"]["shards"]
            for s in reference[1].values()
            if s["summary"] and "shards" in s["summary"]
        ]
        assert shards == [[0, 1, 2], [0, 1, 2]]
        assert all(s["injected"] > 0 for s in reference[1].values())
        for workers, mode in ((2, "inline"), (4, "inline"), (2, "fork")):
            assert self._mixed_digest(workers, mode=mode) == reference, \
                f"W={workers} {mode}"

    def test_seed_sweep(self, seed_sweep):
        """Cross-worker determinism across many seeds (off by default).

        Enable with ``pytest --seed-sweep N``: re-runs the mixed
        chaos + reconfig workload at W=1, and at W=2 both inline and in
        fork mode, for seeds ``0..N-1``.
        """
        if not seed_sweep:
            pytest.skip("enable with --seed-sweep N")
        for seed in range(seed_sweep):
            reference = self._mixed_digest(1, seed=seed)
            for mode in ("inline", "fork"):
                assert self._mixed_digest(2, seed=seed, mode=mode) == \
                    reference, f"seed {seed} diverged at W=2 {mode}"


# ----------------------------------------------------------------------
# the gateway's at-most-once contract
# ----------------------------------------------------------------------
class TestGatewayDedup:
    def test_duplicates_are_absorbed_and_replayed(self):
        from repro import ShardConfig, ShardedKV

        gateway_state = {}

        def service_factory(port):
            service = ShardedKV(
                ShardConfig(n_shards=1, batch_max=4, seed=3, deadline=10.0**7)
            )
            service.cluster.install_faults()
            gateway_state["live"] = spawn_gateway(service, port, pid=0)
            return Cell(
                0, service.kernel, goal=service._converged,
                summarize=lambda: kv_state_digest(service),
            )

        outcome = {}

        def client_factory(port):
            kernel = bare_kernel(seed=9)
            env = ProcessEnv(kernel, ProcessId(0))

            def task():
                request = ("req", 1, 0, 7, 0, "put", "k", "v1")
                # duplicate while in flight: the guard must drop it and
                # exactly one reply may come back
                port.post(0, 0, GATEWAY_TOPIC, request)
                port.post(0, 0, GATEWAY_TOPIC, request)
                first = yield from env.recv(topic=gateway_reply_topic(7))
                second = yield from env.recv(
                    topic=gateway_reply_topic(7), timeout=300.0
                )
                # duplicate after completion: answered from the done table
                port.post(0, 0, GATEWAY_TOPIC, request)
                replay = yield from env.recv(topic=gateway_reply_topic(7))
                check = ("req", 1, 0, 7, 1, "get", "k", None)
                port.post(0, 0, GATEWAY_TOPIC, check)
                read = yield from env.recv(
                    topic=gateway_reply_topic(7),
                    match=lambda e: e.payload[2] == 1,
                )
                outcome.update(
                    first=first.payload, second=second,
                    replay=replay.payload, read=read.payload,
                )

            kernel.spawn(0, "client", task())
            return Cell(
                1, kernel, goal=lambda: "read" in outcome
            )

        driver = ParallelKernel([service_factory, client_factory], workers=2)
        result = driver.run()
        assert result.goal_met
        assert outcome["second"] is None  # in-flight duplicate: dropped
        assert outcome["replay"] == outcome["first"]  # done table replay
        assert outcome["read"][3] == "v1"  # applied exactly once
        assert gateway_state["live"]["requests"] == 4
        # replies counts proxy completions (put + get); the done-table
        # replay re-posts the stored result without running a proxy
        assert gateway_state["live"]["replies"] == 2


# ----------------------------------------------------------------------
# satellite: quorum reads never amplify an unconfirmed watermark
# ----------------------------------------------------------------------
class TestUnconfirmedWatermark:
    @pytest.mark.parametrize("jitter", [0.0, 0.2], ids=["fifo", "jittered"])
    def test_minority_residue_is_neither_served_nor_written_back(self, jitter):
        """Both read shapes — the one-chain FIFO read and the sequential
        rounds non-FIFO models fall back to — refuse a watermark only a
        minority holds, and leave every register as they found it."""
        from repro import JitteredSynchrony, NominalLatency

        latency = JitteredSynchrony(jitter) if jitter else NominalLatency()
        kernel = Kernel(
            SimConfig(n_processes=3, n_memories=3, seed=1, latency=latency),
            MemoryLayout(smr_regions(3) + smr_rx_regions(3)),
        )
        envs = {p: ProcessEnv(kernel, ProcessId(p)) for p in range(3)}
        config = SmrConfig(publish_watermark=True)
        log = ReplicatedLog(
            envs[0], KVStateMachine().apply, config=config, leader_fn=lambda: 0
        )

        def leader():
            for slot in range(3):
                yield from log.propose(slot, KVCommand("put", f"k{slot}", slot))

        kernel.spawn(0, "leader", leader())
        kernel.run(until=1_000.0)
        assert log.applied_upto == 2
        rx = log.rx_region
        leader_register = watermark_key(rx, 0)
        holders = [m for m in kernel.memories if m.peek(leader_register) == 2]
        assert len(holders) >= 2, "the commit chain must reach a majority"
        # strip the register down to a single memory: every quorum view
        # now sees the max watermark unconfirmed (minority residue)
        for memory in holders[1:]:
            memory.drop(leader_register)

        applied = []
        outcome = []

        def reader():
            reader_log = ReplicatedLog(
                envs[2],
                lambda slot, cmd: applied.append((slot, cmd)),
                config=config,
                leader_fn=lambda: 0,
            )
            outcome.append((yield from reader_log.quorum_read()))

        kernel.spawn(2, "reader", reader())
        kernel.run(until=2_000.0)
        assert outcome == [None]  # consensus fallback
        assert applied == []
        assert all(
            m.peek(watermark_key(rx, 2)) is BOTTOM for m in kernel.memories
        )
        assert sum(1 for m in kernel.memories if m.peek(leader_register) == 2) == 1
