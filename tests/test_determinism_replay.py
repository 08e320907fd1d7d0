"""Seed-replay determinism under the hot-path engine.

The PR 2 kernel overhaul (typed queue entries, dispatch tables, ready-lane
wakes, direct resumes) must not cost reproducibility: two runs of the same
seed must produce byte-identical schedules.  These tests replay a mixed
crash + Byzantine sharded workload twice and compare a hash over the FULL
execution — every trace event, every decision, all message/op counters —
plus the exact committed state.
"""

import hashlib

from repro.shard import (
    ClosedLoopClient,
    ShardConfig,
    ShardedKV,
    YCSB_A,
    ZipfianKeys,
)
from repro.types import MemoryId


N_CLIENTS = 12
OPS_PER_CLIENT = 4


def _run_mixed(seed: int, scheduler=None):
    """One sharded run: 3 PMP shards + 1 Byzantine (Fast & Robust) shard,
    with a memory crash injected mid-run.  Tracing on, so the returned
    service carries the complete event log.  *scheduler* optionally runs
    the whole workload through the pluggable-scheduler path (the parity
    tests in test_schedule.py assert it changes nothing)."""
    service = ShardedKV(
        ShardConfig(
            n_shards=4,
            batch_max=4,
            seed=seed,
            trace=True,
            bft_shards=(3,),
            bft_max_slots=16,
            deadline=100_000.0,
        )
    )
    service.kernel.scheduler = scheduler
    # Crash one of the three memories mid-run: quorums of 2 still carry
    # every shard, and the crash lands in the schedule deterministically.
    service.kernel.call_at(40.0, lambda: service.kernel.crash_memory(MemoryId(2)))
    clients = [
        ClosedLoopClient(
            client_id=i, n_ops=OPS_PER_CLIENT, keys=ZipfianKeys(64), mix=YCSB_A
        )
        for i in range(N_CLIENTS)
    ]
    report = service.run_workload(clients)
    return service, report


def _trace_hash(service) -> str:
    """Hash the full schedule: every trace event in order, all decisions,
    and the end-of-run counters."""
    kernel = service.kernel
    digest = hashlib.sha256()
    for event in kernel.tracer.events:
        digest.update(str(event).encode())
        digest.update(b"\n")
    for instance, book in sorted(
        kernel.metrics.instance_decisions.items(), key=lambda kv: repr(kv[0])
    ):
        for pid in sorted(book):
            record = book[pid]
            digest.update(
                f"D {instance!r} p{int(pid)} {record.value!r} @{record.decided_at}".encode()
            )
    digest.update(
        (
            f"msgs={sorted(kernel.metrics.messages_sent.items())} "
            f"ops={sorted(kernel.metrics.mem_ops.items())} "
            f"pushed={kernel.queue.pushed} popped={kernel.queue.popped} "
            f"now={kernel.now}"
        ).encode()
    )
    return digest.hexdigest()


def _state_fingerprint(service) -> tuple:
    """The observable outcome: per-shard committed stores and counters."""
    snapshot = tuple(
        tuple(sorted(service.snapshot(shard).items()))
        for shard in range(service.config.n_shards)
    )
    machines = tuple(
        (pid, shard, machine.applied_count, machine.duplicates)
        for (pid, shard), machine in sorted(service.machines.items())
    )
    return snapshot, machines


class TestSeedReplay:
    def test_identical_trace_hash_for_same_seed(self):
        first_service, first_report = _run_mixed(seed=1234)
        second_service, second_report = _run_mixed(seed=1234)

        assert first_report.completed_requests == N_CLIENTS * OPS_PER_CLIENT
        assert first_report.completed_requests == second_report.completed_requests
        assert first_report.elapsed == second_report.elapsed
        assert _trace_hash(first_service) == _trace_hash(second_service)
        assert _state_fingerprint(first_service) == _state_fingerprint(second_service)

    def test_identical_decision_values_and_counters(self):
        first_service, _ = _run_mixed(seed=77)
        second_service, _ = _run_mixed(seed=77)
        first, second = first_service.kernel.metrics, second_service.kernel.metrics

        first_decisions = {
            (repr(instance), int(pid)): record.value
            for instance, book in first.instance_decisions.items()
            for pid, record in book.items()
        }
        second_decisions = {
            (repr(instance), int(pid)): record.value
            for instance, book in second.instance_decisions.items()
            for pid, record in book.items()
        }
        assert first_decisions == second_decisions
        assert first.total_messages() == second.total_messages()
        assert first.total_mem_ops() == second.total_mem_ops()
        assert first.total_signatures() == second.total_signatures()

    def test_different_seeds_diverge(self):
        # The hash is sensitive: different seeds shuffle the Zipfian keys
        # and the whole schedule with them.
        first_service, _ = _run_mixed(seed=1)
        second_service, _ = _run_mixed(seed=2)
        assert _trace_hash(first_service) != _trace_hash(second_service)

    def test_trace_not_truncated(self):
        # The hash covers the FULL schedule only if the tracer kept it all.
        service, _ = _run_mixed(seed=1234)
        assert not service.kernel.tracer.truncated


# ---------------------------------------------------------------------------
# golden default-config hashes
# ---------------------------------------------------------------------------
# Pinned BEFORE the op-issue collapse (one chain primitive + one fan-out,
# classic issue as a kernel delivery mode) and required to survive it
# unchanged: every default-config schedule — trace events, decisions,
# message/op counters, queue totals — is bit-identical across the refactor.
# Tracing is on so the hash covers the full event log, not just totals.
def _single_shot_hash(protocol) -> str:
    from repro.core.cluster import Cluster, ClusterConfig
    from repro.obs.whatif import run_hash

    cluster = Cluster(protocol, ClusterConfig(3, 3, seed=7, trace=True))
    result = cluster.run(["a", "b", "c"])
    assert result.all_decided and result.agreed
    return run_hash(cluster.kernel)


def _kv_hash(service, n_ops: int) -> str:
    from repro.obs.whatif import run_hash

    clients = [
        ClosedLoopClient(client_id=i, n_ops=n_ops, keys=ZipfianKeys(32), mix=YCSB_A)
        for i in range(6)
    ]
    report = service.run_workload(clients)
    assert report.completed_requests == 6 * n_ops
    return run_hash(service.kernel)


def _sharded_kv_hash() -> str:
    return _kv_hash(
        ShardedKV(
            ShardConfig(n_shards=2, batch_max=4, seed=11, trace=True, read_mode="quorum")
        ),
        n_ops=6,
    )


def _elastic_split_hash() -> str:
    """Split then merge, quorum reads, jittered latency: covers the
    non-FIFO sequential read rounds and the merge's tombstone fence."""
    from repro import ElasticConfig, ElasticKV, JitteredSynchrony, MergeShard, SplitShard

    service = ElasticKV(
        ElasticConfig(
            n_shards=2, batch_max=4, seed=5, trace=True, read_mode="quorum",
            latency=JitteredSynchrony(0.2), deadline=100_000.0,
        )
    )
    service.schedule_reconfig(30.0, SplitShard())
    service.schedule_reconfig(120.0, MergeShard(1))
    digest = _kv_hash(service, n_ops=40)
    assert service.epoch.number == 2
    return digest


class TestGoldenHashes:
    def test_pmp_single_shot(self):
        from repro import ProtectedMemoryPaxos

        assert _single_shot_hash(ProtectedMemoryPaxos()) == GOLDEN["pmp"]

    def test_pmp_skip_off(self):
        from repro import PmpConfig, ProtectedMemoryPaxos

        protocol = ProtectedMemoryPaxos(PmpConfig(skip_first_attempt=False))
        assert _single_shot_hash(protocol) == GOLDEN["pmp_skip_off"]

    def test_aligned_both_variants(self):
        from repro.consensus.aligned_paxos import AlignedConfig, AlignedPaxos

        for variant in ("protected", "disk"):
            protocol = AlignedPaxos(AlignedConfig(variant=variant))
            assert _single_shot_hash(protocol) == GOLDEN[f"aligned_{variant}"]

    def test_sharded_kv_two_shards(self):
        assert _sharded_kv_hash() == GOLDEN["sharded_kv_2"]

    def test_elastic_split_under_jitter(self):
        assert _elastic_split_hash() == GOLDEN["elastic_split_jittered"]


GOLDEN = {
    "pmp": "475a18e28da61f1bda0703bd4dbd76a52a99e62075906dc34bd8b544a9a8cf11",
    "pmp_skip_off": "786434c54707a81100f6b19066ae4854d10aba8038872654a1a58309130df8e9",
    "aligned_protected": "b1f9b9dc1e12ecebae7ece06d743ba059a30543d9c79f02c37605e36d11fc957",
    "aligned_disk": "7ed64c378903bd14df2aefa8b29d35f418f4a2993285d213317644e5ceddf9e8",
    "sharded_kv_2": "5caa37585948fd1cd4d7a137c2692a284509d974fd94554961b63a77651d312b",
    "elastic_split_jittered": "6584f4e049d9fd40c5659c64baea16161642a984b8c531889db55a0cd4d5a321",
}
