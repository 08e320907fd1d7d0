"""Seed-replay determinism under the hot-path engine.

The PR 2 kernel overhaul (typed queue entries, dispatch tables, ready-lane
wakes, direct resumes) must not cost reproducibility: two runs of the same
seed must produce byte-identical schedules.  These tests replay a sharded
workload with a memory crash twice, and the Byzantine backend (Fast &
Robust single-shot and the Byzantine replicated log) likewise, and compare
a hash over the FULL execution — every span, every decision, all
message/op counters — plus the exact committed state.
"""

from unittest import mock

import pytest

from repro import FastRobust
from repro.obs.runtime import attach
from repro.sim import run_hash
from repro.sim.schedule import FifoScheduler
from repro.shard import (
    ClosedLoopClient,
    ShardConfig,
    ShardedKV,
    YCSB_A,
    ZipfianKeys,
)
from repro.smr.byzantine_log import ByzantineLogConfig, ByzantineReplicatedLog
from repro.types import MemoryId


N_CLIENTS = 12
OPS_PER_CLIENT = 4


def _run_mixed(seed: int, scheduler=None):
    """One sharded run: 4 shards with a memory crash injected mid-run.
    Obs attached, so the returned service carries the complete span
    stream.  *scheduler* optionally runs the whole workload through the
    pluggable-scheduler path (the parity tests in test_schedule.py assert
    it changes nothing)."""
    service = ShardedKV(
        ShardConfig(n_shards=4, batch_max=4, seed=seed, deadline=100_000.0)
    )
    attach(service.kernel, profile=False)
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
        assert run_hash(first_service.kernel) == run_hash(second_service.kernel)
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
        assert run_hash(first_service.kernel) != run_hash(second_service.kernel)

    def test_trace_not_truncated(self):
        # The hash covers the FULL schedule only if the span ring kept it all.
        service, _ = _run_mixed(seed=1234)
        assert service.kernel.obs.dropped == 0


# ---------------------------------------------------------------------------
# golden default-config hashes
# ---------------------------------------------------------------------------
# Two pins per scenario, both taken on the same schedules:
#
# * ``GOLDEN_DETACHED`` — the ledger's decisions and counters plus
#   ``queue.pushed/popped`` and ``now``.
# * ``GOLDEN_ATTACHED`` — ``attach(kernel, profile=False)``: the full span
#   stream on top of the detached material.
#
# Both were pinned BEFORE the Tracer / ``trace`` option / registry counter
# deletion and survived it: detached identical for all six scenarios,
# attached identical for the five whose fault / reconfig / SLO timelines
# are empty.  ``elastic_split_jittered`` gained one point span per timeline
# record and was re-pinned once (before: 7b5a47b5…7e504 over 2 220 spans),
# and once more for the ``log.recover`` phase the split's new group leader
# opens around its takeover (before: e4880b51…da8b3; with that one span
# suppressed the run still hashes to it); ``_elastic_split_hash`` asserts
# both counts.
#
# The pipelined commit re-pinned the two sharded ATTACHED hashes once, for
# one attribute: a shard leader now parks on its pending gate between
# posting a slot and its verdict, and that park takes a suspension token,
# so every later fan-out of the task — and the ``flow`` id its legs and
# verdict carry — is numbered one higher per slot (before: 18609931…0053
# and d0f68729…40cf).  Neither scenario ever has a full batch waiting
# behind a slot in flight, so every span id, parent, time and other
# attribute is the parent's, as are all six detached pins:
# ``TestDepthOneEquivalence`` pins the parent's span streams minus
# ``flow`` to show exactly that.
#
# The per-memory chain tasks of the prepare / Aligned / Disk Paxos rounds
# became fan-out legs, re-pinning once every scenario that runs one:
# ``pmp_skip_off`` and both ``aligned`` variants (before, detached /
# attached: 576c7b24…6948 / b0981be1…52fd, e5c2a45c…7070 / d743e0c4…5a5a,
# df77fba7…87e5 / 8f1aaef8…9c9c) and ``elastic_split_jittered``, whose
# split group's takeover prepare ran three chain tasks (before:
# ccd5e4be…3221 / 4c14cc58…11a0; its span count lost the three task
# spans and gained one ``fanout.verdict``, 2 220 → 2 218).  The legs post
# at the instant the prepare is issued, so one fewer spawn, task and gate
# pulse per memory; ``pmp`` and ``sharded_kv_2`` never prepare and keep
# their pins.
#
# A task's timer whose wait ended before its armed entry popped is no
# longer pushed (see ``Kernel._arm``), re-pinning once every scenario that
# had one, for its queue totals alone: ``aligned_disk`` (pushed 61 → 55;
# before, detached / attached: fd8325dc…af68 / 27043c37…442b),
# ``sharded_kv_2`` (pushed 407 → 377; before 1b4f0703…21e8 /
# fff9d8a4…0489) and ``elastic_split_jittered`` (pushed / popped 3 715 /
# 3 650 → 3 471 / 3 463; before 6d636ba9…8041 / a17f690d…e2c5).  With
# ``queue.pushed`` and ``popped`` masked all twelve hash as before.
#
# Readers of one shard on one process now share a quorum read until its
# first leg lands (``ReplicatedLog.quorum_read``).  That re-pinned the two
# scenarios in which a reader joins one: ``sharded_kv_2`` (one join; before,
# detached / attached: 6ef55798…57bf / 1dc79db5…62fe) and
# ``elastic_split_jittered`` (six joins on the sequential read path; before
# 7e85ca07…41e1 / 48c9f68a…98a2, its spans 2 218 → 2 163 besides the
# timeline points and the recovery phase), and the depth-one span streams
# of both.  With ``_joinable_read`` patched to join nothing, every pin
# here hashes as before.
#
# Same-instant requests from one frontend to one shard leader now ride
# one message (``ShardFrontend._post``, a ``RequestBundle``).  That
# re-pinned the two scenarios in which a request joins a bundle:
# ``sharded_kv_2_local`` (before, detached / attached: 620a669e…f0bf /
# a0f9d676…50b9) and ``elastic_split_jittered`` (before 8f5f8da4…b780 /
# 474fafab…14b8; one delay draw fewer per joined request reshuffles the
# jittered schedule, so its spans besides the timeline points and the
# recovery phase went 2 163 → 2 205), the depth-one span stream of the
# elastic run, ``TestUnjoinedReads``'s elastic pin and the write-heavy
# smoke's exact fields.  ``TestUnbundledRequests`` posts every request
# alone and gets every one of those pins back.
#
# Single-shot PMP became a one-slot ``ReplicatedLog``, re-pinning the
# two PMP ATTACHED hashes once (before: c9eb6f1a…8824 for ``pmp`` and
# e63dd8c2…32cd for ``pmp_skip_off``).  Every span keeps its time, actor
# and place, but the phases are the log's: ``pmp.prepare`` /
# ``pmp.phase2`` with a ``ballot`` attribute became ``log.prepare`` /
# ``log.phase2`` with ``slot`` (phase 2 also records ``failed``), and the
# followers' listener task spans stay open, as a log's listener never
# returns.  Both detached pins held.
#
# ``sharded_kv_2_leader`` and ``sharded_kv_2_local`` are ``sharded_kv_2``
# with the fenced leader read and the session-floor local read: the
# leader run drives the read intake, the batched fence-probe server and
# the per-process reply pumps (9 ``read.serve`` batches, 13 remote
# replies).  They were pinned before the read plane moved to
# ``shard/reads.py`` and held through the move.
def _golden_hash(kernel, run, attach_obs: bool) -> str:
    """Hash of *run*() on *kernel*; the span ring must not have scrolled."""
    runtime = attach(kernel, profile=False) if attach_obs else None
    run()
    if runtime is not None:
        assert runtime.dropped == 0
    return run_hash(kernel)


def _single_shot_hash(protocol, attach_obs: bool = False, scheduler=None) -> str:
    from repro.core.cluster import Cluster, ClusterConfig

    cluster = Cluster(protocol, ClusterConfig(3, 3, seed=7))
    cluster.kernel.scheduler = scheduler

    def run():
        result = cluster.run(["a", "b", "c"])
        assert result.all_decided and result.agreed

    return _golden_hash(cluster.kernel, run, attach_obs)


def _kv_hash(service, n_ops: int, attach_obs: bool) -> str:
    clients = [
        ClosedLoopClient(client_id=i, n_ops=n_ops, keys=ZipfianKeys(32), mix=YCSB_A)
        for i in range(6)
    ]

    def run():
        report = service.run_workload(clients)
        assert report.completed_requests == 6 * n_ops

    return _golden_hash(service.kernel, run, attach_obs)


def _sharded_kv_hash(attach_obs: bool = False, read_mode: str = "quorum") -> str:
    return _kv_hash(
        ShardedKV(ShardConfig(n_shards=2, batch_max=4, seed=11, read_mode=read_mode)),
        n_ops=6,
        attach_obs=attach_obs,
    )


def _elastic_split_hash(attach_obs: bool = False) -> str:
    """Split then merge, quorum reads, jittered latency: covers the
    non-FIFO sequential read rounds and the merge's tombstone fence."""
    from repro import ElasticConfig, ElasticKV, JitteredSynchrony, MergeShard, SplitShard

    service = ElasticKV(
        ElasticConfig(
            n_shards=2, batch_max=4, seed=5, read_mode="quorum",
            latency=JitteredSynchrony(0.2), deadline=100_000.0,
        )
    )
    service.schedule_reconfig(30.0, SplitShard())
    service.schedule_reconfig(120.0, MergeShard(1))
    digest = _kv_hash(service, n_ops=40, attach_obs=attach_obs)
    assert service.epoch.number == 2
    if attach_obs:
        # The two re-pins: exactly one new point span per timeline record,
        # and one ``log.recover`` phase around the spawned group's takeover.
        runtime, ledger = service.kernel.obs, service.kernel.metrics
        timeline = ledger.fault_timeline + ledger.reconfig_timeline
        assert len(timeline) == 15 and not ledger.slo_timeline
        spans = runtime.spans + runtime.open_spans()
        recoveries = [s for s in spans if s.name == "log.recover"]
        assert [s.attrs for s in recoveries] == [
            {"adopted": 0, "prepares": 1, "windows": 0}
        ]
        assert len(spans) == SPANS_BEFORE_TIMELINE_POINTS + len(timeline) + 1
        points = [s for s in spans if s.kind == "point" and "subject" in (s.attrs or {})]
        assert [(p.start, p.name, p.attrs["subject"]) for p in points] == [
            (r.time, r.kind, r.subject) for r in timeline
        ]
    return digest


def _both_pins(name: str, scenario) -> None:
    assert scenario() == GOLDEN_DETACHED[name]
    assert scenario(attach_obs=True) == GOLDEN_ATTACHED[name]


class TestByzantineReplay:
    """The Byzantine backend under the replay checks: one seed run twice
    gives one hash, and ``FifoScheduler`` gives the default loop's."""

    @pytest.mark.parametrize(
        "make_protocol",
        [
            pytest.param(FastRobust, id="fast_robust"),
            pytest.param(
                lambda: ByzantineReplicatedLog(
                    {0: [("cmd", i) for i in range(3)]}, ByzantineLogConfig(n_slots=3)
                ),
                id="byzantine_log",
            ),
        ],
    )
    def test_seed_replay_and_fifo_parity(self, make_protocol):
        default = _single_shot_hash(make_protocol(), attach_obs=True)
        assert _single_shot_hash(make_protocol(), attach_obs=True) == default
        assert _single_shot_hash(
            make_protocol(), attach_obs=True, scheduler=FifoScheduler()
        ) == default


class TestGoldenHashes:
    def test_pmp_single_shot(self):
        from repro import ProtectedMemoryPaxos

        _both_pins("pmp", lambda **kw: _single_shot_hash(ProtectedMemoryPaxos(), **kw))

    def test_pmp_skip_off(self):
        from repro import PmpConfig, ProtectedMemoryPaxos

        _both_pins(
            "pmp_skip_off",
            lambda **kw: _single_shot_hash(
                ProtectedMemoryPaxos(PmpConfig(skip_first_attempt=False)), **kw
            ),
        )

    def test_aligned_both_variants(self):
        from repro.consensus.aligned_paxos import AlignedConfig, AlignedPaxos

        for variant in ("protected", "disk"):
            _both_pins(
                f"aligned_{variant}",
                lambda **kw: _single_shot_hash(
                    AlignedPaxos(AlignedConfig(variant=variant)), **kw
                ),
            )

    def test_sharded_kv_two_shards(self):
        _both_pins("sharded_kv_2", _sharded_kv_hash)

    def test_sharded_kv_two_shards_fenced_leader_reads(self):
        _both_pins(
            "sharded_kv_2_leader",
            lambda **kw: _sharded_kv_hash(read_mode="leader", **kw),
        )

    def test_sharded_kv_two_shards_local_reads(self):
        _both_pins(
            "sharded_kv_2_local",
            lambda **kw: _sharded_kv_hash(read_mode="local", **kw),
        )

    def test_elastic_split_under_jitter(self):
        _both_pins("elastic_split_jittered", _elastic_split_hash)


def _flow_blind_hash(kernel) -> str:
    """Hash of the span stream with the ``flow`` attribute left out: ids,
    parents, names, actors, exact times and every other attribute."""
    import hashlib

    obs = kernel.obs
    digest = hashlib.sha256()
    for span in list(obs.finished) + obs.open_spans():
        attrs = tuple(
            sorted(
                kv for kv in (span.attrs or {}).items()
                if kv[0] != "flow"
            )
        )
        digest.update(
            repr(
                (span.span_id, span.parent_id, span.trace_id, span.name,
                 span.kind, span.actor, span.start, span.end, attrs)
            ).encode()
        )
    return digest.hexdigest()


class TestDepthOneEquivalence:
    """With ``PIPELINE_DEPTH`` patched to 1 the proposer's completion loop
    IS the one-slot-at-a-time proposer it replaced, and post + settle IS
    the old blocking phase 2: every pin taken before the pipelined commit
    still holds, event for event."""

    def _at_depth_one(self):
        from repro.shard import service

        return mock.patch.object(service, "PIPELINE_DEPTH", 1)

    def test_all_twelve_golden_hashes(self):
        with self._at_depth_one():
            TestGoldenHashes().test_pmp_single_shot()
            TestGoldenHashes().test_pmp_skip_off()
            TestGoldenHashes().test_aligned_both_variants()
            TestGoldenHashes().test_sharded_kv_two_shards()
            TestGoldenHashes().test_elastic_split_under_jitter()

    def test_sharded_span_streams_are_the_parents_but_for_flow_ids(self):
        with self._at_depth_one(), mock.patch(
            f"{__name__}.run_hash", _flow_blind_hash
        ):
            # re-pinned with the golden hashes when readers began to
            # share quorum reads (before: 007c193b…6d00)
            assert _sharded_kv_hash(attach_obs=True) == (
                "2e2d77c59e0f21f6176d16d1eea29733dfff36c0770107ad8ddda252eb1324ed"
            )
            # re-pinned with the golden hashes when chain tasks became
            # fan-out legs (before: cb7f9865…f1ce), when readers began
            # to share quorum reads (before: 581da2da…d5ae), and when
            # same-instant requests began to share a message (before:
            # 816bb26a…44ec)
            assert _elastic_split_hash(attach_obs=True) == (
                "081f3a26fb83557d789dbe712bd9cbe7b6983f78dc2a70c3248cea508b944173"
            )

    def _write_heavy_smoke(self):
        """``kv_write_heavy --smoke`` (benchmarks/e2e), seed 7: the exact,
        seed-pure fields of its one repetition."""
        service = ShardedKV(
            ShardConfig(
                n_shards=4, n_processes=3, n_memories=3, batch_max=8, seed=7,
                deadline=10.0**7,
            )
        )
        clients = [
            ClosedLoopClient(client_id=i, n_ops=50, keys=ZipfianKeys(256), mix=YCSB_A)
            for i in range(96)
        ]
        report = service.run_workload(clients, deadline=10.0**7)
        assert report.ok and not service.replica_divergence()
        ledger = service.kernel.metrics
        return {
            "events": service.kernel.queue.popped,
            "messages": ledger.total_messages(),
            "mem_ops": ledger.total_mem_ops(),
            "virtual_elapsed": report.elapsed,
            "commits": sum(ledger.shard_commits.values()),
            "batches": report.committed_batches,
            "latency_sum": sum(sum(s.latencies) for s in report.shards.values()),
        }

    def test_write_heavy_smoke_exact_fields(self):
        with self._at_depth_one():
            # events: 19 120 while a timer whose wait had ended was
            # still pushed and popped; 16 268 / 4 966 messages / 2 619 mem
            # ops / 450.0 / 873 batches / 37 918.0 while every request
            # posted its own message
            assert self._write_heavy_smoke() == SMOKE_AT_DEPTH_ONE

    def test_write_heavy_smoke_moves_at_depth_two(self):
        # the same run with the pipeline on: fewer, fuller batches, half
        # the queueing — these fields move once, with this constant
        fields = self._write_heavy_smoke()
        assert fields["commits"] == 4800
        assert fields["batches"] < SMOKE_AT_DEPTH_ONE["batches"]
        assert fields["events"] < SMOKE_AT_DEPTH_ONE["events"]
        assert fields["latency_sum"] < 0.6 * SMOKE_AT_DEPTH_ONE["latency_sum"]
        assert fields["virtual_elapsed"] < 0.6 * SMOKE_AT_DEPTH_ONE["virtual_elapsed"]


class TestUnjoinedReads:
    """A quorum read nobody joins posts, parks and wakes exactly as before
    readers shared reads: with joining turned off, the scenarios whose
    pins moved hash to their pins from before."""

    def test_pins_from_before_sharing(self):
        from repro.smr.log import ReplicatedLog

        with mock.patch.object(ReplicatedLog, "_joinable_read", lambda log: None):
            assert _sharded_kv_hash() == (
                "6ef55798b98a1fb347c233fb3dab5bbfb3337b470e41a869da7d92c121a957bf"
            )
            assert _sharded_kv_hash(attach_obs=True) == (
                "1dc79db5d535c5d565a7e28e6441c8fb931348cf8d5df40934b7b3ef7062e1fe"
            )
            # re-pinned when same-instant requests began to share a
            # message (before: 7e85ca07…41e1, which it still hashes to
            # with every request posted alone as well)
            assert _elastic_split_hash() == (
                "f8c86a4b23e6b00b838bd0e5923e25cee084cb6fdd7acbcc5ac1edcfc8666324"
            )


class TestUnbundledRequests:
    """A request nobody joins posts, parks and wakes exactly as before
    requests shared messages: with every request posted in a bundle of
    its own, the scenarios whose pins moved hash to their pins from
    before."""

    @staticmethod
    def _post_alone(frontend, leader, topic, command):
        from repro.shard.router import RequestBundle

        env = frontend.env
        return env.send(leader, RequestBundle(command, env.now), topic=topic)

    def test_pins_from_before_bundling(self):
        from repro.shard import service
        from repro.shard.router import ShardFrontend
        from repro.smr.log import ReplicatedLog

        with mock.patch.object(ShardFrontend, "_post", self._post_alone):
            local = lambda **kw: _sharded_kv_hash(read_mode="local", **kw)
            assert local() == (
                "620a669e8f6a0dec3aec493b3449c64bc5df36779976e52583777948ec78f0bf"
            )
            assert local(attach_obs=True) == (
                "a0f9d6768ff92f4e1b6624b52324f7705a94261fd38d3cf73ab1e032166150b9"
            )
            assert _elastic_split_hash() == (
                "8f5f8da43c98fece47db26297e12a3696285e7613bba6f6c78bf3063454cb780"
            )
            with mock.patch(f"{__name__}.SPANS_BEFORE_TIMELINE_POINTS", 2163):
                assert _elastic_split_hash(attach_obs=True) == (
                    "474fafab6f7dafe6ae95319cde18ef8c77643620bb1ed2153ecff0de957914b8"
                )
            with mock.patch.object(ReplicatedLog, "_joinable_read", lambda log: None):
                assert _elastic_split_hash() == (
                    "7e85ca0756877e33dd2537c2c62b4cd5ec843b4fc95235ac12cc46ea29b541e1"
                )
            with mock.patch.object(service, "PIPELINE_DEPTH", 1):
                assert TestDepthOneEquivalence()._write_heavy_smoke() == {
                    "events": 16268, "messages": 4966, "mem_ops": 2619,
                    "virtual_elapsed": 450.0, "commits": 4800, "batches": 873,
                    "latency_sum": 37918.0,
                }


class TestHashSeedIndependence:
    """``run_hash`` must not depend on ``PYTHONHASHSEED``: no set or dict
    of strings may order anything that reaches the schedule or the span
    stream.  One child interpreter per hash seed replays one detached and
    one attached golden scenario, plus both pins of the two fenced-read
    scenarios; all three must print the pinned six."""

    def test_golden_hashes_under_three_hash_seeds(self):
        import os
        import subprocess
        import sys

        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src_dir = os.path.join(os.path.dirname(tests_dir), "src")
        program = (
            "import test_determinism_replay as t; "
            "print(t._elastic_split_hash(), t._sharded_kv_hash(attach_obs=True), "
            "*(t._sharded_kv_hash(attach_obs=a, read_mode=m) "
            "for m in ('leader', 'local') for a in (False, True)))"
        )
        for hash_seed in ("0", "1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join([src_dir, tests_dir]),
            )
            child = subprocess.run(
                [sys.executable, "-c", program],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert child.returncode == 0, child.stderr
            assert child.stdout.split() == [
                GOLDEN_DETACHED["elastic_split_jittered"],
                GOLDEN_ATTACHED["sharded_kv_2"],
                GOLDEN_DETACHED["sharded_kv_2_leader"],
                GOLDEN_ATTACHED["sharded_kv_2_leader"],
                GOLDEN_DETACHED["sharded_kv_2_local"],
                GOLDEN_ATTACHED["sharded_kv_2_local"],
            ], f"PYTHONHASHSEED={hash_seed}"


#: spans (finished + open) ``elastic_split_jittered`` records besides its
#: timeline points and its ``log.recover`` phase
SPANS_BEFORE_TIMELINE_POINTS = 2205

#: the write-heavy smoke's exact fields with ``PIPELINE_DEPTH`` at 1
SMOKE_AT_DEPTH_ONE = {
    "events": 14835, "messages": 3588, "mem_ops": 2589,
    "virtual_elapsed": 452.0, "commits": 4800, "batches": 863,
    "latency_sum": 37834.0,
}

GOLDEN_DETACHED = {
    "pmp": "c033a14e31327e1b76e974e48b583317c080503a1b5ce167bc0a6db73859e8b0",
    "pmp_skip_off": "03ea3777c2c26766a14e70e1bf005991d07184ce9a08b873999c8e1afa7d361b",
    "aligned_protected": "cbc9121aec07336271ef9d119d46adfbb0b81217b24fdcab1ee5f0a74a522bb0",
    "aligned_disk": "19a610fbec2877176940d8bae47c148e32ebac9e27e17010fb6402e0c7c23324",
    "sharded_kv_2": "0c8832e2d3c2ac4a326fc1788c4f26b014dc3b080a2aacfba33ad9277ff4772e",
    "sharded_kv_2_leader": "8a2fe0173af11991329d4fd626f55d418d04bfd33cb1bd794a1645b48c04bf66",
    "sharded_kv_2_local": "7c646bef2176a1f8ee6fe8613ce673ca93d8f2c2d8bda131b541b6e4b72f8bdd",
    "elastic_split_jittered": "83d3414597be394225819c71bc3a802b6943e9df419fd1dd1a74bf20a4d75dc8",
}

GOLDEN_ATTACHED = {
    "pmp": "5247f4dee16d6276f646c577dba4cbe62f6e9fca4786fba36bd5f25d3bdd9d59",
    "pmp_skip_off": "8acdbfa63b104018259e6b68cb3eb95f5baf3ae3980f22ebacc21c19fcc456c4",
    "aligned_protected": "73ab5d4ede8d3745ade25b377fa0dc1a035183b7a90fa464cbf9a440dc82487d",
    "aligned_disk": "cb05ff4a1cd39e3baae36de67ac81ef2d3adfe03fc827c01f843ef3d3b7bc45d",
    "sharded_kv_2": "8d4cfc5843b572ff077fcee2d70fa742b5384bede5ded76c33c2494095d22d26",
    "sharded_kv_2_leader": "dcbae2e933f6ff74d84695c8abcdeec92e7aa1b3fcb4e1fca4df5441397b4447",
    "sharded_kv_2_local": "c6bb03b24db1fe27c5f36341bc165d7578578bd40d747f68e78d6f2c06007a5b",
    "elastic_split_jittered": "569fa32ab941b0b308002d8c4e6e89e6caec05cc1b6f39167b3227fb3eb26064",
}
