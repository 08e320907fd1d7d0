#!/usr/bin/env python3
"""Anatomy of a traced decision: spans, critical path, and the run report.

Part 1 attaches the observability runtime to a Protected Memory Paxos
cluster, renders the leader's span tree, and asks the critical-path
analyzer to decompose decision latency into the paper's units — the
steady-state answer is exactly **2 memory delays** (the single
permission-fenced phase-2 write).  Part 2 does the same for
message-passing Paxos: 4 message delays end to end, of which the
decision-forming accept phase costs 2.

Part 3 traces the whole stack at once: a sharded KV workload with a
crash/recover fault in the middle, streaming spans to sinks, sampling
gauges on a virtual-time ticker, and finishing with the combined run
report (workload + fault timeline + metrics registry + task profile).

Run:  python examples/trace_anatomy.py
      python examples/trace_anatomy.py --perfetto trace.json --flight flight.json

The ``--perfetto`` file loads in https://ui.perfetto.dev; ``--flight``
writes the runtime's trip dump as JSON (tripped manually at the end of
the run as a demonstration — real trips come from strict-safety
violations).
"""

import argparse
import json

from repro import (
    ClosedLoopClient,
    FaultScript,
    MessagePaxos,
    OperationMix,
    ProtectedMemoryPaxos,
    ShardConfig,
    ShardedKV,
    UniformKeys,
)
from repro.core.cluster import Cluster, ClusterConfig
from repro.metrics.reporting import run_report
from repro.obs import ChromeTraceSink, JsonlSink, attach, critical_path, render_tree
from repro.types import ProcessId


def traced_consensus(protocol, name: str) -> None:
    print(f"=== {name}: one traced decision ===")
    cluster = Cluster(protocol, ClusterConfig(3, 3))
    runtime = attach(cluster.kernel)
    result = cluster.run(["a", "b", "c"])
    assert result.agreed

    leader = ProcessId(0)
    path = critical_path(runtime, leader)
    _, trace_id = runtime.decide_points[(leader, None)]
    print("span tree of the deciding trace:")
    print(render_tree(runtime.spans, trace_id))
    print()
    print(path.summary())
    print()


def traced_stack(args) -> None:
    print("=== whole stack: sharded KV under a crash, traced ===")
    script = FaultScript()
    script.at(30.0).crash_process(2).recover(at=90.0)
    service = ShardedKV(
        ShardConfig(
            n_shards=2, n_processes=3, n_memories=3, faults=script, deadline=100_000
        )
    )
    # the task profile measures host wall clock, which would make stdout
    # nondeterministic — the determinism probe diffs two runs byte for byte
    runtime = attach(service.kernel, profile=args.profile)
    if args.perfetto:
        runtime.add_sink(ChromeTraceSink(args.perfetto))
    if args.jsonl:
        runtime.add_sink(JsonlSink(args.jsonl))
    runtime.start_sampling(interval=5.0, until=200.0)

    # pin clients to p1/p2 — p3 crashes at t=30 and recovers at t=90
    clients = [
        ClosedLoopClient(
            client_id=c,
            n_ops=12,
            keys=UniformKeys(32),
            mix=OperationMix(0.3),
            think_time=10.0,
            pid=c % 2,
        )
        for c in range(4)
    ]
    report = service.run_workload(clients)
    assert report.ok

    if args.flight:
        dump = runtime.trip("demo dump (end of run)")
        with open(args.flight, "w", encoding="utf-8") as handle:
            json.dump(dump, handle, indent=1)
        print(f"flight-recorder dump written to {args.flight}")
    runtime.close()
    if args.perfetto:
        print(f"perfetto trace written to {args.perfetto} "
              "(load it at https://ui.perfetto.dev)")
    if args.jsonl:
        print(f"span JSONL written to {args.jsonl}")
    print()
    print(run_report(report, service.kernel.metrics, runtime))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--perfetto", help="write a Perfetto/Chrome trace here")
    parser.add_argument("--jsonl", help="stream span JSONL here")
    parser.add_argument("--flight", help="write the runtime's trip dump here")
    parser.add_argument("--profile", action="store_true",
                        help="include the host-wall-clock task profile in the "
                             "report (nondeterministic stdout)")
    args = parser.parse_args()

    traced_consensus(ProtectedMemoryPaxos(), "Protected Memory Paxos")
    traced_consensus(MessagePaxos(), "Message-passing Paxos")
    traced_stack(args)


if __name__ == "__main__":
    main()
