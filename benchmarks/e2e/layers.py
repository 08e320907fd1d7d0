"""Per-layer attribution: the cProfile rollup and the layer probes.

A layer is a subpackage of ``src/repro``.  The traced repetition runs the
workload under cProfile (enabled from the benchmark, around the same run
call the untraced repetitions time) and this module rolls the profile up
by the file each function lives in.  The probes time one public call of
one layer in a tight loop, with nothing else of the stack around it.
"""

from __future__ import annotations

import pstats
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

#: the subpackages reported on; ``core`` also takes the top-level modules
#: (``types.py``, ``errors.py``), ``other`` takes the standard library,
#: builtins, the benchmark's own files and any subpackage not listed
LAYERS = (
    "sim", "mem", "net", "consensus", "smr", "shard", "reconfig", "failures",
    "crypto", "broadcast", "trusted", "registers", "obs", "metrics", "core",
    "other",
)
HOTTEST_PER_LAYER = 15


def layer_of(filename: str) -> str:
    marker = filename.rfind("/repro/")
    if marker < 0:
        return "other"
    head, _sep, tail = filename[marker + len("/repro/"):].partition("/")
    if not tail:
        return "core"  # a top-level module of the package
    return head if head in LAYERS else "other"


def rollup(profile, ops: int) -> Dict[str, Any]:
    """Layer table of one traced run.

    Per layer: self time (``tottime`` of its functions), calls entering it
    from a different layer (from the profile's callers table) and its
    hottest functions; plus the layer-to-layer call matrix.
    """
    stats = pstats.Stats(profile).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    edges: Dict[str, int] = {}
    hottest: Dict[str, List[Tuple[float, str, int]]] = {layer: [] for layer in LAYERS}
    for (filename, line, name), (_cc, n_calls, tottime, _ct, callers) in stats.items():
        layer = layer_of(filename)
        self_s[layer] += tottime
        hottest[layer].append(
            (tottime, f"{filename.rsplit('/', 1)[-1]}:{line}:{name}", n_calls)
        )
        for (caller_file, _line, _name), caller_stats in callers.items():
            caller_layer = layer_of(caller_file)
            if caller_layer != layer:
                # callers rows are (call count, primitive count, tt, ct)
                calls_in[layer] += caller_stats[0]
                edge = f"{caller_layer}->{layer}"
                edges[edge] = edges.get(edge, 0) + caller_stats[0]
    total = sum(self_s.values())
    return {
        "traced_self_total_s": total,
        "layers": {
            layer: {
                "self_s": self_s[layer],
                "self_share": self_s[layer] / total if total else 0.0,
                "calls_in_per_op": calls_in[layer] / ops if ops else 0.0,
                "hottest": [
                    {"function": label, "self_s": tottime, "calls": n_calls}
                    for tottime, label, n_calls in sorted(
                        hottest[layer], reverse=True
                    )[:HOTTEST_PER_LAYER]
                ],
            }
            for layer in LAYERS
        },
        "edges": dict(sorted(edges.items(), key=lambda item: -item[1])),
    }


# ----------------------------------------------------------------------
# layer probes
# ----------------------------------------------------------------------
PROBE_BATCH_S = 0.2
PROBE_BATCHES = 5


def _time_loop(step: Callable[[int], Any], calls_per_step: int, batch_s: float) -> float:
    """Median ns per call over ``PROBE_BATCHES`` batches of *batch_s* seconds."""
    per_call = []
    for _batch in range(PROBE_BATCHES):
        calls = 0
        started = time.perf_counter()
        deadline = started + batch_s
        while True:
            step(calls)
            calls += calls_per_step
            now = time.perf_counter()
            if now >= deadline:
                break
        per_call.append((now - started) / calls * 1e9)
    return statistics.median(per_call)


def _probe_queue(batch_s: float) -> float:
    from repro.sim.event_queue import EV_CALL, EventQueue

    queue = EventQueue()
    for i in range(256):  # a standing heap, as a running kernel has
        queue.push(float(i), EV_CALL)

    def step(calls: int) -> None:
        base = 256.0 + calls
        for i in range(100):
            queue.push(base + i, EV_CALL)
            queue.pop()

    return _time_loop(step, 100, batch_s)


def _probe_memory(batch_s: float) -> Tuple[float, float]:
    from repro.mem.layout import MemoryLayout
    from repro.mem.memory import Memory
    from repro.mem.operations import ReadSnapshotOp, WriteOp
    from repro.mem.permissions import Permission
    from repro.mem.regions import RegionSpec
    from repro.types import MemoryId, ProcessId

    layout = MemoryLayout([RegionSpec("r", ("x",), Permission.open(range(3)))])
    memory = Memory(MemoryId(0), layout)
    pid = ProcessId(0)
    writes = [WriteOp("r", ("x", i), i) for i in range(1000)]
    for op in writes:
        memory.apply(pid, op)
    # the quorum-read shape: scan the region, return the suffix past a floor
    snapshot = ReadSnapshotOp("r", ("x",), floor=990)

    def write_step(_calls: int) -> None:
        for op in writes:
            memory.apply(pid, op)

    def snapshot_step(_calls: int) -> None:
        for _ in range(10):
            memory.apply(pid, snapshot)

    return _time_loop(write_step, 1000, batch_s), _time_loop(snapshot_step, 10, batch_s)


def _probe_net(batch_s: float) -> float:
    from repro.mem.layout import MemoryLayout
    from repro.sim.environment import ProcessEnv
    from repro.sim.kernel import Kernel, SimConfig
    from repro.types import ProcessId

    n_messages = 2000

    def step(_calls: int) -> None:
        kernel = Kernel(SimConfig(n_processes=2, n_memories=0), MemoryLayout([]))
        sender = ProcessEnv(kernel, ProcessId(0))
        receiver = ProcessEnv(kernel, ProcessId(1))

        def send():
            for i in range(n_messages):
                yield sender.send(1, i, topic="t")

        def receive():
            for _ in range(n_messages):
                yield from receiver.recv(topic="t")

        kernel.spawn(0, "send", send())
        kernel.spawn(1, "recv", receive())
        kernel.run(until=10.0**9)

    return _time_loop(step, n_messages, batch_s)


def _probe_partitioner(batch_s: float) -> float:
    from repro.shard import ConsistentHashPartitioner

    partitioner = ConsistentHashPartitioner(4, vnodes=64)
    keys = [f"key{i}" for i in range(256)]

    def step(_calls: int) -> None:
        for key in keys:
            partitioner.shard_for(key)

    return _time_loop(step, len(keys), batch_s)


def _probe_kv_apply(batch_s: float) -> float:
    from repro.smr import KVCommand, KVStateMachine

    machine = KVStateMachine()
    commands = [KVCommand("put", f"key{i % 256}", value=i) for i in range(1000)]

    def step(calls: int) -> None:
        for offset, command in enumerate(commands):
            machine.apply(calls + offset, command)
        del machine.applied[:]  # the probe times apply, not list growth

    return _time_loop(step, len(commands), batch_s)


def _probe_crypto(batch_s: float) -> float:
    from repro.crypto.signatures import SignatureAuthority
    from repro.types import ProcessId

    authority = SignatureAuthority(seed=0)
    pid = ProcessId(0)
    key = authority.key_for(pid)
    payload = ("value", 1, "p1")

    def step(_calls: int) -> None:
        for _ in range(100):
            if not authority.verify(pid, authority.sign(key, payload)):
                raise RuntimeError("a fresh signature failed to verify")

    return _time_loop(step, 100, batch_s)


def run_probes(scale: float = 1.0) -> Dict[str, float]:
    """Every layer probe; *scale* shortens the batches (smoke runs)."""
    batch_s = PROBE_BATCH_S * scale
    apply_write, apply_snapshot = _probe_memory(batch_s)
    return {
        "sim.queue_push_pop_ns": _probe_queue(batch_s),
        "mem.apply_write_ns": apply_write,
        "mem.apply_snapshot_ns": apply_snapshot,
        "net.send_deliver_ns": _probe_net(batch_s),
        "shard.shard_for_ns": _probe_partitioner(batch_s),
        "smr.kv_apply_ns": _probe_kv_apply(batch_s),
        "crypto.sign_verify_ns": _probe_crypto(batch_s),
    }
