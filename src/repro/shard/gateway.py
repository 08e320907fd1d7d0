"""Cross-cell client access: gateways, remote clients, and cell routing.

Under the parallel driver (:mod:`repro.sim.parallel`) a service lives
whole inside one cell — replicas, memories, consensus traffic and all —
and clients live in *other* cells.  This module supplies the two halves
of that split plus the glue:

* a **gateway** task on each service cell: receives fabric-posted
  requests on :data:`GATEWAY_TOPIC`, deduplicates them (remote clients
  resend on timeout, and the frontend's in-flight table refuses
  duplicate identities loudly), proxies each through the service's own
  :class:`~repro.shard.router.ShardFrontend`, and posts the result back
  to the requesting cell;
* a **remote client**: the closed-loop YCSB client shape of
  :mod:`repro.shard.workload`, but speaking the fabric instead of a
  local frontend — per-client reply topics, timeout-driven resend,
  latencies recorded in its own cell;
* a **cell router**: a consistent-hash ring over cell ids (reusing the
  shard partitioner's machinery) mapping each key to the service cell
  that owns it.

All fabric payloads are plain tuples of primitives, so fork-mode workers
can pickle them across the coordinator pipes without ceremony.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.shard.partitioner import HashRing
from repro.smr.kv import KVCommand

#: topic the gateway task listens on in a service cell
GATEWAY_TOPIC = "gw-req"


def gateway_reply_topic(client_id: int) -> str:
    """Per-client reply topic in the client's own cell."""
    return f"gw-res-c{client_id}"


# ----------------------------------------------------------------------
# cell routing
# ----------------------------------------------------------------------
class CellRouter:
    """Key -> owning service cell, via a consistent ring over cell ids.

    The ring's "shards" are service-cell ids; vnode placement makes the
    split deliberately uneven, exactly like real shard rings.
    """

    def __init__(self, service_cells: List[int], vnodes: int = 64) -> None:
        self.ring = HashRing(0, service_cells, vnodes, salt="cell|")
        self._cache: Dict[str, int] = {}

    def cell_for(self, key: str) -> int:
        cell = self._cache.get(key)
        if cell is None:
            cell = self.ring.shard_for(key)
            if len(self._cache) < 4096:
                self._cache[key] = cell
        return cell


# ----------------------------------------------------------------------
# the service-cell side
# ----------------------------------------------------------------------
def spawn_gateway(service, port, pid: int = 0) -> Dict[str, Any]:
    """Install a gateway task for *service* on replica *pid*.

    Requests arrive as ``("req", src_cell, src_pid, client_id,
    request_id, op, key, value)`` fabric envelopes.  At-most-once:
    completed requests are remembered and re-answered from the done
    table (a resend whose original reply was merely slow in the fabric),
    in-flight ones are dropped (the original proxy will answer; handing
    a duplicate identity to the frontend would raise).  Each fresh
    request gets its own proxy task so slow shards never head-of-line
    block the intake loop.

    Returns the gateway's state dict (diagnostics and tests).
    """
    env = service.cluster.env_for(pid)
    state: Dict[str, Any] = {"done": {}, "in_flight": set(), "requests": 0, "replies": 0}

    def proxy(src_cell, src_pid, client_id, request_id, op, key, value):
        command = KVCommand(op, key, value=value, client=client_id, request_id=request_id)
        frontend = service.frontends[pid]
        if op == "get":
            result = yield from frontend.get(command)
        else:
            result = yield from frontend.submit(command)
        identity = (client_id, request_id)
        state["done"][identity] = result
        state["in_flight"].discard(identity)
        state["replies"] += 1
        port.post(
            src_cell, src_pid, gateway_reply_topic(client_id),
            ("res", client_id, request_id, result),
        )

    def gateway():
        recv_request = env.recv_effect(topic=GATEWAY_TOPIC)
        while True:
            envelope = yield recv_request
            if envelope is None:
                continue
            _tag, src_cell, src_pid, client_id, request_id, op, key, value = (
                envelope.payload
            )
            state["requests"] += 1
            identity = (client_id, request_id)
            if identity in state["done"]:
                port.post(
                    src_cell, src_pid, gateway_reply_topic(client_id),
                    ("res", client_id, request_id, state["done"][identity]),
                )
                continue
            if identity in state["in_flight"]:
                continue  # the original proxy will reply
            state["in_flight"].add(identity)
            yield env.spawn(
                f"gw-c{client_id}-r{request_id}",
                proxy(src_cell, src_pid, client_id, request_id, op, key, value),
            )

    service.cluster.spawn(pid, f"gateway-p{pid + 1}", gateway())
    return state


def kv_state_digest(service) -> str:
    """Deterministic digest of the service's final committed KV state
    (per-shard leader snapshots, sorted) — what the cross-worker
    determinism contract compares beyond trace hashes."""
    import hashlib

    digest = hashlib.sha256()
    for shard in sorted(service.shards):
        snapshot = service.snapshot(shard)
        for key in sorted(snapshot):
            digest.update(f"{shard}|{key}|{snapshot[key]!r};".encode())
    return digest.hexdigest()


def service_cell_factory(
    cell_id: int,
    make_service: Callable[[], Any],
    gateway_pid: int = 0,
    label: Optional[str] = None,
):
    """Factory for a cell hosting one whole service behind a gateway.

    ``make_service()`` runs inside the owning worker (fork mode builds
    it in the child).  The cell's goal is replica convergence — true
    before traffic starts and after it fully drains, so global
    termination is gated by the client cells' completion goals.
    """
    from repro.sim.parallel import Cell

    def factory(port):
        service = make_service()
        service.cluster.install_faults()
        spawn_gateway(service, port, pid=gateway_pid)
        return Cell(
            cell_id,
            service.kernel,
            goal=service._converged,
            label=label or f"svc-{cell_id}",
            summarize=lambda: {
                "kv_digest": kv_state_digest(service),
                "shards": sorted(service.shards),
                "commits": dict(service.kernel.metrics.shard_commits),
            },
        )

    return factory


def client_cell_factory(
    cell_id: int,
    clients_fn: Callable[[], List["RemoteClient"]],
    n_processes: int = 4,
    seed: int = 0,
    label: Optional[str] = None,
):
    """Factory for a bare cell hosting remote closed-loop clients; the
    goal is every client having recorded all its operations."""
    from repro.sim.parallel import Cell

    def factory(port):
        clients = clients_fn()
        total = sum(client.n_ops for client in clients)
        kernel, recorder = build_client_cell(
            port, cell_id, clients, n_processes=n_processes, seed=seed
        )
        return Cell(
            cell_id,
            kernel,
            goal=lambda: recorder.completed >= total,
            label=label or f"clients-{cell_id}",
            summarize=lambda: {
                "completed": recorder.completed,
                "resends": recorder.resends,
                "mean_latency": (
                    sum(recorder.latencies) / len(recorder.latencies)
                    if recorder.latencies else 0.0
                ),
            },
        )

    return factory


# ----------------------------------------------------------------------
# the client-cell side
# ----------------------------------------------------------------------
class RemoteRecorder:
    """Client-cell completion accounting (the recorder shape the local
    workload engine uses, minus shard attribution — the client cell does
    not know the destination service's internal ring)."""

    def __init__(self) -> None:
        self.completed = 0
        self.latencies: List[float] = []
        self.resends = 0

    def record(self, latency: float) -> None:
        self.completed += 1
        self.latencies.append(latency)


class RemoteClient:
    """One closed-loop client driving a remote service through the fabric.

    Mirrors :class:`~repro.shard.workload.ClosedLoopClient`: draw an
    operation from the mix, send, wait for the matching reply, repeat —
    with a resend timer because the fabric (like any network) gives no
    delivery callback.  Op/key draws come from the client cell's own
    kernel RNG, so the request stream is a pure function of the cell
    seed: identical for every worker count.
    """

    def __init__(
        self,
        client_id: int,
        n_ops: int,
        keys,
        mix,
        route: Callable[[str], int],
        pid: int = 0,
        gateway_pid: int = 0,
        retry_timeout: float = 400.0,
    ) -> None:
        self.client_id = int(client_id)
        self.n_ops = int(n_ops)
        self.keys = keys
        self.mix = mix
        self.route = route
        self.pid = int(pid)
        self.gateway_pid = int(gateway_pid)
        self.retry_timeout = float(retry_timeout)

    def task(self, env, port, recorder: RemoteRecorder):
        rng = env.rng
        topic = gateway_reply_topic(self.client_id)
        for request_id in range(self.n_ops):
            op = self.mix.next_op(rng)
            key = self.keys.next_key(rng)
            value = f"c{self.client_id}-r{request_id}" if op == "put" else None
            dst_cell = self.route(key)
            request = (
                "req", port.cell_id, int(env.pid), self.client_id,
                request_id, op, key, value,
            )
            started = env.now
            port.post(dst_cell, self.gateway_pid, GATEWAY_TOPIC, request)
            while True:
                envelope = yield from env.recv(
                    topic=topic,
                    match=lambda e, rid=request_id: e.payload[2] == rid,
                    timeout=self.retry_timeout,
                )
                if envelope is not None:
                    break
                recorder.resends += 1
                port.post(dst_cell, self.gateway_pid, GATEWAY_TOPIC, request)
            recorder.record(env.now - started)


def build_client_cell(
    port,
    cell_id: int,
    clients: List[RemoteClient],
    n_processes: int = 4,
    seed: int = 0,
) -> Tuple[Any, RemoteRecorder]:
    """A bare kernel hosting *clients* — no memories, no service.

    Returns ``(kernel, recorder)``; wrap in a
    :class:`~repro.sim.parallel.Cell` with goal "every client finished".
    """
    from repro.mem.layout import MemoryLayout
    from repro.sim.environment import ProcessEnv
    from repro.sim.kernel import Kernel, SimConfig
    from repro.types import ProcessId

    kernel = Kernel(
        SimConfig(n_processes=n_processes, n_memories=0, seed=seed),
        MemoryLayout([]),
    )
    envs = {p: ProcessEnv(kernel, ProcessId(p)) for p in range(n_processes)}
    recorder = RemoteRecorder()
    for index, client in enumerate(clients):
        pid = client.pid if client.pid is not None else index % n_processes
        kernel.spawn(
            pid % n_processes,
            f"rc-{client.client_id}",
            client.task(envs[pid % n_processes], port, recorder),
        )
    return kernel, recorder
