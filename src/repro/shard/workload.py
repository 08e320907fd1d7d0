"""Workload engine: key distributions, operation mixes, client loops.

YCSB-style traffic generation for the sharded service.  Key popularity is
either uniform or Zipfian (the YCSB scrambled-zipfian constant
``theta = 0.99`` by default), operation mixes are read/update fractions
with the standard A/B/C presets, and clients come in two flavours:

* **closed-loop** — a fixed population of clients, each with one request
  outstanding; throughput is set by service latency (the classic
  interactive-client model);
* **open-loop** — requests arrive on a timer regardless of completions,
  modelling exogenous arrival rates that can saturate a shard.

All randomness flows through the kernel's seeded RNG, so a workload is
fully reproducible from the service seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Protocol, Sequence, Tuple

from repro.shard.router import ReadSession
from repro.smr.kv import KVCommand


class KeyDistribution(Protocol):
    """Anything that can draw the next key name from an RNG."""

    def next_key(self, rng) -> str: ...


@dataclass(frozen=True)
class UniformKeys:
    """Every key equally likely."""

    n_keys: int
    prefix: str = "key"

    def next_key(self, rng) -> str:
        return f"{self.prefix}{rng.randrange(self.n_keys)}"


class ZipfianKeys:
    """YCSB's Zipfian generator: item ``i`` drawn with weight ``1/i**theta``.

    Uses the Gray et al. rejection-free formula (the one YCSB ships): two
    constants precomputed from the harmonic-like sum ``zeta(n, theta)``
    turn one uniform draw into a Zipf-distributed rank.  Rank 0 is the
    hottest key.
    """

    def __init__(self, n_keys: int, theta: float = 0.99, prefix: str = "key") -> None:
        if n_keys < 2:
            raise ValueError("Zipfian needs at least two keys")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.n_keys = n_keys
        self.theta = theta
        self.prefix = prefix
        self._zetan = sum(1.0 / (i**theta) for i in range(1, n_keys + 1))
        zeta2 = 1.0 + 0.5**theta
        self._alpha = 1.0 / (1.0 - theta)
        denominator = 1.0 - zeta2 / self._zetan
        # n_keys == 2 makes zeta(n) == zeta(2), a 0/0 limit: the first two
        # branches of next_rank then cover every draw, so eta is never used
        self._eta = (
            0.0
            if denominator == 0.0
            else (1.0 - (2.0 / n_keys) ** (1.0 - theta)) / denominator
        )
        #: rank -> key string; Zipfian draws concentrate on few ranks, so
        #: the per-request f-string is built once per distinct key
        self._key_names: dict = {}

    def next_rank(self, rng) -> int:
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(self.n_keys * (self._eta * u - self._eta + 1.0) ** self._alpha)

    def next_key(self, rng) -> str:
        rank = self.next_rank(rng)
        key = self._key_names.get(rank)
        if key is None:
            key = self._key_names[rank] = f"{self.prefix}{rank}"
        return key


@dataclass(frozen=True)
class OperationMix:
    """Read/update fractions (reads are ``get``, updates are ``put``)."""

    read_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be within [0, 1]")

    def next_op(self, rng) -> str:
        return "get" if rng.random() < self.read_fraction else "put"


#: the standard YCSB core mixes
YCSB_A = OperationMix(read_fraction=0.5)  # update heavy
YCSB_B = OperationMix(read_fraction=0.95)  # read mostly
YCSB_C = OperationMix(read_fraction=1.0)  # read only


def _command(client_id: int, request_id: int, op: str, key: str) -> KVCommand:
    value = f"c{client_id}-r{request_id}" if op == "put" else None
    return KVCommand(op, key, value=value, client=client_id, request_id=request_id)


def _issue(env, frontend, recorder, command, read_mode, session) -> Generator:
    """One request at the client boundary: a ``get`` goes to the read
    plane (by *read_mode*, None for the service default), anything else
    is submitted; the reply and its latency go to *recorder*."""
    started = env.now
    if command.op == "get":
        result = yield from frontend.get(command, mode=read_mode, session=session)
    else:
        result = yield from frontend.submit(command, session=session)
    recorder.record(command, result, env.now - started)


@dataclass
class ClosedLoopClient:
    """One interactive client: submit, wait for the reply, repeat.

    Each client carries its own :class:`~repro.shard.router.ReadSession`
    (per-shard consistency floors raised by every reply), and routes its
    ``get``s through the frontend's read plane — by the service's default
    read mode, or by this client's ``read_mode`` override.
    """

    client_id: int
    n_ops: int
    keys: KeyDistribution
    mix: OperationMix = YCSB_A
    think_time: float = 0.0
    #: process to run on; None lets the service spread clients round-robin
    pid: Optional[int] = None
    #: per-client read routing override; None follows the service default
    read_mode: Optional[str] = None

    def task(self, env, frontend, recorder) -> Generator:
        session = ReadSession()
        for request_id in range(self.n_ops):
            op = self.mix.next_op(env.rng)
            key = self.keys.next_key(env.rng)
            command = _command(self.client_id, request_id, op, key)
            yield from _issue(
                env, frontend, recorder, command, self.read_mode, session
            )
            if self.think_time > 0.0:
                yield env.sleep(self.think_time)


@dataclass
class ScriptedClient:
    """Replays a fixed ``(op, key, value)`` script in order.

    Deterministic by construction — the parity tests replay the same
    script through the sharded service and the bare replicated log and
    compare outcomes command for command.
    """

    client_id: int
    script: Sequence[Tuple[str, str, Any]]
    pid: Optional[int] = None
    #: per-client read routing override; None follows the service default
    read_mode: Optional[str] = None

    @property
    def n_ops(self) -> int:
        return len(self.script)

    def task(self, env, frontend, recorder) -> Generator:
        session = ReadSession()
        for request_id, (op, key, value) in enumerate(self.script):
            command = KVCommand(
                op, key, value=value, client=self.client_id, request_id=request_id
            )
            yield from _issue(
                env, frontend, recorder, command, self.read_mode, session
            )


@dataclass
class OpenLoopClient:
    """Arrival-rate client: one request every ``interarrival`` delays,
    regardless of how many are still in flight."""

    client_id: int
    n_ops: int
    keys: KeyDistribution
    mix: OperationMix = YCSB_A
    interarrival: float = 1.0
    #: draw exponential gaps (Poisson arrivals) instead of a fixed spacing
    poisson: bool = False
    pid: Optional[int] = None
    #: per-client read routing override; None follows the service default
    read_mode: Optional[str] = None

    def task(self, env, frontend, recorder) -> Generator:
        # one session for the whole open loop: floors are raised as the
        # (possibly overlapping) requests complete
        session = ReadSession()
        for request_id in range(self.n_ops):
            op = self.mix.next_op(env.rng)
            key = self.keys.next_key(env.rng)
            command = _command(self.client_id, request_id, op, key)
            yield env.spawn(
                f"c{self.client_id}-r{request_id}",
                _issue(env, frontend, recorder, command, self.read_mode, session),
            )
            gap = self.interarrival
            if self.poisson:
                gap = env.rng.expovariate(1.0 / self.interarrival)
            yield env.sleep(gap)
