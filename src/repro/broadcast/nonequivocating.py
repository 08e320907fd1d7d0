"""Non-equivocating broadcast over SWMR registers (Algorithm 2).

Every process ``p`` owns a matrix of SWMR slots: ``slot[p, k, q]`` is p's
record of q's k-th broadcast (writable only by p, readable by all).  To
broadcast its k-th message, p writes a signed unit into ``slot[p, k, p]``.
To deliver q's k-th message, p:

1. reads ``slot[q, k, q]``; retries later if empty or badly signed;
2. copies the unit into its own ``slot[p, k, q]`` (witnessing);
3. reads ``slot[i, k, q]`` for every i; if any holds a *different* unit
   validly signed by q with the same sequence number, q equivocated and the
   message is never delivered; otherwise p delivers.

Properties (proved in the paper, tested in ``tests/test_nonequiv_*``):

1. a correct broadcaster's message is eventually delivered by all correct
   processes;
2. no two correct processes deliver different messages for the same
   ``(q, k)``;
3. delivery implies the (correct) sender broadcast it.

Signature format: the unit signature covers ``("neb", k, digest(payload),
dst_tag)`` — binding the sequence number and the *whole* payload (for
T-send the payload embeds the sender's history), so a Byzantine witness
cannot plant an altered copy that passes the signature check and falsely
convict an honest broadcaster of equivocation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.crypto.signatures import Signed, canonical_bytes
from repro.registers.swmr import ReplicatedRegister, read_many, swmr_regions
from repro.sim.environment import ProcessEnv
from repro.types import ProcessId, is_bottom

NAMESPACE = "neb"


def neb_regions(all_processes, namespace: str = NAMESPACE) -> tuple:
    """The SWMR slot regions for non-equivocating broadcast (one shared
    tuple per shape, see :func:`swmr_regions`).

    *namespace* isolates independent broadcast instances (e.g. one per
    replicated-log slot): units are signed over the namespace, so a unit
    from one instance can never validate in another (no cross-instance
    replay).
    """
    processes = tuple(all_processes)
    return swmr_regions(namespace, processes, processes)


def payload_digest(payload: Any) -> bytes:
    return hashlib.sha256(canonical_bytes(payload)).digest()


@dataclass(frozen=True)
class BroadcastUnit:
    """What gets written into a slot: sequence number, payload, signature."""

    k: int
    payload: Any
    sig: Signed
    namespace: str = NAMESPACE

    def signed_tuple(self) -> tuple:
        return (self.namespace, self.k, payload_digest(self.payload))


def make_unit(
    env: ProcessEnv, k: int, payload: Any, namespace: str = NAMESPACE
) -> BroadcastUnit:
    """Sign and wrap *payload* as the caller's k-th broadcast unit."""
    sig = env.sign((namespace, k, payload_digest(payload)))
    return BroadcastUnit(k=k, payload=payload, sig=sig, namespace=namespace)


def unit_valid(
    env: ProcessEnv,
    sender: ProcessId,
    unit: Any,
    k: int,
    namespace: str = NAMESPACE,
) -> bool:
    """Is *unit* a correctly signed k-th broadcast of *sender*?"""
    if not isinstance(unit, BroadcastUnit):
        return False
    if unit.k != k or unit.namespace != namespace:
        return False
    if not env.valid(sender, unit.sig):
        return False
    return unit.sig.payload == unit.signed_tuple()


@dataclass(frozen=True)
class Delivery:
    """One delivered broadcast: ``deliver(k, m, q)`` in the paper."""

    sender: ProcessId
    k: int
    payload: Any
    unit: BroadcastUnit


class NonEquivocatingBroadcast:
    """Per-process broadcast endpoint plus delivery daemon.

    Deliveries are appended to :attr:`delivered` and handed to the optional
    ``on_deliver`` callback; the :attr:`gate` opens whenever something new
    arrives, so consumer tasks can park on it.
    """

    def __init__(
        self,
        env: ProcessEnv,
        on_deliver: Optional[Callable[[Delivery], None]] = None,
        poll_min: float = 0.5,
        poll_max: float = 4.0,
        namespace: str = NAMESPACE,
    ) -> None:
        self.env = env
        self.on_deliver = on_deliver
        self.poll_min = poll_min
        self.poll_max = poll_max
        self.namespace = namespace
        self.next_k = 1
        #: next sequence number expected from each sender (paper's Last[q])
        self.last: Dict[ProcessId, int] = {q: 1 for q in env.processes}
        self.delivered: List[Delivery] = []
        self.gate = env.new_gate(f"neb-deliveries-p{int(env.pid)+1}")
        #: senders caught equivocating (never delivered from again)
        self.convicted: set = set()

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def _slot(self, owner: ProcessId, k: int, src: ProcessId) -> ReplicatedRegister:
        ns = self.namespace
        return ReplicatedRegister(
            region=f"{ns}:{int(owner)}", key=(ns, int(owner), k, int(src))
        )

    # ------------------------------------------------------------------
    # broadcast (Algorithm 2, line 4)
    # ------------------------------------------------------------------
    def broadcast(self, payload: Any) -> Generator:
        """Broadcast *payload* as this process's next message."""
        k = self.next_k
        self.next_k += 1
        unit = make_unit(self.env, k, payload, namespace=self.namespace)
        yield from self._slot(self.env.pid, k, self.env.pid).write(self.env, unit)
        return k

    # ------------------------------------------------------------------
    # delivery (Algorithm 2, try_deliver)
    # ------------------------------------------------------------------
    def try_deliver(self, q: ProcessId) -> Generator:
        """One delivery attempt for sender *q*; returns True on delivery."""
        env = self.env
        if q in self.convicted:
            return False
        k = self.last[q]
        value = yield from self._slot(q, k, q).read(env)
        if is_bottom(value) or not unit_valid(env, q, value, k, self.namespace):
            return False  # nothing broadcast yet, or badly signed: retry later
        unit: BroadcastUnit = value
        yield from self._slot(env.pid, k, q).write(env, unit)
        witnesses = [self._slot(i, k, q) for i in env.processes]
        view = yield from read_many(env, witnesses)
        for other in view.values():
            if is_bottom(other) or other == unit:
                continue
            if unit_valid(env, q, other, k, self.namespace):
                # Another witness holds a *different* validly signed unit:
                # q equivocated.  Never deliver from q again.
                self.convicted.add(q)
                return False
        delivery = Delivery(sender=q, k=k, payload=unit.payload, unit=unit)
        self.last[q] = k + 1
        self.delivered.append(delivery)
        if self.on_deliver is not None:
            self.on_deliver(delivery)
        env.pulse(self.gate)
        return True

    def delivery_daemon(self) -> Generator:
        """Poll every sender forever, with adaptive backoff when idle."""
        env = self.env
        backoff = self.poll_min
        while True:
            progressed = False
            for q in env.processes:
                if q == env.pid:
                    # Deliver own broadcasts directly (a correct process
                    # trivially does not equivocate against itself).
                    progressed |= yield from self._self_deliver()
                    continue
                progressed = (yield from self.try_deliver(q)) or progressed
            if progressed:
                backoff = self.poll_min
            else:
                backoff = min(backoff * 2, self.poll_max)
            yield env.sleep(backoff)

    def _self_deliver(self) -> Generator:
        env = self.env
        k = self.last[env.pid]
        if k >= self.next_k:
            return False
        value = yield from self._slot(env.pid, k, env.pid).read(env)
        if is_bottom(value) or not isinstance(value, BroadcastUnit):
            return False
        delivery = Delivery(sender=env.pid, k=k, payload=value.payload, unit=value)
        self.last[env.pid] = k + 1
        self.delivered.append(delivery)
        if self.on_deliver is not None:
            self.on_deliver(delivery)
        env.pulse(self.gate)
        return True
