"""The migrator: permission-fenced data movement between shard groups.

Migration rides the ordinary replication machinery — every moved key is
re-committed at its new owner as a ``put`` through the destination
group's own log, so migrated data is exactly as durable as client data.
What makes it safe under crashes is the identity scheme:

* every migration command carries the at-most-once token
  ``(("mig", epoch, source_shard), (key, value_fingerprint))`` — fully
  deterministic, so a coordinator respawned after a crash re-streams the
  same keys under the same tokens and the destination state machine
  deduplicates the replays (at-most-once apply, satellite-tested by
  crashing the source mid-stream);
* the fingerprint makes the token *value-sensitive*: re-streaming a key
  whose value advanced between passes gets a fresh token (and commits),
  while an unchanged key dedups.  The delta pass after the seal barrier
  therefore just re-streams every moved key — unchanged ones cost a
  dedup, changed ones land their frozen final value.

The streaming itself reads the *coordinator-local* replica of the source
group (its applied prefix — the completion rule guarantees it covers
everything the barrier saw) and submits to the *future* owner by pinning
the destination shard explicitly: client routing still points at the old
ring during the dual-ownership window.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import hashlib

from repro.crypto.signatures import canonical_bytes
from repro.shard.partitioner import ConsistentHashPartitioner, hash_point
from repro.smr.kv import KVCommand, KVStateMachine


def migration_client(epoch: int, source: int) -> Tuple[str, int, int]:
    """The at-most-once client identity of one (epoch, source) stream."""
    return ("mig", epoch, source)


def _fingerprint(value: Any) -> Any:
    """A deterministic, hashable digest of a stored value.

    Hashable values ARE their own fingerprint (cheap, exact).  Unhashable
    ones go through the crypto layer's canonical encoder — never
    ``repr``, whose default form embeds memory addresses and would make
    migration tokens differ between two identically-seeded runs (breaking
    the seed-replay guarantee) while equal-repr distinct values would
    collide (dropping a changed late write as "unchanged" in the delta).
    """
    try:
        hash(value)
        return value
    except TypeError:
        return hashlib.sha1(canonical_bytes(value)).hexdigest()


#: concurrent in-flight migration puts per stream pass
WINDOW = 8


class Migrator:
    """Streams moved key ranges from migration sources to their new owners."""

    def __init__(self, partitioner: ConsistentHashPartitioner) -> None:
        self.partitioner = partitioner
        #: tokens this coordinator incarnation already streamed — purely an
        #: optimisation (skips a guaranteed dedup); a respawned coordinator
        #: starts empty and re-streams, relying on destination-side dedup
        self._streamed: set = set()
        #: per-(epoch, source) committed migration puts, for the timeline
        self.moved: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def moved_keys(
        self, machine: KVStateMachine, source: int, target_version: int
    ) -> List[str]:
        """The keys in *machine*'s store that leave *source* under ring
        *target_version*, in sorted (deterministic) order."""
        shard_for = self.partitioner.shard_for
        return sorted(
            key
            for key in machine.data
            if shard_for(key, version=target_version) != source
        )

    # ------------------------------------------------------------------
    def stream(
        self,
        env,
        frontend,
        machine: KVStateMachine,
        source: int,
        epoch_number: int,
        target_version: int,
        old_version: Optional[int] = None,
        peer_machine_of: Optional[Callable[[int], Optional[KVStateMachine]]] = None,
    ) -> Generator:
        """Stream every currently-moved key of *source* to its new owner.

        Runs ``WINDOW`` transfers concurrently (each is a routed submit:
        commit at the destination log, apply, complete).  Returns the
        number of transfers *submitted* by this call — within one
        coordinator incarnation that equals the keys newly moved (the
        ``_streamed`` memo skips known identities, so a delta pass only
        re-sends keys whose value changed), but a respawned coordinator
        starts with an empty memo and re-submits everything: those
        replays count here and are absorbed by the destination's dedup
        (its ``duplicates`` counter is the ground truth for re-applies).

        The delta pass (``old_version`` + ``peer_machine_of`` given)
        additionally sweeps *deletions*: a key an earlier pass copied to
        its new owner and a client then deleted at the source would
        otherwise resurrect at cutover.  The sweep is derived from
        replicated state, not coordinator memory — any destination-held
        key in the moved range that no longer exists at the source gets
        a migration ``delete`` — so it survives coordinator crashes the
        same way the puts do (a re-run finds the key already gone and
        streams nothing).
        """
        keys = self.moved_keys(machine, source, target_version)
        client = migration_client(epoch_number, source)
        moved = 0
        batch: List[KVCommand] = []
        store = machine.data
        # Put identities are tagged "v" and delete identities "d": the two
        # token spaces must be disjoint, or a stored value could collide
        # with the delete marker and suppress the sweep via dedup.
        for key in keys:
            value = store.get(key, None)
            if key not in store:
                continue  # deleted since the key list was taken
            request_id = ("v", key, _fingerprint(value))
            if (client, request_id) in self._streamed:
                continue
            self._streamed.add((client, request_id))
            batch.append(
                KVCommand(
                    "put", key, value=value, client=client, request_id=request_id
                )
            )
        if peer_machine_of is not None and old_version is not None:
            # one SHA-1 per peer key: both owner lookups share the point
            old_ring = self.partitioner.ring(old_version)
            new_ring = self.partitioner.ring(target_version)
            targets = set(new_ring.shards) - {source}
            for destination in sorted(targets):
                peer = peer_machine_of(destination)
                if peer is None:
                    continue
                for key in sorted(peer.data):
                    if key in store:
                        continue  # live at the source; the put path owns it
                    point = hash_point(key)
                    if old_ring.owner_of(point) != source:
                        continue  # not this source's range (native data)
                    if new_ring.owner_of(point) != destination:
                        continue
                    request_id = ("d", key)
                    if (client, request_id) in self._streamed:
                        continue
                    self._streamed.add((client, request_id))
                    batch.append(
                        KVCommand(
                            "delete", key, client=client, request_id=request_id
                        )
                    )
        # Stream in destination-shard order (stable sort keeps the
        # deterministic key order within a shard): each window chunk then
        # arrives as a contiguous run in ONE destination leader's queue,
        # which the leader's drain commits as a single Batch entry — one
        # fused phase-2 chain per memory — instead of burning a consensus
        # instance per key across interleaved shards.
        batch.sort(
            key=lambda command: self.partitioner.shard_for(
                command.key, version=target_version
            )
        )
        for start in range(0, len(batch), WINDOW):
            chunk = batch[start : start + WINDOW]
            done = env.new_gate("mig-window")
            remaining = [len(chunk)]

            def _one(command: KVCommand) -> Generator:
                shard = self.partitioner.shard_for(
                    command.key, version=target_version
                )
                yield from frontend.submit(command, shard=shard)
                remaining[0] -= 1
                if remaining[0] == 0:
                    env.signal(done)

            for command in chunk:
                yield env.spawn(f"mig-e{epoch_number}-{command.key}", _one(command))
            while remaining[0] > 0:
                yield env.gate_wait(done, timeout=None)
            moved += len(chunk)
        self.moved[(epoch_number, source)] = (
            self.moved.get((epoch_number, source), 0) + moved
        )
        return moved

    # ------------------------------------------------------------------
    def barrier(self, env, frontend, source: int, epoch_number: int) -> Generator:
        """Commit a read barrier through *source*'s log and wait for it.

        The barrier is an ordinary ``get`` pinned to the source group: by
        log order it commits after every command enqueued before it, and
        the completion rule means the *local* replica (the one the
        migrator reads) has applied that entire prefix when this returns.
        Its identity embeds the current instant, so a respawned
        coordinator's re-barrier is a fresh log entry — a dedup'd answer
        from a previous incarnation would not be an ordering point.
        """
        probe = KVCommand(
            "get",
            "__reconfig-barrier__",
            client=migration_client(epoch_number, source),
            request_id=("barrier", env.now),
        )
        yield from frontend.submit(probe, shard=source)
