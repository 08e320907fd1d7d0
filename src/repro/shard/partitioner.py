"""Consistent-hash key partitioning across consensus groups, with epochs.

Keys map to shards via a hash ring with virtual nodes: each shard owns
many points on a 160-bit circle, and a key belongs to the first shard
point at or after the key's own hash.  Three properties matter here:

* **determinism** — the ring is built from SHA-1, never Python's salted
  ``hash``, so every process (and every run with the same config) routes
  a key identically; replicas of different processes must agree on
  ownership without communicating.
* **stability** — adding a shard moves only ~1/n of the keyspace, the
  classic consistent-hashing win the reconfiguration subsystem relies
  on: a split steals a slice from every existing shard and a merge
  spills the victim's keys across the survivors, but no key ever moves
  between two shards that were not themselves added or removed.
* **versioning** — rings are immutable and numbered.  Reconfiguration
  *stages* the next epoch's ring (so migration can route to the future
  owners while clients still route to the old ones — the dual-ownership
  window) and *activates* it at cutover.  :class:`RingDiff` describes
  exactly which arcs of the circle changed owner between two versions.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: size of the SHA-1 hash circle (all ring arithmetic is modulo this)
CIRCLE = 1 << 160


def hash_point(label: str) -> int:
    """A deterministic position on the 160-bit hash circle."""
    return int.from_bytes(hashlib.sha1(label.encode("utf-8")).digest(), "big")


#: module-internal alias (the public name is :func:`hash_point`)
_point = hash_point


class HashRing:
    """One immutable, numbered placement of shard ids on the circle.

    Shard ids are stable across epochs (a split allocates a fresh id, a
    merge retires one), so a surviving shard's virtual nodes sit at the
    same points in every version — that is what bounds key movement.
    """

    __slots__ = ("version", "shards", "_points", "_owners")

    def __init__(
        self, version: int, shards: Iterable[int], vnodes: int, salt: str
    ) -> None:
        self.version = version
        self.shards: Tuple[int, ...] = tuple(sorted(set(int(s) for s in shards)))
        if not self.shards:
            raise ConfigurationError("a ring needs at least one shard")
        ring: List[Tuple[int, int]] = []
        for shard in self.shards:
            for replica in range(vnodes):
                ring.append((_point(f"{salt}shard-{shard}#{replica}"), shard))
        ring.sort()
        self._points = [point for point, _shard in ring]
        self._owners = [shard for _point, shard in ring]

    def owner_of(self, point: int) -> int:
        """The shard owning circle position *point* (first point at or
        after it, wrapping)."""
        index = bisect.bisect_left(self._points, point)
        if index == len(self._points):
            index = 0  # wrap around the circle
        return self._owners[index]

    def shard_for(self, key: str) -> int:
        return self.owner_of(_point(key))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRing(v{self.version}, shards={self.shards})"


class RingDiff:
    """The arcs of the circle whose owner changed between two rings.

    ``intervals`` are half-open arcs ``(lo, hi, old_owner, new_owner)``
    covering hashes ``lo < h <= hi`` (wrapping when ``hi <= lo``): every
    key hashing into one of them moves ``old_owner -> new_owner`` at
    activation, and every key outside them stays put.  The migrator
    streams exactly these ranges; the property tests check nothing else
    moved.
    """

    __slots__ = ("old_version", "new_version", "intervals")

    def __init__(
        self,
        old_version: int,
        new_version: int,
        intervals: Tuple[Tuple[int, int, int, int], ...],
    ) -> None:
        self.old_version = old_version
        self.new_version = new_version
        self.intervals = intervals

    @property
    def moved_fraction(self) -> float:
        """Fraction of the hash circle (≈ of a uniform keyspace) that
        changes owner."""
        total = sum((hi - lo) % CIRCLE for lo, hi, _o, _n in self.intervals)
        return total / CIRCLE

    def movement_of(self, key: str) -> Optional[Tuple[int, int]]:
        """``(old_owner, new_owner)`` if *key* moves, else None."""
        point = _point(key)
        for lo, hi, old_owner, new_owner in self.intervals:
            if lo < hi:
                inside = lo < point <= hi
            else:  # wrapping arc
                inside = point > lo or point <= hi
            if inside:
                return (old_owner, new_owner)
        return None

    def pairs(self) -> set:
        """The distinct ``(old_owner, new_owner)`` movements in this diff."""
        return {(old, new) for _lo, _hi, old, new in self.intervals}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RingDiff(v{self.old_version}->v{self.new_version}, "
            f"{len(self.intervals)} arcs, {self.moved_fraction:.3f} moved)"
        )


def ring_diff(old: HashRing, new: HashRing) -> RingDiff:
    """Compute which arcs change owner going from ring *old* to *new*.

    The union of both rings' points partitions the circle into arcs on
    which both ownership functions are constant; comparing the owners at
    each arc's upper boundary classifies the whole arc.
    """
    bounds = sorted(set(old._points) | set(new._points))
    intervals: List[Tuple[int, int, int, int]] = []
    prev = bounds[-1]  # the first arc wraps: (last_bound, first_bound]
    for bound in bounds:
        old_owner = old.owner_of(bound)
        new_owner = new.owner_of(bound)
        if old_owner != new_owner:
            intervals.append((prev, bound, old_owner, new_owner))
        prev = bound
    return RingDiff(old.version, new.version, tuple(intervals))


class ConsistentHashPartitioner:
    """Maps string keys to shard ids via versioned hash rings.

    Boot installs ring version 0 over shards ``0..n_shards-1``.  The
    reconfiguration subsystem then drives the epoch lifecycle:
    ``stage(shards)`` builds the next version (visible to explicit
    ``version=`` lookups — the migrator's view of the future) and
    ``activate(version)`` flips client routing to it at cutover.
    """

    def __init__(
        self,
        n_shards: int,
        vnodes: int = 64,
        salt: str = "",
        cache_max: int = 4096,
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if vnodes < 1:
            raise ValueError("need at least one virtual node per shard")
        self.vnodes = vnodes
        self.salt = salt
        self.cache_max = cache_max
        ring = HashRing(0, range(n_shards), vnodes, salt)
        self._rings: Dict[int, HashRing] = {0: ring}
        self._current = ring
        #: key -> shard memo for the CURRENT ring only; workload keyspaces
        #: are bounded and hot keys repeat (Zipfian), so the per-request
        #: SHA-1 is paid once per key.  Keyed by ring version (stale owners
        #: must never survive a ring change) and bounded: once full, cold
        #: keys pay the hash instead of growing the memo without limit.
        self._cache: Dict[str, int] = {}
        self._cache_version = 0

    # ------------------------------------------------------------------
    # current-ring view (the router's hot path)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Version of the ring client traffic routes by."""
        return self._current.version

    @property
    def shards(self) -> Tuple[int, ...]:
        """Shard ids owning keys in the current ring."""
        return self._current.shards

    @property
    def n_shards(self) -> int:
        return len(self._current.shards)

    def shard_for(self, key: str, version: Optional[int] = None) -> int:
        """The shard owning *key* — in the routing ring, or in an explicit
        *version* (staged rings included: the migrator asks the future)."""
        if version is not None and version != self._current.version:
            return self._rings[version].shard_for(key)
        if self._cache_version != self._current.version:
            self._cache.clear()
            self._cache_version = self._current.version
        shard = self._cache.get(key)
        if shard is None:
            shard = self._current.shard_for(key)
            if len(self._cache) < self.cache_max:
                self._cache[key] = shard
        return shard

    def distribution(self, keys: Iterable[str], version: Optional[int] = None) -> Counter:
        """How many of *keys* each shard owns (diagnostics and tests)."""
        ring = self._current if version is None else self._rings[version]
        counts: Counter = Counter({shard: 0 for shard in ring.shards})
        for key in keys:
            counts[ring.shard_for(key)] += 1
        return counts

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def ring(self, version: Optional[int] = None) -> HashRing:
        return self._current if version is None else self._rings[version]

    def stage(self, version: int, shards: Sequence[int]) -> RingDiff:
        """Register ring *version* over *shards* without flipping routing.

        Returns the diff from the current routing ring; idempotent for a
        version already staged with the same shard set (the coordinator
        re-stages after a crash)."""
        existing = self._rings.get(version)
        if existing is not None:
            if existing.shards != tuple(sorted(set(int(s) for s in shards))):
                raise ConfigurationError(
                    f"ring v{version} already staged with different shards"
                )
            return ring_diff(self._current, existing)
        if version <= max(self._rings):
            raise ConfigurationError(
                f"ring v{version} would not be the newest (have v{max(self._rings)})"
            )
        ring = HashRing(version, shards, self.vnodes, self.salt)
        self._rings[version] = ring
        return ring_diff(self._current, ring)

    def activate(self, version: int) -> None:
        """Flip client routing to staged ring *version* (the cutover)."""
        ring = self._rings.get(version)
        if ring is None:
            raise ConfigurationError(f"ring v{version} was never staged")
        self._current = ring

    def diff(self, old_version: int, new_version: int) -> RingDiff:
        """The movement description between two registered versions."""
        return ring_diff(self._rings[old_version], self._rings[new_version])
