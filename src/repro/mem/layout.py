"""Memory layouts: the set of regions every memory replica boots with.

Protocols contribute :class:`~repro.mem.regions.RegionSpec` lists; a cluster
merges them into one :class:`MemoryLayout` that every memory is initialised
from.  Since replicated registers place the *same* region structure on every
memory, one layout describes all memories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.mem.permissions import Permission
from repro.mem.regions import RegionSpec
from repro.types import RegionId, RegisterKey


@dataclass
class MemoryLayout:
    """An ordered collection of non-overlapping region specifications."""

    regions: List[RegionSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        # a copy: region builders hand out one shared tuple per shape
        self.regions = list(self.regions)
        self._by_id: Dict[RegionId, RegionSpec] = {}
        #: region id -> boot permission, the map every memory copies when
        #: it boots or is wiped
        self.boot_permissions: Dict[RegionId, Permission] = {}
        for spec in self.regions:
            self._register(spec)

    def _register(self, spec: RegionSpec) -> None:
        if spec.region_id in self._by_id:
            raise ConfigurationError(f"duplicate region id {spec.region_id!r}")
        for existing in self._by_id.values():
            if existing.overlaps(spec):
                raise ConfigurationError(
                    f"region {spec.region_id!r} overlaps {existing.region_id!r}; "
                    "the paper's algorithms use non-overlapping regions"
                )
        self._by_id[spec.region_id] = spec
        self.boot_permissions[spec.region_id] = spec.initial_permission

    def add(self, spec: RegionSpec) -> None:
        """Add one region, rejecting duplicates and overlaps."""
        self._register(spec)
        self.regions.append(spec)

    def extend(self, specs: Iterable[RegionSpec]) -> None:
        for spec in specs:
            self.add(spec)

    def merged_with(self, other: "MemoryLayout") -> "MemoryLayout":
        """A new layout combining this one's regions with *other*'s."""
        merged = MemoryLayout(self.regions)
        merged.extend(other.regions)
        return merged

    def by_id(self, region_id: RegionId) -> Optional[RegionSpec]:
        """The region spec named *region_id*, or None."""
        return self._by_id.get(region_id)

    def region_for(self, key: RegisterKey) -> Optional[RegionSpec]:
        """The unique region containing register *key*, or None."""
        for spec in self.regions:
            if spec.contains(key):
                return spec
        return None

    def region_ids(self) -> List[RegionId]:
        return [spec.region_id for spec in self.regions]
