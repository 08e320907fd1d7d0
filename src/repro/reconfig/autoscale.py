"""The autoscaler: metrics-driven split proposals.

A pure policy object: it watches the metrics ledger's per-shard commit
rates (differentiated from ``shard_commits``) and proposes a
:class:`SplitShard` of the hottest shard above the rate threshold.  It
never touches the cluster — the elastic service commits whatever it
proposes through the config log, so autoscaling decisions go through
exactly the same replicated, fenced path as operator-issued ones.

One deliberately simple threshold (commands per kilo-delay): the
interesting machinery is the reconfiguration it triggers, not the
control theory.  One proposal at a time, with a cooldown, so the system
observes a full post-migration window before deciding again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.metrics.ledger import MetricsLedger
from repro.reconfig.epochs import SplitShard


@dataclass
class AutoscalerConfig:
    """Threshold and pacing for the split policy."""

    #: sampling period in simulated delays
    interval: float = 60.0
    #: split when any shard commits faster than this (commands/kilo-delay)
    split_above: float = 120.0
    max_shards: int = 16
    #: quiet period after any proposal before the next one
    cooldown: float = 150.0

    def __post_init__(self) -> None:
        # A zero interval re-samples at the same instant forever, so
        # virtual time would never advance.
        if not (math.isfinite(self.interval) and self.interval > 0):
            raise ConfigurationError(
                f"interval must be finite and > 0, got {self.interval!r}"
            )
        if not self.cooldown >= 0:
            raise ConfigurationError(f"cooldown must be >= 0, got {self.cooldown!r}")


class Autoscaler:
    """Differentiates ledger counters into rates and applies thresholds."""

    def __init__(self, config: Optional[AutoscalerConfig] = None) -> None:
        self.config = config or AutoscalerConfig()
        self._last_time: Optional[float] = None
        self._last_commits: Dict[int, int] = {}
        self._last_proposal_at = float("-inf")
        #: every (time, proposal) this policy emitted, for inspection
        self.proposals: List[tuple] = []

    # ------------------------------------------------------------------
    def window(self, now: float, ledger: MetricsLedger, shards) -> Dict[int, float]:
        """Per-shard commit rate over the window since the last call."""
        out: Dict[int, float] = {}
        elapsed = None if self._last_time is None else now - self._last_time
        for shard in shards:
            count = ledger.shard_commits.get(shard, 0)
            delta = count - self._last_commits.get(shard, 0)
            self._last_commits[shard] = count
            rate = 0.0
            if elapsed and elapsed > 0:
                rate = 1000.0 * delta / elapsed
            out[shard] = rate
        self._last_time = now
        return out

    def observe(
        self, now: float, ledger: MetricsLedger, shards, pending: bool
    ) -> List[object]:
        """One sampling tick: returns at most one split proposal.

        The first tick only establishes the baseline window.  No proposal
        is made while a reconfiguration is *pending* (mid-migration load
        numbers are transients) or inside the cooldown.
        """
        shards = list(shards)
        first = self._last_time is None
        rates = self.window(now, ledger, shards)
        cfg = self.config
        if first or pending or now - self._last_proposal_at < cfg.cooldown:
            return []
        overloaded = [g for g in shards if rates[g] > cfg.split_above]
        if len(shards) >= cfg.max_shards or not overloaded:
            return []
        proposal = SplitShard(hot_shard=max(overloaded, key=lambda g: rates[g]))
        self._last_proposal_at = now
        self.proposals.append((now, proposal))
        return [proposal]
