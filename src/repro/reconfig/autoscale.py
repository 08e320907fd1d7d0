"""The autoscaler: metrics-driven split/merge proposals.

A pure policy object: it watches the metrics ledger (per-shard commit
rates differentiated from ``shard_commits``, p99 latency over the recent
``shard_latencies`` window) and emits :class:`SplitShard` /
:class:`MergeShard` proposals.  It never touches the cluster — the
elastic service commits whatever it proposes through the config log, so
autoscaling decisions go through exactly the same replicated, fenced
path as operator-issued ones.

Deliberately simple thresholds (commands per kilo-delay, p99 in delays):
the interesting machinery is the reconfiguration it triggers, not the
control theory.  One proposal at a time, with a cooldown, so the system
observes a full post-migration window before deciding again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.metrics.ledger import MetricsLedger
from repro.metrics.workload import percentile
from repro.reconfig.epochs import MergeShard, SplitShard


@dataclass
class AutoscalerConfig:
    """Thresholds and pacing for the split/merge policy."""

    #: sampling period in simulated delays
    interval: float = 60.0
    #: split when any shard commits faster than this (commands/kilo-delay)
    split_above: float = 120.0
    #: or when any shard's windowed p99 exceeds this (delays)
    p99_above: float = float("inf")
    #: merge the coldest shard when the whole service commits slower than
    #: this per shard (commands/kilo-delay); never merges by default
    merge_below: float = 0.0
    min_shards: int = 1
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
        if self.min_shards < 1:
            raise ConfigurationError(f"min_shards must be >= 1, got {self.min_shards}")
        if self.min_shards > self.max_shards:
            raise ConfigurationError(
                f"min_shards {self.min_shards} exceeds max_shards {self.max_shards}"
            )


class Autoscaler:
    """Differentiates ledger counters into rates and applies thresholds."""

    def __init__(self, config: Optional[AutoscalerConfig] = None) -> None:
        self.config = config or AutoscalerConfig()
        self._last_time: Optional[float] = None
        self._last_commits: Dict[int, int] = {}
        self._last_latency_index: Dict[int, int] = {}
        self._last_proposal_at = float("-inf")
        #: every (time, proposal) this policy emitted, for inspection
        self.proposals: List[tuple] = []

    # ------------------------------------------------------------------
    def window(self, now: float, ledger: MetricsLedger, shards) -> Dict[int, tuple]:
        """Per-shard ``(rate, p99)`` over the window since the last call."""
        out: Dict[int, tuple] = {}
        elapsed = None if self._last_time is None else now - self._last_time
        for shard in shards:
            count = ledger.shard_commits.get(shard, 0)
            delta = count - self._last_commits.get(shard, 0)
            self._last_commits[shard] = count
            rate = 0.0
            if elapsed and elapsed > 0:
                rate = 1000.0 * delta / elapsed
            window = ledger.shard_latencies.get(shard)
            if window is None:
                fresh = []
            else:
                # windows are bounded rings: address fresh samples by their
                # global append index; anything that scrolled out since the
                # last tick is gone, which is fine for a recent-p99 reading
                fresh = window.since(self._last_latency_index.get(shard, 0))
                self._last_latency_index[shard] = window.total
            p99 = percentile(fresh, 0.99) if fresh else 0.0
            out[shard] = (rate, p99)
        self._last_time = now
        return out

    def observe(
        self, now: float, ledger: MetricsLedger, shards, pending: bool
    ) -> List[object]:
        """One sampling tick: returns at most one split/merge proposal.

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
        overloaded = [
            g for g in shards
            if rates[g][0] > cfg.split_above or rates[g][1] > cfg.p99_above
        ]
        if len(shards) < cfg.max_shards and overloaded:
            hot = max(overloaded, key=lambda g: rates[g])
            proposal = SplitShard(hot_shard=hot)
            self._last_proposal_at = now
            self.proposals.append((now, proposal))
            return [proposal]
        if len(shards) > cfg.min_shards:
            mean_rate = sum(rates[g][0] for g in shards) / len(shards)
            if mean_rate < cfg.merge_below:
                cold = min(shards, key=lambda g: (rates[g][0], g))
                proposal = MergeShard(cold)
                self._last_proposal_at = now
                self.proposals.append((now, proposal))
                return [proposal]
        return []
