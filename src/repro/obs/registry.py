"""Typed metrics registry: gauges and histograms with labels.

Sampled series only: event *counts* live in the always-on
:class:`~repro.metrics.ledger.MetricsLedger`, never here.

Instruments are interned by ``(name, labels)`` — asking for the same
instrument twice returns the same object, so call sites can either cache
the handle (hot paths do) or look it up ad hoc.  Gauges additionally keep
a bounded time series of ``(virtual_time, value)`` samples, fed by the
virtual-time ticker (:meth:`~repro.obs.runtime.ObsRuntime.start_sampling`)
so "queue depth over the run" is a plottable series, not one final number.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

#: samples retained per gauge series / histogram reservoir
DEFAULT_SERIES_BOUND = 4096

LabelKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


class Gauge:
    """A point-in-time level, with a bounded sample series.

    The series is a ring like the ledger's ``LatencyWindow``: at most
    ``bound`` samples are retained (newest win) while ``total`` counts
    every sample ever taken, so ``dropped`` says how much of a long
    SLO-window run scrolled out — a gauge never grows without limit.
    """

    __slots__ = ("name", "labels", "value", "series", "total", "bound")

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, Any], ...],
        bound: int = DEFAULT_SERIES_BOUND,
    ) -> None:
        if bound < 1:
            raise ValueError("gauge series bound must be >= 1")
        self.name = name
        self.labels = labels
        self.value: float = 0.0
        self.series: deque = deque(maxlen=bound)
        self.total = 0
        self.bound = bound

    @property
    def dropped(self) -> int:
        """Samples that scrolled out of the bounded series ring."""
        return self.total - len(self.series)

    def set(self, value: float) -> None:
        self.value = value

    def sample(self, now: float, value: float) -> None:
        """Set *value* and append it to the time series (ticker path)."""
        self.value = value
        self.series.append((now, value))
        self.total += 1


class Histogram:
    """Aggregated observations plus a bounded reservoir for percentiles."""

    __slots__ = ("name", "labels", "count", "total", "min", "max", "_reservoir")

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, Any], ...],
        bound: int = DEFAULT_SERIES_BOUND,
    ) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir: deque = deque(maxlen=bound)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._reservoir.append(value)

    @property
    def mean(self) -> Optional[float]:
        return None if self.count == 0 else self.total / self.count

    def percentile(self, q: float) -> Optional[float]:
        """Percentile over the retained reservoir (recent traffic)."""
        if not self._reservoir:
            return None
        ordered = sorted(self._reservoir)
        index = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
        return ordered[index]


def _label_key(name: str, labels: Dict[str, Any]) -> LabelKey:
    return name, tuple(sorted(labels.items()))


class MetricsRegistry:
    """Interned gauges/histograms, addressable by name + labels."""

    def __init__(self) -> None:
        self._gauges: Dict[LabelKey, Gauge] = {}
        self._histograms: Dict[LabelKey, Histogram] = {}

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _label_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = _label_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1])
        return instrument

    # ------------------------------------------------------------------
    def gauges(self) -> List[Gauge]:
        return list(self._gauges.values())

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-friendly dict of every instrument's current reading."""

        def tag(name: str, labels: Tuple[Tuple[str, Any], ...]) -> str:
            if not labels:
                return name
            rendered = ",".join(f"{k}={v}" for k, v in labels)
            return f"{name}{{{rendered}}}"

        out: Dict[str, Any] = {}
        for g in self._gauges.values():
            out[tag(g.name, g.labels)] = g.value
        for h in self._histograms.values():
            out[tag(h.name, h.labels)] = {
                "count": h.count,
                "mean": h.mean,
                "min": h.min,
                "max": h.max,
                "p99": h.percentile(99),
            }
        return out
