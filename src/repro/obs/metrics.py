"""Zero-dependency metrics registry: counters, gauges, histograms.

The registry is the measurement substrate under every exploration,
detector run, and estimator sweep: instrumented code reports *what it
did* (schedules run, states expanded, cache hits, wall-clock,
detector verdicts) and callers read it back as a plain-dict snapshot
suitable for JSONL export (:mod:`repro.obs.runlog`) or assertion in
tests and benchmarks.

Design constraints, in order:

1. **Off by default, free when off.**  Nothing in the hot paths may pay
   for observability the user did not ask for.  The module-level helpers
   (:func:`inc`, :func:`set_gauge`, :func:`observe`) are no-ops — one
   global read and a ``None`` check — until :func:`enable` installs a
   registry.  Instrumented code either calls the helpers at *run*
   granularity (never per engine step) or hoists ``active()`` out of its
   loop.
2. **Labels, not name mangling.**  A metric is identified by
   ``(name, sorted label items)``; the same counter name aggregates
   across programs/explorers and slices by label.
3. **No dependencies, no threads, no locks.**  Service worker
   *processes* each see their own (forked) registry; what crosses the
   fork boundary is the job payload, not the registry (see
   ``docs/observability.md``).

Metric types:

* **counter** — monotonically increasing float (``inc``);
* **gauge** — last-write-wins float (``set_gauge``);
* **histogram** — running count/sum/min/max of observations
  (``observe``) — enough for balance and latency evidence without
  bucket configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "HistogramStats",
    "MetricsRegistry",
    "active",
    "disable",
    "enable",
    "enabled",
    "inc",
    "observe",
    "set_gauge",
    "snapshot",
]

#: A metric key: name plus its label set, canonically ordered.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class HistogramStats:
    """Running summary of one histogram series."""

    count: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
        }


class MetricsRegistry:
    """An isolated set of named, labelled metric series."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, HistogramStats] = {}

    # -- writing -----------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        """Add ``value`` to the counter ``name`` with ``labels``."""
        key = _key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge ``name`` with ``labels`` (last write wins)."""
        self._gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one observation in the histogram ``name`` with ``labels``."""
        key = _key(name, labels)
        stats = self._histograms.get(key)
        if stats is None:
            stats = self._histograms[key] = HistogramStats()
        stats.observe(value)

    # -- reading -----------------------------------------------------------

    def counter(self, name: str, **labels: object) -> float:
        """The counter's current value (0 if never incremented)."""
        return self._counters.get(_key(name, labels), 0)

    def counter_total(self, name: str) -> float:
        """Sum of the counter across every label combination."""
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def gauge(self, name: str, **labels: object) -> Optional[float]:
        """The gauge's current value, or ``None`` if never set."""
        return self._gauges.get(_key(name, labels))

    def histogram(self, name: str, **labels: object) -> Optional[HistogramStats]:
        """The histogram's running stats, or ``None`` if never observed."""
        return self._histograms.get(_key(name, labels))

    def series(self, name: str) -> Iterator[Tuple[Dict[str, str], object]]:
        """Every (labels, value-or-stats) series recorded under ``name``."""
        for store in (self._counters, self._gauges, self._histograms):
            for (n, labels), value in store.items():
                if n == name:
                    yield dict(labels), value

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-ready dump of every series, keyed ``name{k=v,...}``."""

        def render(key: MetricKey) -> str:
            name, labels = key
            if not labels:
                return name
            inner = ",".join(f"{k}={v}" for k, v in labels)
            return f"{name}{{{inner}}}"

        return {
            "counters": {
                render(k): v for k, v in sorted(self._counters.items())
            },
            "gauges": {render(k): v for k, v in sorted(self._gauges.items())},
            "histograms": {
                render(k): stats.as_dict()
                for k, stats in sorted(self._histograms.items())
            },
        }


#: The process-global registry; ``None`` means metrics are disabled and
#: every module-level helper below returns immediately.
_REGISTRY: Optional[MetricsRegistry] = None


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) the global registry; starts empty by default."""
    global _REGISTRY
    _REGISTRY = registry if registry is not None else MetricsRegistry()
    return _REGISTRY


def disable() -> None:
    """Remove the global registry; helpers become no-ops again."""
    global _REGISTRY
    _REGISTRY = None


def active() -> Optional[MetricsRegistry]:
    """The global registry, or ``None`` when metrics are disabled."""
    return _REGISTRY


def enabled() -> bool:
    """Whether a global registry is installed."""
    return _REGISTRY is not None


def inc(name: str, value: float = 1, **labels: object) -> None:
    """Increment on the global registry; no-op when disabled."""
    registry = _REGISTRY
    if registry is not None:
        registry.inc(name, value, **labels)


def set_gauge(name: str, value: float, **labels: object) -> None:
    """Set a gauge on the global registry; no-op when disabled."""
    registry = _REGISTRY
    if registry is not None:
        registry.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    """Observe into a histogram on the global registry; no-op when disabled."""
    registry = _REGISTRY
    if registry is not None:
        registry.observe(name, value, **labels)


def snapshot() -> Optional[Dict[str, Dict]]:
    """Snapshot of the global registry, or ``None`` when disabled."""
    registry = _REGISTRY
    return registry.snapshot() if registry is not None else None
