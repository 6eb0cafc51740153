"""Lightweight profiling hooks: named span timers and a hot-path table.

``cProfile`` on the exploration hot path distorts exactly what it
measures (every generator resume and scheduler call gets traced).  These
spans are the opposite trade-off: a handful of hand-placed timers around
the phases that matter — engine op execution, prefix replay, state
fingerprinting — with near-zero cost when profiling is off
and two ``perf_counter`` calls per span when it is on.

Usage::

    from repro.obs import profile

    profiler = profile.enable()
    ... run the workload ...
    print(profiler.report())       # sorted hot-path table
    profile.disable()

Instrumented code uses either the context manager::

    with profile.span("my.phase"):
        ...

(which is a shared no-op singleton while disabled), or — in per-step
loops — hoists :func:`active` out of the loop, accumulates locally, and
calls :meth:`Profiler.add` once (see ``Engine.run``), so the disabled
path costs a single ``None`` check per loop iteration at most.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, Optional

__all__ = ["Profiler", "SpanStats", "active", "disable", "enable", "enabled", "span"]


class SpanStats:
    """Accumulated time of one named span."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Profiler:
    """Named wall-clock accumulators with a sorted report."""

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStats] = {}

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Credit ``seconds`` (over ``count`` occurrences) to span ``name``."""
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.count += count
        stats.total += seconds

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into span ``name``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.add(name, perf_counter() - start)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready dump: name -> {count, total_seconds, mean_seconds}."""
        return {
            name: {
                "count": stats.count,
                "total_seconds": stats.total,
                "mean_seconds": stats.mean,
            }
            for name, stats in sorted(self.spans.items())
        }

    def report(self) -> str:
        """The hot-path table: spans sorted by total time, descending."""
        if not self.spans:
            return "profile: no spans recorded"
        rows = sorted(
            self.spans.items(), key=lambda item: item[1].total, reverse=True
        )
        name_width = max(len("span"), max(len(name) for name, _ in rows))
        lines = [
            f"{'span':<{name_width}}  {'calls':>10}  {'total (s)':>10}  {'mean (us)':>10}",
            f"{'-' * name_width}  {'-' * 10}  {'-' * 10}  {'-' * 10}",
        ]
        for name, stats in rows:
            lines.append(
                f"{name:<{name_width}}  {stats.count:>10}  "
                f"{stats.total:>10.4f}  {stats.mean * 1e6:>10.2f}"
            )
        return "\n".join(lines)


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NOOP = _NoopSpan()

#: The process-global profiler; ``None`` means profiling is disabled.
_PROFILER: Optional[Profiler] = None


def enable(profiler: Optional[Profiler] = None) -> Profiler:
    """Install (and return) the global profiler."""
    global _PROFILER
    _PROFILER = profiler if profiler is not None else Profiler()
    return _PROFILER


def disable() -> None:
    """Remove the global profiler; spans become no-ops again."""
    global _PROFILER
    _PROFILER = None


def active() -> Optional[Profiler]:
    """The global profiler, or ``None`` when profiling is disabled."""
    return _PROFILER


def enabled() -> bool:
    """Whether a global profiler is installed."""
    return _PROFILER is not None


def span(name: str):
    """A context manager timing into the global profiler (no-op if unset)."""
    profiler = _PROFILER
    if profiler is None:
        return _NOOP
    return profiler.span(name)
