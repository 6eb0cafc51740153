"""Per-layer metrics derived from a traced run's spans and counters."""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Per-layer time metric -> the spans whose self times it sums.
SPAN_TIMES = {
    "engine.init_s": ("engine.init",),
    "engine.run_s": ("engine.run",),
    "explorer.self_s": ("explorer.explore",),
    "sleepset.self_s": ("sleepset.explore",),
    "dpor.self_s": ("dpor.explore",),
    "dpor.dependence_s": ("dpor.dependence",),
    "statecache.fingerprint_s": ("statecache.fingerprint",),
    "pipeline.feed_s": ("pipeline.feed",),
    "pipeline.snapshot_s": ("pipeline.snapshot", "pipeline.restore"),
    "pipeline.finish_s": ("pipeline.finish",),
    "static.analyse_s": ("static.analyse",),
    "static.pysource_s": ("static.pysource",),
    "static.lift_s": ("static.lift",),
    "service.submit_s": ("service.submit",),
    "service.key_s": ("service.key",),
    "service.cache_lookup_s": ("service.cache_lookup",),
    "service.cache_write_s": ("service.cache_write",),
}

#: Per-layer time metrics the service path measures as counters.
COUNTED_TIMES = (
    "service.queue_wait_s", "service.dispatch_s", "service.worker_s",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Dict[str, Dict[str, float]],
    wall_s: float,
    untraced_wall_s: float,
    setup: Dict[str, float],
    error_rate: float,
    service: Optional[Dict[str, float]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric as ``{name: {"value", "unit"}}``.

    ``wall_s`` is the traced run's wall time and ``untraced_wall_s`` the
    same work untraced; ``service`` carries the client-side service
    numbers (``protocol_s``, ``latency_s`` summed over verdicts,
    ``coalesced``, ``failed``), absent for the in-process workloads.
    """
    self_s, calls = spans.get("self", {}), spans.get("calls", {})
    counts = spans.get("counts", {})
    out: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    put("setup.import_s", setup["import_s"], "s")
    put("setup.corpus_s", setup["corpus_s"], "s")
    times = {
        name: sum(self_s.get(span, 0.0) for span in names)
        for name, names in SPAN_TIMES.items()
    }
    for name in COUNTED_TIMES:
        times[name] = counts.get(name, 0.0)
    service = service or {}
    times["service.protocol_s"] = service.get("protocol_s", 0.0)
    for name, value in times.items():
        put(name, value, "s")
        put(name[:-2] + "_share", _ratio(value, wall_s), "share")

    steps = counts.get("engine.steps", 0)
    schedules = counts.get("explorer.schedules", 0)
    expanded = counts.get("explorer.states_expanded", 0)
    put("engine.runs", calls.get("engine.run", 0), "count")
    put("engine.steps", steps, "count")
    put("engine.steps_per_s", _ratio(steps, times["engine.run_s"]), "1/s")
    put("explorer.schedules", schedules, "count")
    put("explorer.states_expanded", expanded, "count")
    put("explorer.replay_frac", 1.0 - _ratio(expanded, steps) if steps else 0.0,
        "share")
    put("explorer.schedules_per_s", _ratio(schedules, wall_s), "1/s")
    attempts = counts.get("sleepset.attempts", 0)
    put("sleepset.attempts", attempts, "count")
    put("sleepset.useful_frac", _ratio(counts.get("sleepset.schedules", 0), attempts),
        "share")
    put("dpor.schedules", counts.get("dpor.schedules", 0), "count")
    put("dpor.dependence_checks", calls.get("dpor.dependence", 0), "count")
    put("dpor.races", counts.get("dpor.races", 0), "count")
    put("statecache.fingerprints", calls.get("statecache.fingerprint", 0), "count")
    put("statecache.hit_frac",
        _ratio(counts.get("statecache.hits", 0), counts.get("statecache.lookups", 0)),
        "share")
    dispatched = counts.get("pipeline.dispatched", 0)
    reused = counts.get("pipeline.reused", 0)
    put("pipeline.events", calls.get("pipeline.feed", 0), "count")
    put("pipeline.reuse_frac", _ratio(reused, dispatched + reused), "share")
    put("service.hit_frac",
        _ratio(counts.get("service.cache_hits", 0),
               counts.get("service.cache_lookups", 0)),
        "share")
    put("service.coalesced", service.get("coalesced", 0), "count")
    put("service.failed", service.get("failed", 0), "count")

    if service:
        # Server-side life of each verdict that no service span explains.
        latency = service["latency_s"]
        unaccounted = latency - sum(
            times[name] for name in (
                "service.protocol_s", "service.queue_wait_s",
                "service.dispatch_s", "service.worker_s",
                "service.cache_write_s",
            )
        )
        put("trace.unaccounted_frac", _ratio(unaccounted, latency), "share")
    else:
        put("trace.unaccounted_frac",
            1.0 - _ratio(sum(self_s.values()), wall_s), "share")
    put("trace.wall_s", wall_s, "s")
    put("trace.untraced_wall_s", untraced_wall_s, "s")
    put("trace.overhead_s", wall_s - untraced_wall_s, "s")
    put("error_rate", error_rate, "share")
    return out
