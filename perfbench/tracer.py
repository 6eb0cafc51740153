"""Layer spans recorded from outside the program.

:func:`install` wraps the public functions at each layer boundary of
``repro`` (class methods are replaced on the class, module-level
functions in every module namespace that imported them).  Each wrapped
call records one span; a span's *self* time is its duration minus the
spans that ran inside it, so self times of all spans partition the time
spent inside any traced layer.  Counts (engine steps, schedules, races)
are read off the wrapped calls' arguments and results at the same
boundaries.  Nothing is written until the benchmark asks for
:meth:`Tracer.dump`.

The wrappers refer to one process-wide :data:`TRACER`: fork workers of
the service inherit it, and :func:`traced_run_job` ships each job's
worker-side spans back inside the job payload.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Payload key under which a traced worker returns its spans.
PAYLOAD_KEY = "perfbench_spans"


class Tracer:
    """Span self times, call counts and extra counters by name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(int)
        #: Child-time accumulators of the open spans, innermost last.
        self.stack: List[float] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def dump(self) -> Dict[str, Dict[str, float]]:
        return {
            "self": dict(self.self_s), "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def merge(self, dumped: Dict[str, Dict[str, float]]) -> None:
        for field, into in (
            ("self", self.self_s), ("calls", self.calls), ("counts", self.counts),
        ):
            for name, value in dumped.get(field, {}).items():
                into[name] += value

    def delta(self, before: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
        now = self.dump()
        return {
            field: {
                name: value - before[field].get(name, 0)
                for name, value in values.items()
                if value != before[field].get(name, 0)
            }
            for field, values in now.items()
        }


TRACER = Tracer()


def _span(name: str, fn: Callable, on_exit: Optional[Callable] = None) -> Callable:
    """Wrap a synchronous callable as a nested span."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = TRACER
        stack = tracer.stack
        stack.append(0.0)
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            elapsed = perf_counter() - start
            child = stack.pop()
            tracer.self_s[name] += elapsed - child
            tracer.calls[name] += 1
            if stack:
                stack[-1] += elapsed
            if on_exit is not None:
                on_exit(tracer, args, result)

    return traced


def _async_span(name: str, fn: Callable, on_exit: Optional[Callable] = None) -> Callable:
    """Wrap a coroutine function as a leaf span (coroutines interleave,
    so they take no part in the nesting stack)."""

    @functools.wraps(fn)
    async def traced(*args, **kwargs):
        tracer = TRACER
        result = None
        start = perf_counter()
        try:
            result = await fn(*args, **kwargs)
            return result
        finally:
            elapsed = perf_counter() - start
            tracer.self_s[name] += elapsed
            tracer.calls[name] += 1
            if on_exit is not None:
                on_exit(tracer, args, result, elapsed)

    return traced


# -- counters read at the boundaries -----------------------------------------


def _engine_run_exit(tracer, args, result):
    tracer.add("engine.steps", args[0].steps)


def _exploration_exit(kind: str) -> Callable:
    def on_exit(tracer, args, result):
        if result is None:
            return
        tracer.add("explorer.schedules", result.schedules_run)
        tracer.add("explorer.states_expanded", result.states_expanded)
        tracer.add("statecache.hits", result.cache_hits)
        tracer.add("statecache.lookups", result.cache_lookups)
        stats = result.pipeline_stats
        if stats:
            tracer.add("pipeline.dispatched", stats.get("events_dispatched", 0))
            tracer.add("pipeline.reused", stats.get("events_reused", 0))
        if kind == "sleepset":
            tracer.add("sleepset.schedules", result.schedules_run)
            tracer.add(
                "sleepset.attempts",
                result.schedules_run + result.cache_hits + args[0].pruned_runs,
            )
        elif kind == "dpor":
            tracer.add("dpor.schedules", result.schedules_run)
            tracer.add("dpor.races", args[0].races_detected)

    return on_exit


def _cache_get_exit(tracer, args, result):
    tracer.add("service.cache_lookups", 1)
    if result is not None:
        tracer.add("service.cache_hits", 1)


def _fleet_run_exit(tracer, args, payload, elapsed):
    job = args[1]
    tracer.add("service.queue_wait_s", max(0.0, time.time() - elapsed - job.submitted_ts))
    if not isinstance(payload, dict):
        return
    spans = payload.pop(PAYLOAD_KEY, None)
    if spans:
        tracer.merge(spans)
    worker = float(payload.get("worker_wall_seconds", 0.0))
    tracer.add("service.worker_s", worker)
    tracer.add("service.dispatch_s", elapsed - worker)


# -- installation ------------------------------------------------------------

#: (span name, module, attribute path, further modules that imported the
#:  same function, on-exit counter hook).  Class methods are patched on
#:  the class, so every importer sees them; a module-level function is
#:  patched only in the named namespaces, so a span covers exactly the
#:  callers that layer owns (``dpor.dependence`` is DPOR's dependence
#:  checks, not the sleep-set explorer's).
HOOKS = (
    ("engine.init", "repro.sim.engine", "Engine.__init__", (), None),
    ("engine.run", "repro.sim.engine", "Engine.run", (), _engine_run_exit),
    ("explorer.explore", "repro.sim.explorer", "Explorer.explore", (),
     _exploration_exit("dfs")),
    ("sleepset.explore", "repro.sim.reduction", "SleepSetExplorer.explore", (),
     _exploration_exit("sleepset")),
    ("dpor.explore", "repro.sim.dpor", "DPORExplorer.explore", (),
     _exploration_exit("dpor")),
    ("dpor.dependence", "repro.sim.dpor", "ops_dependent", (), None),
    ("statecache.fingerprint", "repro.sim.explorer", "state_fingerprint",
     ("repro.sim.reduction", "repro.sim.dpor"), None),
    ("pipeline.feed", "repro.detectors.pipeline", "DetectorPipeline.feed", (), None),
    ("pipeline.snapshot", "repro.detectors.pipeline", "DetectorPipeline.snapshot",
     (), None),
    ("pipeline.restore", "repro.detectors.pipeline", "DetectorPipeline.restore",
     (), None),
    ("pipeline.finish", "repro.detectors.pipeline", "DetectorPipeline.finish_pass",
     (), None),
    ("static.analyse", "repro.static", "analyse", (), None),
    ("static.pysource", "repro.static.pysource", "load_source", (), None),
    ("static.lift", "repro.static.lift", "confirm", (), None),
)

#: Service-process hooks (the server of ``repro serve``).
SERVICE_HOOKS = (
    ("service.submit", "repro.service.queue", "ReproService.submit", (), None),
    ("service.key", "repro.service.queue", "kernel_cache_key", (), None),
    ("service.key", "repro.service.queue", "source_cache_key", (), None),
    ("service.cache_lookup", "repro.service.resultcache", "ResultCache.get", (),
     _cache_get_exit),
    ("service.cache_write", "repro.service.resultcache", "ResultCache.put", (),
     None),
    ("service.fleet_run", "repro.service.workers", "WorkerFleet.run", (),
     _fleet_run_exit),
)


def _patch(name, module_name, path, importers, on_exit) -> None:
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    original = getattr(owner, attr)
    wrap = _async_span if inspect.iscoroutinefunction(original) else _span
    traced = wrap(name, original, on_exit)
    setattr(owner, attr, traced)
    for importer in importers:
        other = importlib.import_module(importer)
        if getattr(other, attr, None) is original:
            setattr(other, attr, traced)
        else:
            raise RuntimeError(f"{importer}.{attr} is not {module_name}.{attr}")


def install(service: bool = False) -> None:
    """Wrap every layer boundary (and the service's, when ``service``)."""
    for hook in HOOKS + (SERVICE_HOOKS if service else ()):
        _patch(*hook)
    if service:
        from repro.service import workers

        global _ORIGINAL_RUN_JOB
        _ORIGINAL_RUN_JOB = workers.run_job
        workers.run_job = traced_run_job


_ORIGINAL_RUN_JOB: Optional[Callable] = None


def traced_run_job(kind_value: str, kernel_name: str,
                   options_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side ``run_job`` that returns the job's spans in its payload."""
    before = TRACER.dump()
    TRACER.stack = []
    payload = _ORIGINAL_RUN_JOB(kind_value, kernel_name, options_dict)
    payload[PAYLOAD_KEY] = TRACER.delta(before)
    return payload
