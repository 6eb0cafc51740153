"""Structured run telemetry: one JSONL record per instrumented invocation.

Every number in EXPERIMENTS.md and every table cell a bench prints comes
out of some exploration or estimator sweep.  The run log makes those
runs *auditable*: when a sink is installed, every search that runs to
its end appends one ``explorer.search`` record (written by the search's
own close-out, whoever started it: the ``find_schedule`` /
``enumerate_outcomes`` entry points, the kernel helpers, the detector
suite, the lifter, the service's workers), and so do each estimator
sweep, each static analysis and cross-check, each bug-report build,
each finished service job and the CLI itself — the arguments, the
result counters, an outcome-set digest, wall-clock, and (for the CLI
summary record) the full metrics snapshot.  A figure can then be traced
back to the exact searches that produced it, and an "instrumented
re-run" can be diffed against the record field by field.

The sink is either a file path (records are appended, one per line —
JSONL, each record one append-mode write) or a callable receiving each
record dict (for tests and embedded consumers).  Like
:mod:`repro.obs.metrics`, the module-level :func:`emit` is a no-op
until :func:`set_runlog` installs a sink, so un-instrumented workloads
pay one ``None`` check per search.

Record schema (``docs/observability.md`` has the worked example and
the full event table)::

    {
      "schema": "repro.runlog/v4",
      "event": "<explorer.search | estimate_manifestation | static.analyse |
                 suite.analyse_static | bug_report | service.job |
                 alloc.pull | alloc.race | cli | bench_session>",
      "ts": <unix seconds, float>,
      ... event-specific fields, all JSON-native ...
    }

An ``explorer.search`` record carries ``explorer`` (``dfs``,
``sleepset`` or ``dpor``), ``program``, ``args`` (the search's settings:
``max_schedules``/``preemption_bound``/``memoize``/``directed``),
``result`` (``schedules_run``, ``cache_hits``, ``states_expanded``,
``preemptions_spent``, ``complete``, ``match_count``, ``statuses``,
``distinct_outcomes``, ``schedules_to_first_finding``),
``outcome_digest`` and ``wall_seconds``; a search with a detector
pipeline attached adds ``pipeline``, ``findings`` and
``first_finding_step``.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

__all__ = [
    "RunLog",
    "SCHEMA",
    "active_runlog",
    "clear_runlog",
    "emit",
    "exploration_record",
    "outcome_digest",
    "read_records",
    "set_runlog",
]

SCHEMA = "repro.runlog/v4"

Sink = Union[str, Path, Callable[[Dict[str, Any]], None]]


class RunLog:
    """A telemetry sink: appends JSONL to a file or forwards to a callback."""

    def __init__(self, sink: Sink):
        self._callback: Optional[Callable[[Dict[str, Any]], None]]
        self._path: Optional[Path]
        if callable(sink):
            self._callback = sink
            self._path = None
        else:
            self._callback = None
            self._path = Path(sink)
        self.records_emitted = 0

    @property
    def path(self) -> Optional[Path]:
        """The output file, or ``None`` for callback sinks."""
        return self._path

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Build, deliver, and return one record."""
        record: Dict[str, Any] = {"schema": SCHEMA, "event": event, "ts": time.time()}
        record.update(fields)
        if self._callback is not None:
            self._callback(record)
        else:
            assert self._path is not None
            with self._path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, default=_jsonable) + "\n")
        self.records_emitted += 1
        return record


def _jsonable(value: Any) -> Any:
    """Last-resort JSON coercion for enum members and odd leaf values."""
    if hasattr(value, "value"):
        return value.value
    return repr(value)


#: The process-global sink; ``None`` disables telemetry.
_RUNLOG: Optional[RunLog] = None


def set_runlog(sink: Sink) -> RunLog:
    """Install (and return) the global run log."""
    global _RUNLOG
    _RUNLOG = RunLog(sink)
    return _RUNLOG


def clear_runlog() -> None:
    """Remove the global run log; :func:`emit` becomes a no-op again."""
    global _RUNLOG
    _RUNLOG = None


def active_runlog() -> Optional[RunLog]:
    """The installed run log, or ``None``."""
    return _RUNLOG


def emit(event: str, **fields: Any) -> Optional[Dict[str, Any]]:
    """Emit through the global run log; no-op (returns ``None``) if unset."""
    log = _RUNLOG
    if log is None:
        return None
    return log.emit(event, **fields)


def outcome_digest(outcomes: Iterable[Any]) -> str:
    """Stable hex digest of a terminal outcome *set*.

    Keys are hashed by their ``repr`` in sorted order, so the digest is
    identical across plain / reduced / memoized explorations of the
    same program (they preserve the outcome set, not counts).
    """
    blob = "\n".join(sorted(repr(key) for key in outcomes))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def exploration_record(result: Any, args: Dict[str, Any], wall_seconds: float) -> Dict[str, Any]:
    """The body of an ``explorer.search`` record.

    ``result`` is an :class:`~repro.sim.explorer.ExplorationResult`;
    typed as ``Any`` to keep :mod:`repro.obs` import-free of the
    simulator (obs sits below every other layer).
    """
    return {
        "program": result.program,
        "args": dict(args),
        "result": {
            "schedules_run": result.schedules_run,
            "cache_hits": result.cache_hits,
            "states_expanded": result.states_expanded,
            "preemptions_spent": result.preemptions_spent,
            "complete": result.complete,
            "match_count": result.match_count,
            "statuses": {
                status.value: count for status, count in sorted(
                    result.statuses.items(), key=lambda item: item[0].value
                )
            },
            "distinct_outcomes": len(result.outcomes),
            "schedules_to_first_finding": result.schedules_to_first_finding,
        },
        "outcome_digest": outcome_digest(result.outcomes),
        "wall_seconds": wall_seconds,
    }


def read_records(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL run log back into record dicts (blank lines skipped)."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
