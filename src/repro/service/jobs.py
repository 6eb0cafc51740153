"""Job model for checking-as-a-service: kinds, options, keys, execution.

A *job* is one unit of checking work the service accepts over the wire:
run a kernel's detector battery (``detect``), verify its fix (``check``),
enumerate its outcome set (``explore``), run the static analyzer
(``static``), or analyze a real Python ``threading`` module end to end —
frontend, lift, confirm (``source``, keyed on the file's content digest
plus the frontend version rather than a program fingerprint).  Everything about a job that can change its verdict is
captured in :class:`JobOptions` and folded — together with the
content-addressed :func:`~repro.sim.statecache.program_fingerprint` of
the program(s) the job actually executes — into a :func:`cache_key`, so
the persistent result cache (:mod:`repro.service.resultcache`) and the
in-flight dedup layer (:mod:`repro.service.queue`) agree on what
"identical submission" means.

:func:`run_job` is the worker-side entry point: a pure function of
``(kind, kernel name, options)`` returning a JSON-native payload, so it
crosses a fork/pickle boundary untouched and its verdicts are
bit-comparable with the one-shot CLI subcommands it mirrors
(``repro detect`` / ``repro kernel`` / ``repro static``).
"""

from __future__ import annotations

import enum
import hashlib
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Optional, Tuple

from repro.sim.program import Program
from repro.sim.statecache import program_fingerprint

__all__ = [
    "Job",
    "JobError",
    "JobKind",
    "JobOptions",
    "JobState",
    "cache_key",
    "kernel_cache_key",
    "run_job",
    "source_cache_key",
]

#: Version tag baked into every cache key; bump on any change to the
#: verdict payloads or option normalisation so stale persisted verdicts
#: can never be served under a new scheme.
KEY_SCHEMA = "repro.service.key/v3"


class JobError(Exception):
    """A submission the service cannot accept (unknown kernel/kind/option)."""


class JobKind(enum.Enum):
    """What a job runs.  Values are the wire/CLI spelling."""

    CHECK = "check"      # verify the *fixed* program over every schedule
    DETECT = "detect"    # detector battery on a manifesting trace
    EXPLORE = "explore"  # enumerate the buggy program's outcome set
    STATIC = "static"    # zero-schedule static analysis
    SOURCE = "source"    # real-Python frontend + lift-to-simulator confirm

    @classmethod
    def parse(cls, text: str) -> "JobKind":
        try:
            return cls(text)
        except ValueError:
            raise JobError(
                f"unknown job kind {text!r}; one of "
                f"{', '.join(k.value for k in cls)}"
            ) from None


class JobState(enum.Enum):
    """Lifecycle states (``docs/service.md`` has the full state machine)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


#: Per-kind default exploration budget, matching the one-shot CLI paths
#: (``verify_fixed`` defaults to 50000 schedules, ``source`` matches the
#: CLI ``--budget`` default because lifted exploration is serial,
#: everything else 20000).
_DEFAULT_BUDGET = {JobKind.CHECK: 50000, JobKind.SOURCE: 800}


@dataclass(frozen=True)
class JobOptions:
    """The verdict-relevant knobs of a submission, normalised.

    Every field participates in the cache key: ``reduction`` and
    ``preemption_bound`` genuinely change which schedules run,
    ``memoize`` changes which runs complete, and ``max_schedules`` and
    ``memory`` change what a verdict can claim.
    """

    reduction: Optional[str] = None
    preemption_bound: Optional[int] = None
    memoize: bool = False
    max_schedules: Optional[int] = None
    #: Memory model override (``"sc"`` / ``"tso"``); ``None`` runs the
    #: kernel under its declared model.
    memory: Optional[str] = None

    @classmethod
    def from_dict(cls, raw: Optional[Dict[str, Any]]) -> "JobOptions":
        """Validate a wire-side options dict (unknown keys are errors)."""
        raw = dict(raw or {})
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = sorted(set(raw) - known)
        if unknown:
            raise JobError(f"unknown job option(s): {', '.join(unknown)}")
        # A bound of 0 is a search of the non-preemptive schedules only.
        for key, least, word in (
            ("preemption_bound", 0, "non-negative"),
            ("max_schedules", 1, "positive"),
        ):
            value = raw.get(key)
            # bool is an int subclass: ``true`` must not pass as 1.
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
                or value < least
            ):
                raise JobError(f"option {key} must be a {word} integer")
        memoize = raw.get("memoize", False)
        if not isinstance(memoize, bool):
            # bool("false") is True: only a JSON boolean is accepted.
            raise JobError("option memoize must be a boolean")
        if raw.get("reduction") is not None:
            from repro.sim.explorer import check_reduction

            try:
                check_reduction(raw["reduction"], raw.get("preemption_bound"))
            except ValueError as refusal:
                raise JobError(f"option {refusal}") from None
        if raw.get("memory") is not None:
            from repro.sim.memory import MEMORY_MODELS

            if raw["memory"] not in MEMORY_MODELS:
                raise JobError(
                    f"option memory must be one of {', '.join(MEMORY_MODELS)}"
                )
        return cls(
            reduction=raw.get("reduction"),
            preemption_bound=raw.get("preemption_bound"),
            memoize=memoize,
            max_schedules=raw.get("max_schedules"),
            memory=raw.get("memory"),
        )

    def budget(self, kind: JobKind) -> int:
        """The effective ``max_schedules`` for ``kind``."""
        if self.max_schedules is not None:
            return self.max_schedules
        return _DEFAULT_BUDGET.get(kind, 20000)

    def key_items(self, kind: JobKind) -> Tuple:
        """The normalised option tuple folded into the cache key."""
        return (
            ("reduction", self.reduction or "none"),
            ("preemption_bound", self.preemption_bound),
            ("memoize", self.memoize),
            ("max_schedules", self.budget(kind)),
            ("memory", self.memory or "declared"),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native rendering (for job payloads and runlog records)."""
        return {
            "reduction": self.reduction,
            "preemption_bound": self.preemption_bound,
            "memoize": self.memoize,
            "max_schedules": self.max_schedules,
            "memory": self.memory,
        }


def cache_key(kind: JobKind, options: JobOptions, *programs: Program) -> str:
    """The persistent-cache / dedup key of one submission.

    ``programs`` are the program(s) the job actually executes (the fixed
    program for ``check``, the buggy one otherwise), identified by their
    content-addressed fingerprints — so a verdict survives interpreter
    restarts and kernel *renames*, but any edit to the executed code or
    its declarations invalidates it.
    """
    body = (
        KEY_SCHEMA,
        kind.value,
        tuple(program_fingerprint(p) for p in programs),
        options.key_items(kind),
    )
    return hashlib.sha256(repr(body).encode("utf-8")).hexdigest()


def _target_program(kind: JobKind, kernel: Any, options: JobOptions) -> Program:
    """The program a job executes, with any memory-model override applied."""
    program = kernel.fixed if kind is JobKind.CHECK else kernel.buggy
    if options.memory is not None:
        program = program.with_memory(options.memory)
    return program


def kernel_cache_key(kind: JobKind, kernel: Any, options: JobOptions) -> str:
    """Cache key for a kernel submission: fingerprint what the job runs."""
    return cache_key(kind, options, _target_program(kind, kernel, options))


def source_cache_key(path: str, options: JobOptions) -> str:
    """Cache key for a ``source`` submission: digest of the file's bytes.

    The key folds in :data:`~repro.static.pysource.PYSOURCE_VERSION` so
    any frontend change invalidates every cached source verdict — the
    source-side analogue of a kernel edit changing its program
    fingerprint.  Keyed on content, not path: a renamed copy of the
    same module reuses its verdict.
    """
    from repro.static.pysource import PYSOURCE_VERSION

    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    body = (
        KEY_SCHEMA,
        JobKind.SOURCE.value,
        PYSOURCE_VERSION,
        digest,
        options.key_items(JobKind.SOURCE),
    )
    return hashlib.sha256(repr(body).encode("utf-8")).hexdigest()


@dataclass
class Job:
    """One accepted submission and everything the dashboard shows about it."""

    id: str
    kind: JobKind
    kernel: str
    options: JobOptions
    key: str
    state: JobState = JobState.QUEUED
    #: Answered straight from the persistent cache (never dispatched).
    cached: bool = False
    #: Total identical submissions folded into this job (>= 1); the
    #: ones beyond the first were coalesced while it was in flight.
    submissions: int = 1
    verdict: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Engine runs this job actually launched (0 for cached answers).
    engine_runs: int = 0
    submitted_ts: float = field(default_factory=time.time)
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None

    @property
    def finished(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED)

    def wall_seconds(self) -> Optional[float]:
        """Submit-to-verdict latency (None while in flight)."""
        if self.finished_ts is None:
            return None
        return self.finished_ts - self.submitted_ts

    def to_dict(self) -> Dict[str, Any]:
        """The wire/JSON rendering of this job."""
        return {
            "id": self.id,
            "kind": self.kind.value,
            "kernel": self.kernel,
            "state": self.state.value,
            "cached": self.cached,
            "submissions": self.submissions,
            "options": self.options.to_dict(),
            "verdict": self.verdict,
            "error": self.error,
            "engine_runs": self.engine_runs,
            "wall_seconds": self.wall_seconds(),
        }


# -- worker-side execution ---------------------------------------------------


def _run_exploration(
    kind: JobKind, kernel: Any, options: JobOptions
) -> Tuple[Dict[str, Any], int]:
    """``check`` / ``detect`` / ``explore``: one serial search, its verdict.

    ``check`` mirrors ``BugKernel.verify_fixed``, ``detect`` mirrors
    ``repro detect`` (find a manifesting trace, run the battery on it),
    and ``explore`` enumerates the buggy program's terminal outcome set.
    """
    from repro.sim.explorer import enumerate_outcomes, make_explorer

    program = _target_program(kind, kernel, options)
    if kind is JobKind.EXPLORE:
        from repro.obs.runlog import outcome_digest

        result = enumerate_outcomes(
            program, options.budget(kind),
            preemption_bound=options.preemption_bound,
            memoize=options.memoize, reduction=options.reduction,
        )
        verdict: Dict[str, Any] = {
            "kind": kind.value,
            "complete": result.complete,
            "distinct_outcomes": len(result.outcomes),
            "outcome_digest": outcome_digest(result.outcomes),
            "statuses": {
                status.value: count
                for status, count in sorted(
                    result.statuses.items(), key=lambda item: item[0].value
                )
            },
        }
        return verdict, result.schedules_run
    result = make_explorer(
        program, options.budget(kind),
        preemption_bound=options.preemption_bound,
        memoize=options.memoize, keep_matches=1, reduction=options.reduction,
    ).explore(predicate=kernel.failure, stop_on_first=True)
    if kind is JobKind.CHECK:
        verdict = {
            "kind": kind.value,
            "clean": bool(result.complete and not result.found),
            "complete": result.complete,
            "failures_found": result.match_count,
        }
        return verdict, result.schedules_run
    verdict = {
        "kind": kind.value,
        "manifested": bool(result.matching),
        "flagged_by": [],
        "kinds": [],
    }
    if result.matching:
        from repro.detectors import DetectorSuite

        failing = result.matching[0]
        suite_result = DetectorSuite.for_program(program).analyse(
            failing.trace
        )
        verdict["flagged_by"] = suite_result.flagged_by()
        verdict["kinds"] = sorted(k.value for k in suite_result.kinds_found())
        verdict["schedule"] = list(failing.schedule)
    return verdict, result.schedules_run


def _run_static(kernel: Any, options: JobOptions) -> Tuple[Dict[str, Any], int]:
    """Zero-schedule static analysis of the buggy program."""
    from repro.static import analyse

    report = analyse(_target_program(JobKind.STATIC, kernel, options))
    by_kind: Dict[str, int] = {}
    for candidate in report.active():
        by_kind[candidate.kind] = by_kind.get(candidate.kind, 0) + 1
    verdict = {
        "kind": JobKind.STATIC.value,
        "candidates": len(report.active()),
        "pairs": len(report.pairs),
        "by_kind": dict(sorted(by_kind.items())),
    }
    return verdict, 0


def _run_source(path: str, options: JobOptions) -> Tuple[Dict[str, Any], int]:
    """Real-Python frontend + lifted confirmation — ``repro lift PATH``.

    The "kernel" field of a ``source`` job carries the module path.
    Exploration of the lifted program is always serial: its thread
    bodies are exec'd functions, which cannot cross a pickle boundary.
    """
    from repro.static.lift import confirm
    from repro.static.pysource import load_source

    module = load_source(path)
    outcome = confirm(module.summary, max_schedules=options.budget(JobKind.SOURCE))
    verdict = dict(outcome.to_json())
    verdict["kind"] = JobKind.SOURCE.value
    verdict["module"] = module.name
    verdict["fixed_of"] = module.fixed_of
    verdict["annotated_bugs"] = [bug.describe() for bug in module.bugs]
    verdict["confirmed"] = len(outcome.confirmed)
    return verdict, sum(outcome.statuses.values())


def run_job(
    kind_value: str, kernel_name: str, options_dict: Dict[str, Any]
) -> Dict[str, Any]:
    """Execute one job and return its JSON-native result payload.

    Runs inside a fleet worker (forked process or inline thread); takes
    and returns only picklable primitives.  ``engine_runs`` counts the
    schedules the underlying exploration launched — the number the
    service's dedup layer proves it saved on cache hits.
    """
    kind = JobKind.parse(kind_value)
    options = JobOptions.from_dict(options_dict)
    if kind is JobKind.SOURCE:
        # ``kernel_name`` is a module path for source jobs; no kernel
        # registry lookup happens on this branch.
        start = perf_counter()
        verdict, engine_runs = _run_source(kernel_name, options)
        return {
            "verdict": verdict,
            "engine_runs": engine_runs,
            "worker_wall_seconds": perf_counter() - start,
        }
    from repro.kernels import get_kernel

    kernel = get_kernel(kernel_name)
    start = perf_counter()
    if kind is JobKind.STATIC:
        verdict, engine_runs = _run_static(kernel, options)
    else:
        verdict, engine_runs = _run_exploration(kind, kernel, options)
    return {
        "verdict": verdict,
        "engine_runs": engine_runs,
        "worker_wall_seconds": perf_counter() - start,
    }
