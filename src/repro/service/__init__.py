"""Checking-as-a-service: job queue, worker fleet, persistent result cache.

``repro serve`` turns the one-shot CLI subcommands into a long-running
service: submissions arrive over a local socket as JSON lines
(:mod:`~repro.service.protocol`), pass a dedup ladder — persistent
verdict cache (:mod:`~repro.service.resultcache`), then in-flight
coalescing and admission control (:mod:`~repro.service.queue`) — and
run in submission order on a forked process-pool fleet
(:mod:`~repro.service.workers`), one :func:`~repro.service.jobs.run_job`
dispatch per job.  ``repro status`` renders the
:mod:`~repro.service.dashboard`.  ``docs/service.md`` is the handbook:
protocol reference, job lifecycle, cache-key semantics, fleet sizing,
and a walkthrough.
"""

from repro.service.dashboard import Dashboard
from repro.service.jobs import (
    Job,
    JobError,
    JobKind,
    JobOptions,
    JobState,
    cache_key,
    kernel_cache_key,
    run_job,
)
from repro.service.queue import AdmissionError, JobQueue, ReproService
from repro.service.resultcache import ResultCache
from repro.service.workers import WorkerFleet, default_fleet_size

__all__ = [
    "AdmissionError",
    "Dashboard",
    "Job",
    "JobError",
    "JobKind",
    "JobOptions",
    "JobState",
    "JobQueue",
    "ReproService",
    "ResultCache",
    "WorkerFleet",
    "cache_key",
    "default_fleet_size",
    "kernel_cache_key",
    "run_job",
]
