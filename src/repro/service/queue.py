"""Job queue, dedup/admission control, and the asyncio service core.

Three layers, bottom-up:

* :class:`JobQueue` — a plain FIFO of accepted jobs with two scaling
  levers in front of the worker fleet: **coalescing** (a submission
  whose cache key matches a queued or running job attaches to it
  instead of enqueuing — one engine run answers every waiter) and
  **admission control** (a bounded backlog: past ``max_pending``
  queued jobs, submissions are refused with a retryable error instead
  of growing latency without bound).
* :class:`ReproService` — the orchestrator: consult the persistent
  :class:`~repro.service.resultcache.ResultCache` first (a hit answers
  instantly with **zero** engine runs), then the queue's dedup layer,
  then dispatch to the :class:`~repro.service.workers.WorkerFleet`
  under a slot semaphore so at most ``fleet.size`` jobs run at once
  and the QUEUED → RUNNING transition is real, not cosmetic.
* the wire layer lives in :mod:`repro.service.protocol`; the status
  rendering in :mod:`repro.service.dashboard`.

Every finished job emits one ``service.job`` runlog record and bumps
the ``service.*`` metrics (``docs/observability.md``), so a service
under load is auditable with the same tooling as one-shot CLI runs.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Union

from repro.obs import metrics as obs_metrics
from repro.obs import runlog as obs_runlog
from repro.obs.metrics import HistogramStats
from repro.service.jobs import (
    Job,
    JobError,
    JobKind,
    JobOptions,
    JobState,
    kernel_cache_key,
    source_cache_key,
)
from repro.service.resultcache import ResultCache
from repro.service.workers import WorkerFleet

__all__ = ["AdmissionError", "JobQueue", "ReproService"]

#: Finished jobs kept findable by id (the newest); in-flight jobs always are.
FINISHED_JOBS_KEPT = 1024


class AdmissionError(JobError):
    """The backlog is full; the client should retry later."""


class JobQueue:
    """FIFO of accepted jobs with cache-key dedup over in-flight work."""

    def __init__(self, max_pending: int = 256):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = max_pending
        self._pending: Deque[Job] = deque()
        #: cache key -> in-flight (queued or running) job, the dedup index.
        self._in_flight: Dict[str, Job] = {}

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def running(self) -> int:
        return sum(
            1 for job in self._in_flight.values()
            if job.state is JobState.RUNNING
        )

    def offer(self, job: Job) -> Job:
        """Admit ``job``, coalescing onto an identical in-flight job.

        Returns the job that will carry the verdict: ``job`` itself when
        enqueued, or the earlier submission it was folded into.  Raises
        :class:`AdmissionError` when the backlog is full.
        """
        existing = self._in_flight.get(job.key)
        if existing is not None and not existing.finished:
            existing.submissions += 1
            return existing
        if len(self._pending) >= self.max_pending:
            raise AdmissionError(
                f"queue full ({self.max_pending} pending jobs); retry later"
            )
        self._pending.append(job)
        self._in_flight[job.key] = job
        return job

    def take(self) -> Optional[Job]:
        """Pop the next queued job (stays in the dedup index while running)."""
        return self._pending.popleft() if self._pending else None

    def finish(self, job: Job) -> None:
        """Drop a finished job from the dedup index."""
        if self._in_flight.get(job.key) is job:
            del self._in_flight[job.key]


class ReproService:
    """The long-running checking service behind ``repro serve``.

    Owns the queue, the fleet, the persistent cache, per-job bookkeeping,
    and the scheduler task.  Protocol handlers call :meth:`submit` /
    :meth:`wait` / :meth:`get_job`; the dashboard reads the public
    counters.  All state is touched only from the event loop, so no
    locks are needed anywhere.
    """

    def __init__(
        self,
        cache: Union[ResultCache, str],
        fleet: Optional[WorkerFleet] = None,
        max_pending: int = 256,
    ):
        self.cache = cache if isinstance(cache, ResultCache) else ResultCache(cache)
        self.fleet = fleet if fleet is not None else WorkerFleet()
        self.queue = JobQueue(max_pending=max_pending)
        #: In-flight jobs plus the newest finished ones, in submission order.
        self.jobs: Dict[str, Job] = {}
        #: Ids of the finished jobs in ``jobs``, oldest first.
        self._finished_ids: Deque[str] = deque()
        self.started_ts = time.time()
        # Lifetime totals, read by the dashboard.
        self.submissions = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.engine_runs = 0
        #: Submit-to-dispatch latency of dispatched (non-cached,
        #: non-coalesced) jobs; rendered by ``repro status``.
        self.queue_wait = HistogramStats()
        self._ids = itertools.count(1)
        self._wakeup = asyncio.Event()
        #: Finish events of unfinished jobs someone waits on; ``_seal``
        #: pops and sets them.
        self._finished: Dict[str, asyncio.Event] = {}
        #: Registered kernel name -> the one instance submissions key on,
        #: so a repeat submission fingerprints the same Programs
        #: (``program_fingerprint`` remembers each Program's digest).
        self._kernels: Dict[str, Any] = {}
        self._scheduler_task: Optional[asyncio.Task] = None
        self._slots = asyncio.Semaphore(self.fleet.size)
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start the fleet and the scheduler loop (idempotent)."""
        self.fleet.start()
        if self._scheduler_task is None:
            self._scheduler_task = asyncio.create_task(self._scheduler())

    async def close(self) -> None:
        """Drain nothing, stop scheduling, shut the fleet down."""
        self._closing = True
        self._wakeup.set()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
            self._scheduler_task = None
        self.fleet.shutdown()

    # -- submission --------------------------------------------------------

    def submit(
        self,
        kind: Union[JobKind, str],
        kernel_name: str,
        options: Optional[Union[JobOptions, Dict[str, Any]]] = None,
    ) -> Job:
        """Accept one submission; returns the job carrying its verdict.

        Resolution order (the dedup ladder, cheapest first):

        1. **persistent cache** — a stored verdict under the same cache
           key answers immediately: the returned job is born ``DONE``
           with ``cached=True`` and zero engine runs;
        2. **in-flight coalescing** — an identical queued/running job
           absorbs the submission (``submissions`` increments);
        3. **enqueue** — a fresh job enters the FIFO, subject to
           admission control (:class:`AdmissionError` when full).
        """
        kind = JobKind.parse(kind) if isinstance(kind, str) else kind
        if not isinstance(options, JobOptions):
            options = JobOptions.from_dict(options)
        if kind is JobKind.SOURCE:
            # ``kernel_name`` is a module path; key on its content
            # digest + frontend version instead of a kernel fingerprint.
            try:
                key = source_cache_key(kernel_name, options)
            except OSError as exc:
                raise JobError(f"unreadable source module: {exc}") from None
        else:
            key = kernel_cache_key(kind, self._kernel(kernel_name), options)
        self.submissions += 1
        obs_metrics.inc("service.submissions", kind=kind.value)

        entry = self.cache.get(key)
        if entry is not None:
            job = self._new_job(kind, kernel_name, options, key)
            job.cached = True
            job.verdict = entry["verdict"]
            job.state = JobState.DONE
            job.finished_ts = time.time()
            self.cache_hits += 1
            self.jobs_completed += 1
            obs_metrics.inc("service.cache_hits", kind=kind.value)
            self._retire(job)
            return job

        job = self._new_job(kind, kernel_name, options, key)
        try:
            carrier = self.queue.offer(job)
        except AdmissionError:
            del self.jobs[job.id]
            obs_metrics.inc("service.admission_refusals", kind=kind.value)
            raise
        if carrier is not job:
            # Coalesced: the earlier job answers this submission too.
            del self.jobs[job.id]
            self.coalesced += 1
            obs_metrics.inc("service.coalesced", kind=kind.value)
            return carrier
        obs_metrics.set_gauge("service.queue_depth", len(self.queue))
        self._wakeup.set()
        return job

    def _kernel(self, name: str) -> Any:
        """The service's one instance of the kernel registered as ``name``."""
        kernel = self._kernels.get(name)
        if kernel is None:
            from repro.kernels import get_kernel, kernel_names

            try:
                kernel = self._kernels[name] = get_kernel(name)
            except KeyError:
                raise JobError(
                    f"unknown kernel {name!r}; available: "
                    + ", ".join(kernel_names())
                ) from None
        return kernel

    def _new_job(
        self, kind: JobKind, kernel_name: str, options: JobOptions, key: str
    ) -> Job:
        job = Job(
            id=f"j{next(self._ids):04d}",
            kind=kind,
            kernel=kernel_name,
            options=options,
            key=key,
        )
        self.jobs[job.id] = job
        return job

    # -- results -----------------------------------------------------------

    def get_job(self, job_id: str) -> Job:
        """Look a job up by id (``JobError`` for ids never issued or
        finished too long ago; see :data:`FINISHED_JOBS_KEPT`)."""
        try:
            return self.jobs[job_id]
        except KeyError:
            raise JobError(f"unknown job id {job_id!r}") from None

    async def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job finishes (or ``asyncio.TimeoutError``)."""
        job = self.get_job(job_id)
        if not job.finished:
            event = self._finished.get(job.id)
            if event is None:
                event = self._finished[job.id] = asyncio.Event()
            await asyncio.wait_for(event.wait(), timeout=timeout)
        return job

    # -- scheduling --------------------------------------------------------

    async def _scheduler(self) -> None:
        """Dispatch queued jobs in submission order as slots free up."""
        while not self._closing:
            job = self.queue.take()
            if job is None:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            await self._slots.acquire()
            asyncio.create_task(self._run_one(job))

    async def _run_one(self, job: Job) -> None:
        """Run one job start-to-verdict on the fleet."""
        self._mark_started(job)
        try:
            payload = await self.fleet.run(job)
            self._complete(job, payload)
        except Exception as exc:  # worker died twice, bad kernel state, ...
            self._fail(job, exc)
        finally:
            self._seal(job)
            self._slots.release()

    # -- job lifecycle -----------------------------------------------------

    def _mark_started(self, job: Job) -> None:
        """Flip to RUNNING and record the job's queue wait."""
        job.state = JobState.RUNNING
        job.started_ts = time.time()
        wait = job.started_ts - job.submitted_ts
        self.queue_wait.observe(wait)
        obs_metrics.observe(
            "service.queue_wait_seconds", wait, kind=job.kind.value
        )
        obs_metrics.set_gauge("service.queue_depth", len(self.queue))

    def _complete(self, job: Job, payload: Dict[str, Any]) -> None:
        """Store a worker verdict and persist it to the result cache.

        A verdict the cache cannot store (an unwritable or full cache
        directory) still answers this job: the job ends ``DONE``,
        uncached, and ``service.cache_write_errors`` counts the failure.
        """
        job.verdict = payload["verdict"]
        job.engine_runs = int(payload["engine_runs"])
        self.engine_runs += job.engine_runs
        job.state = JobState.DONE
        self.jobs_completed += 1
        obs_metrics.inc("service.jobs_completed", kind=job.kind.value)
        obs_metrics.inc("service.engine_runs", job.engine_runs)
        try:
            self.cache.put(
                job.key,
                job.verdict,
                kind=job.kind.value,
                kernel=job.kernel,
                engine_runs=job.engine_runs,
                wall_seconds=payload.get("worker_wall_seconds", 0.0),
            )
        except OSError:
            obs_metrics.inc("service.cache_write_errors", kind=job.kind.value)

    def _fail(self, job: Job, exc: Exception) -> None:
        job.error = f"{type(exc).__name__}: {exc}"
        job.state = JobState.FAILED
        self.jobs_failed += 1
        obs_metrics.inc("service.jobs_failed", kind=job.kind.value)

    def _seal(self, job: Job) -> None:
        """Final bookkeeping once a job leaves the scheduler for good."""
        job.finished_ts = time.time()
        self.queue.finish(job)
        self._retire(job)
        event = self._finished.pop(job.id, None)
        if event is not None:
            event.set()
        wall = job.wall_seconds() or 0.0
        obs_metrics.observe(
            "service.job_seconds", wall, kind=job.kind.value
        )
        obs_runlog.emit(
            "service.job",
            job=job.to_dict(),
            queue_depth=len(self.queue),
            fleet=self.fleet.describe(),
        )

    def _retire(self, job: Job) -> None:
        """Count ``job`` as finished; forget the oldest finished past the window."""
        self._finished_ids.append(job.id)
        if len(self._finished_ids) > FINISHED_JOBS_KEPT:
            del self.jobs[self._finished_ids.popleft()]

    # -- status ------------------------------------------------------------

    def uptime_seconds(self) -> float:
        """Seconds since the service object was created."""
        return time.time() - self.started_ts

    def dedup_ratio(self) -> float:
        """Fraction of submissions answered without a fresh engine run."""
        saved = self.cache_hits + self.coalesced
        return saved / self.submissions if self.submissions else 0.0

    def recent_jobs(self, limit: int = 50) -> List[Job]:
        """The newest ``limit`` jobs, oldest first (insertion ordered)."""
        jobs = list(self.jobs.values())
        return jobs[-limit:]
