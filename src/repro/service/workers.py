"""The worker fleet: a process pool executing jobs off the event loop.

The service's asyncio loop must never run an exploration itself — a
single ``detect`` job can take seconds of pure-CPU engine time, and the
loop has submissions to accept and status requests to answer meanwhile.
:class:`WorkerFleet` owns that boundary, and it is the package's only
process pool: jobs go to a ``ProcessPoolExecutor`` built on the ``fork``
start method and come back as plain dicts via
:func:`repro.service.jobs.run_job`.  Each job runs one serial search, so
the fleet's parallelism is across jobs.

A worker process that dies (the OOM killer, a ``SIGKILL``) breaks the
whole ``ProcessPoolExecutor``: its pending futures fail and it refuses
every later submission.  :meth:`WorkerFleet.run` therefore replaces a
broken pool once — however many of its jobs saw it break — counts the
restart as ``service.worker_restarts``, and runs the job once more; a
job that breaks the fresh pool too fails, like any other job error.

Where ``fork`` is unavailable (or explicitly disabled with
``pool="none"``), the fleet degrades to a thread pool: verdicts are
identical because :func:`run_job` is a pure function of its arguments;
only wall-clock parallelism is lost to the GIL.  ``pool="fork"`` forces
the process pool and raises at construction when it cannot be honoured
— nothing silently degrades.

Sizing guidance lives in ``docs/service.md``; the short version is
:func:`default_fleet_size`: one worker per core up to 4 by default,
because engine runs are CPU-bound and oversubscription only adds
scheduler churn, while a small cap keeps a shared box responsive.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Dict, Optional

from repro.obs import metrics as obs_metrics
from repro.service.jobs import Job, run_job

__all__ = ["WorkerFleet", "default_fleet_size"]

POOLS = ("auto", "fork", "none")


def default_fleet_size() -> int:
    """One worker per core, capped at 4 (CPU-bound work; see module doc)."""
    return max(1, min(4, os.cpu_count() or 1))


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerFleet:
    """A fixed-size executor for :func:`~repro.service.jobs.run_job` calls.

    :param size: worker count (default :func:`default_fleet_size`).
    :param pool: ``"auto"`` (fork processes when available, threads
        otherwise), ``"fork"`` (require processes; raises if the start
        method is missing), or ``"none"`` (always threads — useful for
        tests that want in-process determinism and coverage).
    """

    def __init__(self, size: Optional[int] = None, pool: str = "auto"):
        if pool not in POOLS:
            raise ValueError(f"pool must be one of {', '.join(POOLS)}, got {pool!r}")
        if size is not None and size < 1:
            raise ValueError(f"fleet size must be >= 1, got {size}")
        if pool == "fork" and not _fork_available():
            raise ValueError(
                "pool='fork' requested but the 'fork' start method is not "
                "available on this platform; use pool='auto' or 'none'"
            )
        self.size = size if size is not None else default_fleet_size()
        self.pool = pool
        self._executor: Optional[Executor] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"fork"`` (process pool) or ``"inline"`` (thread pool)."""
        use_processes = self.pool == "fork" or (
            self.pool == "auto" and _fork_available()
        )
        return "fork" if use_processes else "inline"

    def start(self) -> None:
        """Create the executor (idempotent)."""
        if self._executor is not None:
            return
        if self.mode == "fork":
            self._executor = ProcessPoolExecutor(
                max_workers=self.size,
                mp_context=multiprocessing.get_context("fork"),
            )
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=self.size, thread_name_prefix="repro-fleet"
            )

    def shutdown(self) -> None:
        """Tear the executor down, waiting for in-flight jobs."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- execution ---------------------------------------------------------

    async def run(self, job: Job) -> Dict[str, Any]:
        """Execute ``job`` on the fleet; returns the ``run_job`` payload.

        Only primitives cross the executor boundary (kind value, kernel
        name, options dict), so the same call works for forked processes
        and inline threads.  A job whose pool breaks runs once more on
        the replacement; a second break raises ``BrokenProcessPool``.
        """
        try:
            return await self._submit(job)
        except BrokenProcessPool:
            return await self._submit(job)

    async def _submit(self, job: Job) -> Dict[str, Any]:
        self.start()
        executor = self._executor
        assert executor is not None
        try:
            return await asyncio.get_running_loop().run_in_executor(
                executor,
                partial(
                    run_job, job.kind.value, job.kernel, job.options.to_dict()
                ),
            )
        except BrokenProcessPool:
            # Every job pending on the broken pool fails with it: replace
            # the pool once, not once per failed job.
            if self._executor is executor:
                self._executor = None
                executor.shutdown(wait=False)
                obs_metrics.inc("service.worker_restarts")
            raise

    def describe(self) -> Dict[str, Any]:
        """Dashboard-ready fleet description."""
        return {"size": self.size, "mode": self.mode, "pool": self.pool}
