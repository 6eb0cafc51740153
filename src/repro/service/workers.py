"""The worker fleet: long-lived fork workers executing jobs off the event loop.

The service's asyncio loop must never run an exploration itself — a
single ``detect`` job can take seconds of pure-CPU engine time, and the
loop has submissions to accept and status requests to answer meanwhile.
:class:`WorkerFleet` owns that boundary, and it is the package's only
pool of processes: up to ``size`` workers forked from the server, each
with its own duplex pipe.  A job is one pickled request down that pipe,
``(kind, kernel, options dict)``, and one pickled reply up it,
``("ok", payload)`` or ``("error", exception)``; the server waits for
the reply on the event loop (``loop.add_reader``) and reads it only once
the pipe is readable, so no thread and no blocking read stands between a
job and its verdict.  Each job runs one serial search, so the fleet's
parallelism is across jobs.

A worker is forked when a job finds no idle worker and fewer than
``size`` are alive — the first dispatch, not the first ``ping``, so
start-up forks nothing.  Fork, not spawn: workers inherit the run-log
sink (so their searches' ``explorer.search`` records reach the server's
log) and anything installed on the module before the fork, and a
spawned worker would re-import ``repro`` (about 0.6 s) before its first
job.  Forking is safe because a fork-mode server runs no thread.  Each
worker looks :func:`run_job` up as this module's attribute on every
request, and closes every pipe end it inherited except its own, the
server's end of its own pipe included: that is how the server reads EOF
when a worker dies and a worker reads EOF when the server goes, upon
which it exits quietly with status 0.

A worker that dies (the OOM killer, a ``SIGKILL``) fails only the job
it was running: the server sees EOF on its pipe (or ``EPIPE`` when it
sends the job), reaps it, counts ``service.worker_restarts`` once, and
runs the job once more on a fresh worker.  A job whose second worker
dies too fails with :class:`WorkerDied`.  Jobs on other workers are
untouched.  An exception raised by ``run_job`` comes back with its own
type and message, and the worker serves the next job.

Where ``fork`` is unavailable (or explicitly disabled with
``pool="none"``), the fleet degrades to a thread pool: verdicts are
identical because :func:`run_job` is a pure function of its arguments;
only wall-clock parallelism is lost to the GIL.  ``pool="fork"`` forces
the fork workers and raises at construction when it cannot be honoured
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
import pickle
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.service.jobs import Job, run_job

__all__ = ["WorkerDied", "WorkerFleet", "default_fleet_size"]

POOLS = ("auto", "fork", "none")

#: How long :meth:`WorkerFleet.shutdown` gives all workers together to
#: finish their current job and exit before it kills the rest, and how
#: long a killed worker is waited for.
REAP_WAIT_S = 5.0

Request = Tuple[str, str, Dict[str, Any]]


class WorkerDied(Exception):
    """A fork worker exited before it answered the job it was sent."""


def default_fleet_size() -> int:
    """One worker per core, capped at 4 (CPU-bound work; see module doc)."""
    return max(1, min(4, os.cpu_count() or 1))


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# -- the worker's side -------------------------------------------------------


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round trip, else a ``RuntimeError``
    naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(
            f"run_job raised {type(exc).__name__}: {exc} (not picklable)"
        )
    return exc


def _serve_jobs(conn: Connection, inherited: Sequence[Connection]) -> None:
    """A fork worker's life: answer requests on ``conn`` until the server
    goes (EOF on read, ``EPIPE`` on write), then return, which exits 0."""
    for end in inherited:
        end.close()
    while True:
        try:
            kind_value, kernel, options = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply: Tuple[str, Any] = ("ok", run_job(kind_value, kernel, options))
        except Exception as exc:
            reply = ("error", _portable(exc))
        try:
            conn.send(reply)
        except OSError:
            return


# -- the server's side -------------------------------------------------------


class _Worker:
    """One fork worker and the server's end of its pipe."""

    def __init__(self, process: multiprocessing.process.BaseProcess,
                 conn: Connection):
        self.process = process
        self.conn = conn
        self.fd = conn.fileno()
        #: The pending reply while the loop watches ``fd``, else ``None``.
        self.reply: Optional[asyncio.Future] = None

    async def call(self, request: Request) -> Tuple[str, Any]:
        """Send one request and await its reply.

        Raises ``EOFError`` or ``OSError`` when the worker is gone.
        """
        self.conn.send(request)
        loop = asyncio.get_running_loop()
        reply = self.reply = loop.create_future()
        loop.add_reader(self.fd, self._on_readable)
        try:
            return await reply
        finally:
            self._unwatch()  # still watching only if the caller was cancelled

    def _on_readable(self) -> None:
        reply = self.reply
        self._unwatch()
        if reply.done():  # the caller was cancelled; it drops this worker
            return
        try:
            reply.set_result(self.conn.recv())
        except Exception as exc:  # EOF from a dead worker, above all
            reply.set_exception(exc)

    def _unwatch(self) -> None:
        if self.reply is not None:
            self.reply.get_loop().remove_reader(self.fd)
            self.reply = None

    def hang_up(self) -> None:
        """Close the server's end: an idle worker reads EOF and exits.

        A job in flight is cancelled, since its reply has nowhere to go.
        """
        reply = self.reply
        self._unwatch()
        if reply is not None:
            reply.cancel()
        self.conn.close()

    def reap(self, grace: float) -> Optional[int]:
        """Join for up to ``grace`` s, then kill and join; free its fds.

        Returns the exit code (``None`` if it would not die).
        """
        process = self.process
        process.join(grace)
        if process.exitcode is None:
            process.kill()
            process.join(REAP_WAIT_S)
        code = process.exitcode
        if code is not None:
            process.close()
        return code


class WorkerFleet:
    """Up to ``size`` concurrent :func:`~repro.service.jobs.run_job` calls.

    :param size: worker count (default :func:`default_fleet_size`).
    :param pool: ``"auto"`` (fork workers when available, threads
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
        #: ``"fork"`` (fork workers) or ``"inline"`` (thread pool).
        self.mode = (
            "fork" if pool == "fork" or (pool == "auto" and _fork_available())
            else "inline"
        )
        self._executor: Optional[ThreadPoolExecutor] = None
        #: Every live fork worker, and the ones among them without a job.
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
        self._slots = asyncio.Semaphore(self.size)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Create the inline thread pool (idempotent); fork workers are
        forked by the jobs that need them."""
        if self.mode == "inline" and self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.size, thread_name_prefix="repro-fleet"
            )

    def shutdown(self) -> None:
        """Stop every worker: close its pipe, give all of them
        :data:`REAP_WAIT_S` to exit, then kill the rest.  The inline
        pool waits for its in-flight jobs."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        workers, self._workers, self._idle = self._workers, [], []
        for worker in workers:
            worker.hang_up()
        deadline = time.monotonic() + REAP_WAIT_S
        for worker in workers:
            worker.reap(max(0.0, deadline - time.monotonic()))

    # -- execution ---------------------------------------------------------

    async def run(self, job: Job) -> Dict[str, Any]:
        """Execute ``job`` on the fleet; returns the ``run_job`` payload.

        Only primitives cross to the worker (kind value, kernel name,
        options dict), so the same request serves fork workers and
        inline threads.  A job whose worker dies runs once more on a
        fresh one; a second death raises :class:`WorkerDied`.
        """
        request = (job.kind.value, job.kernel, job.options.to_dict())
        if self.mode == "inline":
            self.start()
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, partial(run_job, *request)
            )
        try:
            return await self._dispatch(request)
        except WorkerDied:
            return await self._dispatch(request)

    async def _dispatch(self, request: Request) -> Dict[str, Any]:
        async with self._slots:
            worker = self._idle.pop() if self._idle else self._fork()
            try:
                status, value = await worker.call(request)
            except (EOFError, OSError) as exc:
                pid, code = worker.process.pid, self._drop(worker)
                obs_metrics.inc("service.worker_restarts")
                raise WorkerDied(
                    f"fleet worker {pid} died before it answered "
                    f"(exit code {code})"
                ) from exc
            except BaseException:
                # Cancelled mid-job: its late reply must answer no later job.
                self._drop(worker)
                raise
            if worker in self._workers:  # not taken by a shutdown meanwhile
                self._idle.append(worker)
        if status == "error":
            raise value
        return value

    def _fork(self) -> _Worker:
        context = multiprocessing.get_context("fork")
        ours, theirs = context.Pipe()
        inherited = [worker.conn for worker in self._workers] + [ours]
        process = context.Process(
            target=_serve_jobs, args=(theirs, inherited),
            name="repro-fleet", daemon=True,
        )
        try:
            process.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        worker = _Worker(process, ours)
        self._workers.append(worker)
        return worker

    def _drop(self, worker: _Worker) -> Optional[int]:
        """Hang up on and reap a worker the fleet will not use again;
        returns its exit code."""
        if worker not in self._workers:  # a shutdown reaped it already
            return None
        self._workers.remove(worker)
        worker.hang_up()
        return worker.reap(0.0)

    def describe(self) -> Dict[str, Any]:
        """Dashboard-ready fleet description."""
        return {"size": self.size, "mode": self.mode, "pool": self.pool}
