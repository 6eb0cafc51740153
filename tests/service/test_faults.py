"""Fault injection: the service survives fork workers that die and a
cache it cannot write.

A SIGKILLed worker (the OOM killer's signal) breaks the whole
``ProcessPoolExecutor``.  The fleet must replace the broken pool once,
count ``service.worker_restarts``, and run the interrupted job once
more; a job that breaks the fresh pool too ends FAILED and uncached.
Either way later jobs still run and ``status`` still answers.  A verdict
the result cache cannot store still answers its job, uncached, and
``service.cache_write_errors`` counts it.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal

import pytest

from repro.obs import metrics as obs_metrics
from repro.service import JobState, ReproService, ResultCache, WorkerFleet
from repro.service import workers
from repro.service.jobs import run_job
from repro.service.protocol import request_once, start_server

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault injection needs the fork worker pool",
)

#: The test process; forked workers inherit this value.
_PARENT = os.getpid()

#: The kernel whose jobs kill the worker process that runs them.
_FATAL_KERNEL = "deadlock_abba"


def _run_job_killing_fatal_kernel(kind_value, kernel_name, options_dict):
    """``run_job``, except that a fork worker handed ``_FATAL_KERNEL``
    SIGKILLs itself."""
    if kernel_name == _FATAL_KERNEL and os.getpid() != _PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_job(kind_value, kernel_name, options_dict)


@pytest.fixture
def registry():
    registry = obs_metrics.enable()
    yield registry
    obs_metrics.disable()


async def _status(socket_path):
    return await request_once({"op": "status"}, socket_path=socket_path)


async def _serve(tmp_path, body):
    """Run ``body(service)`` against a one-worker fork fleet behind a
    live socket; returns what it returns plus a final ``status``."""
    service = ReproService(
        ResultCache(tmp_path / "cache"),
        fleet=WorkerFleet(size=1, pool="fork"),
    )
    socket_path = tmp_path / "svc.sock"
    await service.start()
    server, _ = await start_server(service, socket_path=socket_path)
    try:
        out = await body(service)
        return out, await _status(socket_path)
    finally:
        server.close()
        await server.wait_closed()
        await service.close()


async def _finish(service, kind, kernel):
    job = service.submit(kind, kernel)
    return await service.wait(job.id, timeout=120)


def test_sigkilled_idle_worker_is_replaced(tmp_path, registry):
    before = {child.pid for child in multiprocessing.active_children()}

    async def body(service):
        first = await _finish(service, "detect", "atomicity_lost_update")
        (worker,) = [
            child for child in multiprocessing.active_children()
            if child.pid not in before
        ]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10)
        later = [
            await _finish(service, "detect", name)
            for name in ("deadlock_abba", "order_lost_wakeup")
        ]
        return [first] + later

    jobs, status = asyncio.run(_serve(tmp_path, body))
    for job in jobs:
        assert job.state is JobState.DONE, (job.kernel, job.error)
        assert job.verdict["manifested"] is True
    assert registry.counter("service.worker_restarts") == 1
    assert status["ok"]
    assert status["totals"]["completed"] == 3
    assert status["totals"]["failed"] == 0


def test_job_whose_worker_dies_twice_fails_uncached(
    tmp_path, registry, monkeypatch
):
    monkeypatch.setattr(workers, "run_job", _run_job_killing_fatal_kernel)

    async def body(service):
        fatal = await _finish(service, "detect", _FATAL_KERNEL)
        cached = service.cache.get(fatal.key)
        after = await _finish(service, "detect", "atomicity_lost_update")
        return fatal, cached, after

    (fatal, cached, after), status = asyncio.run(_serve(tmp_path, body))
    assert fatal.state is JobState.FAILED
    assert fatal.error.startswith("BrokenProcessPool")
    assert cached is None
    assert after.state is JobState.DONE
    assert after.verdict["manifested"] is True
    # One replacement per broken pool: the first run's and the retry's.
    assert registry.counter("service.worker_restarts") == 2
    assert status["ok"]
    assert status["totals"]["failed"] == 1
    assert status["totals"]["completed"] == 1
    assert [job["state"] for job in status["jobs"]] == ["failed", "done"]


def test_unwritable_cache_answers_jobs_uncached(tmp_path, registry):
    """A cache root that is a regular file (``chmod`` does not stop
    root): every write fails, every job still ends DONE with its
    verdict, and nothing counts as failed."""
    writable = tmp_path / "writable"
    writable.mkdir()
    (tmp_path / "cache").write_text("a file, not a directory\n")

    async def body(service):
        return [
            await _finish(service, "detect", "atomicity_lost_update")
            for _ in range(2)
        ]

    (reference, _), _ = asyncio.run(_serve(writable, body))
    jobs, status = asyncio.run(_serve(tmp_path, body))
    for job in jobs:
        assert job.state is JobState.DONE, job.error
        assert not job.cached
        assert job.verdict == reference.verdict
    # Both blocked writes are counted; the writable run's write was not.
    assert registry.counter("service.cache_write_errors", kind="detect") == 2
    assert status["ok"]
    assert status["totals"]["completed"] == 2
    assert status["totals"]["failed"] == 0
    assert status["totals"]["cache_hits"] == 0
