"""Fault injection and lifecycle: the service survives fork workers that
die and a cache it cannot write, and its fork fleet leaves nothing behind.

A SIGKILLed worker (the OOM killer's signal) fails only the job it was
running.  The fleet must reap that one worker, count
``service.worker_restarts`` once, and run the interrupted job once more
on a fresh worker; a job whose second worker dies too ends FAILED with a
``WorkerDied`` error and uncached.  Jobs on the other workers run on,
exactly once, later jobs still run and ``status`` still answers.  An
exception raised by ``run_job`` fails only its job, and its worker
serves the next.  A verdict the result cache cannot store still answers
its job, uncached, and ``service.cache_write_errors`` counts it.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import threading
import time
from functools import partial
from pathlib import Path

import pytest

from repro.kernels import all_kernels
from repro.obs import metrics as obs_metrics
from repro.service import JobState, ReproService, ResultCache, WorkerFleet
from repro.service import workers
from repro.service.jobs import Job, JobKind, JobOptions, run_job
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


def _log_call(log_path, kernel_name):
    """Append ``kernel pid`` to ``log_path``; returns every logged call."""
    with open(log_path, "a", encoding="utf-8") as log:
        log.write(f"{kernel_name} {os.getpid()}\n")
    return _calls(log_path)


def _calls(log_path):
    """The logged calls as ``(kernel, pid)`` pairs, in order."""
    text = Path(log_path).read_text(encoding="utf-8")
    return [tuple(line.split()) for line in text.splitlines()]


def _logged_run_job(log_path, kind_value, kernel_name, options_dict):
    _log_call(log_path, kernel_name)
    return run_job(kind_value, kernel_name, options_dict)


@pytest.fixture
def registry():
    registry = obs_metrics.enable()
    yield registry
    obs_metrics.disable()


async def _status(socket_path):
    return await request_once({"op": "status"}, socket_path=socket_path)


async def _serve(tmp_path, body, size=1):
    """Run ``body(service)`` against a ``size``-worker fork fleet behind a
    live socket; returns what it returns plus a final ``status``."""
    service = ReproService(
        ResultCache(tmp_path / "cache"),
        fleet=WorkerFleet(size=size, pool="fork"),
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
    assert fatal.error.startswith("WorkerDied")
    assert cached is None
    assert after.state is JobState.DONE
    assert after.verdict["manifested"] is True
    # One restart per dead worker: the first run's and the retry's.
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


#: A job of this kernel is SIGKILLed mid-job the first time it runs.
_VICTIM = "deadlock_abba"
#: A job of this kernel runs on another worker meanwhile.
_BYSTANDER = "atomicity_lost_update"


def _run_job_victim_killed_once(log_path, kind_value, kernel_name, options_dict):
    """Logs each call.  The victim's first run SIGKILLs its worker; the
    bystander's run lasts until the victim's second run has begun."""
    calls = _log_call(log_path, kernel_name)
    if kernel_name == _VICTIM and [k for k, _ in calls].count(_VICTIM) == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    if kernel_name == _BYSTANDER:
        deadline = time.monotonic() + 60
        while (
            [k for k, _ in _calls(log_path)].count(_VICTIM) < 2
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
    return run_job(kind_value, kernel_name, options_dict)


def test_worker_killed_mid_job_fails_no_other_job(tmp_path, registry, monkeypatch):
    log = tmp_path / "calls.log"
    monkeypatch.setattr(
        workers, "run_job", partial(_run_job_victim_killed_once, log)
    )

    async def body(service):
        jobs = [service.submit("detect", name) for name in (_BYSTANDER, _VICTIM)]
        return [await service.wait(job.id, timeout=120) for job in jobs]

    jobs, status = asyncio.run(_serve(tmp_path, body, size=2))
    for job in jobs:
        assert job.state is JobState.DONE, (job.kernel, job.error)
        assert job.verdict["manifested"] is True
    calls = _calls(log)
    victim_pids = [pid for kernel, pid in calls if kernel == _VICTIM]
    bystander_pids = [pid for kernel, pid in calls if kernel == _BYSTANDER]
    # The victim ran once more on a fresh worker; the bystander, whose
    # worker was busy throughout, ran exactly once.
    assert len(victim_pids) == 2 and len(set(victim_pids)) == 2
    assert len(bystander_pids) == 1
    assert bystander_pids[0] not in victim_pids
    assert registry.counter("service.worker_restarts") == 1
    assert status["totals"]["completed"] == 2
    assert status["totals"]["failed"] == 0


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts open fds in /proc"
)
def test_fork_fleet_starts_no_thread_and_leaves_nothing_behind(tmp_path):
    async def body():
        fds = len(os.listdir("/proc/self/fd"))
        threads = threading.active_count()
        before = {child.pid for child in multiprocessing.active_children()}
        service = ReproService(
            ResultCache(tmp_path / "cache"),
            fleet=WorkerFleet(size=2, pool="fork"),
        )
        await service.start()
        jobs = [
            service.submit("detect", name)
            for name in ("atomicity_lost_update", "order_lost_wakeup")
        ]
        most = threading.active_count()
        deadline = time.monotonic() + 120
        while not all(job.finished for job in jobs) and time.monotonic() < deadline:
            most = max(most, threading.active_count())
            await asyncio.sleep(0.001)
        pids = {
            child.pid for child in multiprocessing.active_children()
        } - before
        closing = time.monotonic()
        await service.close()
        closed_in = time.monotonic() - closing
        fds_after = len(os.listdir("/proc/self/fd"))
        return jobs, fds, threads, most, pids, fds_after, closed_in

    jobs, fds, threads, most, pids, fds_after, closed_in = asyncio.run(body())
    for job in jobs:
        assert job.state is JobState.DONE, (job.kernel, job.error)
    assert most <= threads
    assert 1 <= len(pids) <= 2
    assert not any(Path(f"/proc/{pid}").exists() for pid in pids)
    assert fds_after == fds
    # The idle workers read EOF and exited; none waited out the grace.
    assert closed_in < workers.REAP_WAIT_S


def test_fork_fleet_larger_than_the_machine_answers_every_job(
    tmp_path, monkeypatch
):
    """Four workers (more than a 2-vCPU machine has cores) take 32
    distinct jobs handed to ``WorkerFleet.run`` together, so the fleet's
    own bound is all that keeps it to four workers."""
    log = tmp_path / "calls.log"
    monkeypatch.setattr(workers, "run_job", partial(_logged_run_job, log))
    options = {"max_schedules": 50}
    specs = [
        (kind, kernel.name)
        for kernel in all_kernels()
        for kind in ("static", "detect")
    ]
    assert len(specs) == 32
    jobs = [
        Job(
            id=f"j{index}", kind=JobKind.parse(kind), kernel=name,
            options=JobOptions.from_dict(options), key="0" * 64,
        )
        for index, (kind, name) in enumerate(specs)
    ]

    async def body():
        fleet = WorkerFleet(size=4, pool="fork")
        try:
            return await asyncio.wait_for(
                asyncio.gather(*(fleet.run(job) for job in jobs)), timeout=120
            )
        finally:
            fleet.shutdown()

    payloads = asyncio.run(body())
    for payload, (kind, name) in zip(payloads, specs):
        assert payload["verdict"] == run_job(kind, name, options)["verdict"], (
            kind, name,
        )
    calls = _calls(log)
    assert sorted(kernel for kernel, _ in calls) == sorted(name for _, name in specs)
    assert len({pid for _, pid in calls}) <= 4


class _LocalError(Exception):
    def __init__(self, what, why):  # pickles, but will not unpickle
        super().__init__(f"{what}: {why}")


def _run_job_raising(log_path, kind_value, kernel_name, options_dict):
    """Logs each call; two kernels' jobs raise instead of answering."""
    _log_call(log_path, kernel_name)
    if kernel_name == "deadlock_abba":
        raise ValueError("no verdict for deadlock_abba")
    if kernel_name == "deadlock_self":
        raise _LocalError("deadlock_self", "no verdict")
    return run_job(kind_value, kernel_name, options_dict)


def test_job_whose_run_job_raises_fails_alone(tmp_path, registry, monkeypatch):
    log = tmp_path / "calls.log"
    monkeypatch.setattr(workers, "run_job", partial(_run_job_raising, log))

    async def body(service):
        return [
            await _finish(service, "detect", name)
            for name in ("deadlock_abba", "deadlock_self", "atomicity_lost_update")
        ]

    (raised, unpicklable, after), status = asyncio.run(_serve(tmp_path, body))
    assert raised.state is JobState.FAILED
    assert raised.error == "ValueError: no verdict for deadlock_abba"
    assert unpicklable.state is JobState.FAILED
    assert unpicklable.error.startswith("RuntimeError: run_job raised _LocalError")
    assert after.state is JobState.DONE
    assert after.verdict["manifested"] is True
    # One worker served all three jobs, and none of them counts as a death.
    assert len({pid for _, pid in _calls(log)}) == 1
    assert registry.counter("service.worker_restarts") == 0
    assert status["totals"]["failed"] == 2
    assert status["totals"]["completed"] == 1
