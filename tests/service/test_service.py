"""The asyncio service core: dedup ladder, scheduling, persistence.

Everything runs on the inline (thread) fleet — ``pool="none"`` — so the
tests are deterministic and fast regardless of fork availability; the
fork pool is exercised by the protocol e2e test and the CI smoke job.
No pytest-asyncio in this repo: each test drives its own event loop via
``asyncio.run``.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

import pytest

from repro.service import (
    AdmissionError,
    Dashboard,
    JobError,
    JobKind,
    JobQueue,
    JobState,
    ReproService,
    ResultCache,
    WorkerFleet,
    run_job,
)
from repro.service.dashboard import render_status
from repro.service.jobs import Job, JobOptions


def _service(tmp_path, size=2, max_pending=256):
    return ReproService(
        ResultCache(tmp_path / "cache"),
        fleet=WorkerFleet(size=size, pool="none"),
        max_pending=max_pending,
    )


async def _finished(service, job, timeout=120.0):
    return await service.wait(job.id, timeout=timeout)


def test_submit_detect_runs_on_fleet(tmp_path):
    async def main():
        service = _service(tmp_path)
        await service.start()
        try:
            job = service.submit("detect", "atomicity_lost_update")
            assert job.state is JobState.QUEUED and not job.cached
            await _finished(service, job)
        finally:
            await service.close()
        return job, service

    job, service = asyncio.run(main())
    assert job.state is JobState.DONE
    assert job.verdict["manifested"] is True
    assert "lockset" in job.verdict["flagged_by"]
    assert job.engine_runs >= 1
    assert service.engine_runs == job.engine_runs
    assert len(service.cache) == 1  # the verdict was published


def test_duplicate_submission_hits_cache_with_zero_engine_runs(tmp_path):
    """The ISSUE property: same program twice → cached verdict, zero new
    engine runs."""
    async def main():
        service = _service(tmp_path)
        await service.start()
        try:
            first = service.submit("detect", "atomicity_lost_update")
            await _finished(service, first)
            runs_after_first = service.engine_runs

            second = service.submit("detect", "atomicity_lost_update")
            # Born finished: no wait, no scheduling, no fleet involvement.
            assert second.finished and second.cached
            assert second.engine_runs == 0
            assert service.engine_runs == runs_after_first
            assert second.verdict == first.verdict
            assert service.cache_hits == 1
            assert len(service.queue) == 0
        finally:
            await service.close()

    asyncio.run(main())


def test_differing_options_miss_the_cache(tmp_path):
    async def main():
        service = _service(tmp_path)
        await service.start()
        try:
            first = service.submit("detect", "atomicity_lost_update")
            await _finished(service, first)

            for options in (
                {"reduction": "dpor"},
                {"preemption_bound": 2},
                {"memoize": True},
                {"max_schedules": 500},
                {"memory": "tso"},
            ):
                job = service.submit("detect", "atomicity_lost_update", options)
                assert not job.cached, f"{options} wrongly hit the cache"
                await _finished(service, job)
                assert job.verdict["manifested"] is True
            assert service.cache_hits == 0
        finally:
            await service.close()

    asyncio.run(main())


@pytest.mark.parametrize(
    "options, error",
    [
        ({"workers": 2}, "unknown job option(s): workers"),
        ({"frontier": "00"}, "unknown job option(s): frontier"),
        ({"memoize": "false"}, "option memoize must be a boolean"),
    ],
    ids=["workers", "frontier", "memoize-string"],
)
def test_workers_option_is_refused_over_the_wire(tmp_path, options, error):
    """A ``workers`` option, which the service does not have, gets the
    unknown-option error through the real socket protocol — not a silent
    serial run — and the same service keeps answering ``status``.  So do
    a ``frontier`` field (the protocol never accepts a pickle) and an
    option of the wrong type."""
    from repro.service.protocol import request_once, serve

    async def main():
        sock = tmp_path / "svc.sock"
        service = _service(tmp_path, size=1)
        serve_task = asyncio.create_task(serve(service, socket_path=sock))
        for _ in range(500):
            if sock.exists():
                break
            await asyncio.sleep(0.01)
        refused = await request_once(
            {
                "op": "submit",
                "kind": "detect",
                "kernel": "atomicity_lost_update",
                "options": options,
                "wait": True,
                "timeout": 60,
            },
            socket_path=sock,
        )
        status = await request_once({"op": "status"}, socket_path=sock)
        await request_once({"op": "shutdown"}, socket_path=sock)
        await asyncio.wait_for(serve_task, timeout=60)
        return refused, status

    refused, status = asyncio.run(main())
    assert not refused["ok"]
    assert error in refused["error"]
    assert status["ok"]
    assert status["totals"]["submissions"] == 0
    assert status["jobs"] == []


def test_concurrent_identical_submissions_coalesce(tmp_path):
    async def main():
        # One slot so the first job occupies the fleet while duplicates
        # of the second arrive behind it in the queue.
        service = _service(tmp_path, size=1)
        await service.start()
        try:
            blocker = service.submit("detect", "deadlock_abba")
            first = service.submit("check", "order_lost_wakeup")
            dup_a = service.submit("check", "order_lost_wakeup")
            dup_b = service.submit("check", "order_lost_wakeup")
            assert dup_a is first and dup_b is first
            assert first.submissions == 3
            assert service.coalesced == 2
            assert service.submissions == 4
            await _finished(service, blocker)
            await _finished(service, first)
            assert first.verdict["clean"] is True
            # The carrier job ran once; three submissions were answered.
            assert service.jobs_completed == 2
            assert service.dedup_ratio() == pytest.approx(2 / 4)
        finally:
            await service.close()

    asyncio.run(main())


def test_verdicts_persist_across_service_restarts(tmp_path):
    """A new service over the same cache directory answers from disk."""
    async def run_once():
        service = _service(tmp_path)
        await service.start()
        try:
            job = service.submit("static", "multivar_buffer_flag")
            await _finished(service, job)
            return job
        finally:
            await service.close()

    async def run_again():
        service = _service(tmp_path)
        await service.start()
        try:
            job = service.submit("static", "multivar_buffer_flag")
            assert job.cached and job.finished
            assert service.engine_runs == 0
            return job
        finally:
            await service.close()

    first = asyncio.run(run_once())
    second = asyncio.run(run_again())
    assert second.verdict == first.verdict
    assert second.verdict["candidates"] >= 1


def test_source_jobs_key_on_content_digest(tmp_path):
    """``source`` jobs analyze a real Python module: frontend → lift →
    confirm, cache-keyed on the file's bytes + frontend version rather
    than a kernel fingerprint."""
    corpus = (
        Path(__file__).resolve().parents[2] / "examples" / "realworld"
    )
    buggy = str(corpus / "use_before_init_buggy.py")

    async def main():
        service = _service(tmp_path)
        await service.start()
        try:
            job = service.submit("source", buggy, {"max_schedules": 200})
            await _finished(service, job)
            assert job.state is JobState.DONE
            assert job.verdict["kind"] == "source"
            assert job.verdict["module"] == "use_before_init_buggy"
            assert job.verdict["clean"] is False
            assert job.verdict["confirmed"] >= 1
            assert job.engine_runs >= 1

            # Identical bytes → cache hit, even under a different path.
            copy = tmp_path / "renamed.py"
            copy.write_bytes(Path(buggy).read_bytes())
            again = service.submit("source", str(copy), {"max_schedules": 200})
            assert again.cached and again.finished
            assert again.verdict == job.verdict

            # A content edit invalidates the key.
            copy.write_bytes(copy.read_bytes() + b"\n# touched\n")
            edited = service.submit("source", str(copy), {"max_schedules": 200})
            assert not edited.cached
            await _finished(service, edited)

            with pytest.raises(JobError) as excinfo:
                service.submit("source", str(tmp_path / "missing.py"))
            assert "unreadable source module" in str(excinfo.value)
        finally:
            await service.close()

    asyncio.run(main())


def test_admission_control_refuses_when_full(tmp_path):
    async def main():
        service = _service(tmp_path, size=1, max_pending=1)
        # Fleet deliberately not started: nothing drains the queue, so
        # the backlog fills deterministically.
        service.submit("detect", "atomicity_lost_update")
        with pytest.raises(AdmissionError):
            service.submit("detect", "atomicity_single_var")
        # The refused submission left no ghost job behind.
        assert len(service.jobs) == 1
        # A duplicate of the queued job still coalesces (dedup beats
        # admission control in the ladder).
        carrier = service.submit("detect", "atomicity_lost_update")
        assert carrier.submissions == 2
        await service.close()

    asyncio.run(main())


def test_unknown_kernel_and_job_id_rejected(tmp_path):
    async def main():
        service = _service(tmp_path)
        with pytest.raises(JobError) as excinfo:
            service.submit("detect", "no_such_kernel")
        assert "available" in str(excinfo.value)
        with pytest.raises(JobError):
            service.get_job("j9999")
        await service.close()

    asyncio.run(main())


def test_failed_job_is_reported_not_cached(tmp_path):
    async def main():
        service = _service(tmp_path)
        await service.start()
        try:
            job = service.submit("detect", "atomicity_lost_update")
            # Corrupt the accepted job so the worker-side run explodes.
            object.__setattr__(job.options, "max_schedules", -5)
            await _finished(service, job)
        finally:
            await service.close()
        return job, service

    job, service = asyncio.run(main())
    assert job.state is JobState.FAILED
    assert job.error and "JobError" in job.error
    assert service.jobs_failed == 1
    assert len(service.cache) == 0  # failures are never persisted


def test_dashboard_reflects_service_state(tmp_path):
    async def main():
        service = _service(tmp_path)
        await service.start()
        try:
            job = service.submit("explore", "atomicity_single_var")
            await _finished(service, job)
            service.submit("explore", "atomicity_single_var")  # cache hit
        finally:
            await service.close()
        return service

    service = asyncio.run(main())
    snapshot = Dashboard(service).as_dict()
    assert snapshot["totals"]["submissions"] == 2
    assert snapshot["totals"]["completed"] == 2
    assert snapshot["totals"]["cache_hits"] == 1
    assert snapshot["totals"]["dedup_ratio"] == pytest.approx(0.5)
    assert snapshot["cache"]["entries"] == 1
    assert len(snapshot["jobs"]) == 2
    assert snapshot["fleet"]["mode"] == "inline"
    text = Dashboard(service).format()
    assert "cache hits 1" in text
    assert "outcomes" in text  # the explore verdict cell


def test_status_text_shows_source_verdicts(tmp_path, monkeypatch, capsys):
    """``repro status`` prints the dashboard's one text rendering, and
    its verdict cell reads a ``source`` job like ``repro submit`` does:
    the confirmed count and NOT-CLEAN."""
    from repro import cli

    buggy = str(
        Path(__file__).resolve().parents[2]
        / "examples" / "realworld" / "use_before_init_buggy.py"
    )

    async def main():
        service = _service(tmp_path)
        await service.start()
        try:
            job = service.submit("source", buggy, {"max_schedules": 200})
            await _finished(service, job)
        finally:
            await service.close()
        return job, service

    job, service = asyncio.run(main())
    snapshot = {"ok": True, **Dashboard(service).as_dict()}

    class Client:
        def status(self):
            return snapshot

    monkeypatch.setattr(cli, "_client", lambda args: Client())
    assert cli.main(["status"]) == 0
    printed = capsys.readouterr().out
    assert printed == render_status(snapshot) + "\n"
    (row,) = [
        line for line in printed.splitlines()
        if line.strip().startswith(job.id)
    ]
    assert job.verdict["confirmed"] >= 1
    assert row.endswith(f"{job.verdict['confirmed']} confirmed, NOT-CLEAN")
    assert Dashboard(service).format().splitlines()[-1] == row


def test_fifo_also_populates_queue_wait(tmp_path):
    async def main():
        service = _service(tmp_path)
        await service.start()
        try:
            jobs = [
                service.submit("detect", "atomicity_lost_update"),
                service.submit("check", "order_lost_wakeup"),
            ]
            for job in jobs:
                await service.wait(job.id, timeout=120)
        finally:
            await service.close()
        return service

    service = asyncio.run(main())
    assert service.queue_wait.as_dict()["count"] == 2


def test_queue_invariants():
    queue = JobQueue(max_pending=2)
    options = JobOptions()

    def make(key, job_id):
        return Job(
            id=job_id, kind=JobKind.DETECT, kernel="k",
            options=options, key=key,
        )

    a = queue.offer(make("a" * 64, "j1"))
    assert queue.offer(make("a" * 64, "j2")) is a  # coalesced
    queue.offer(make("b" * 64, "j3"))
    with pytest.raises(AdmissionError):
        queue.offer(make("c" * 64, "j4"))
    assert queue.take() is a
    a.state = JobState.RUNNING
    assert queue.running == 1
    # Still coalesces while RUNNING (it's in the dedup index until finish).
    assert queue.offer(make("a" * 64, "j5")) is a
    a.state = JobState.DONE
    queue.finish(a)
    # After finish the key is free again: a fresh job enqueues.
    fresh = queue.offer(make("a" * 64, "j6"))
    assert fresh is not a
    with pytest.raises(ValueError):
        JobQueue(max_pending=0)


def test_run_job_matches_one_shot_detect():
    """The worker entry point returns the same verdict the one-shot CLI
    path computes (bit-comparable flagged_by / kinds)."""
    from repro.detectors import DetectorSuite
    from repro.kernels import get_kernel

    kernel = get_kernel("multivar_buffer_flag")
    payload = run_job("detect", "multivar_buffer_flag", {})
    failing = kernel.find_manifestation()
    assert failing is not None
    suite_result = DetectorSuite.for_program(kernel.buggy).analyse(failing.trace)
    assert payload["verdict"]["manifested"] is True
    assert payload["verdict"]["flagged_by"] == suite_result.flagged_by()
    assert payload["verdict"]["kinds"] == sorted(
        k.value for k in suite_result.kinds_found()
    )
    assert payload["engine_runs"] >= 1
    assert payload["worker_wall_seconds"] > 0.0


def test_memory_option_validated_and_folded_into_cache_key():
    from repro.service.jobs import kernel_cache_key
    from repro.kernels import get_kernel

    with pytest.raises(JobError, match="memory must be one of"):
        JobOptions.from_dict({"memory": "arm"})
    options = JobOptions.from_dict({"memory": "tso"})
    assert options.memory == "tso"
    assert ("memory", "tso") in options.key_items(JobKind.DETECT)
    assert options.to_dict()["memory"] == "tso"
    # The declared-model key differs from every explicit override, and
    # the overrides differ from each other: no verdict crosses models.
    kernel = get_kernel("atomicity_lost_update")
    keys = {
        kernel_cache_key(JobKind.DETECT, kernel, JobOptions.from_dict(raw))
        for raw in ({}, {"memory": "sc"}, {"memory": "tso"})
    }
    assert len(keys) == 3


def test_run_job_applies_memory_override():
    """The weakmem kernel is the observable witness: its bug exists under
    its declared TSO model and is unreachable once forced to SC."""
    declared = run_job("detect", "weakmem_store_buffer", {})
    forced_sc = run_job("detect", "weakmem_store_buffer", {"memory": "sc"})
    assert declared["verdict"]["manifested"] is True
    assert forced_sc["verdict"]["manifested"] is False
    # ... and the fix verifies clean under the weak model itself.
    check = run_job("check", "weakmem_store_buffer", {"memory": "tso"})
    assert check["verdict"]["clean"] is True
