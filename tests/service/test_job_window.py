"""The service keeps a bounded job table and scans its cache once per status.

Every in-flight job stays findable by id; of the finished ones, only the
newest ``FINISHED_JOBS_KEPT`` do.  Cache hits are finished at birth, so
a hit-heavy load would otherwise grow the table without bound.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs import metrics as obs_metrics
from repro.service import (
    Dashboard,
    JobError,
    JobState,
    ReproService,
    ResultCache,
    WorkerFleet,
)
from repro.service.protocol import _dispatch
from repro.service.queue import FINISHED_JOBS_KEPT


def _service(tmp_path):
    return ReproService(
        ResultCache(tmp_path / "cache"), fleet=WorkerFleet(size=1, pool="none")
    )


async def _cached_service(tmp_path):
    """A started service whose cache answers ``detect deadlock_abba``."""
    service = _service(tmp_path)
    await service.start()
    first = service.submit("detect", "deadlock_abba")
    await service.wait(first.id, timeout=120)
    return service, first


def _finished_jobs(service):
    return sum(1 for job in service.jobs.values() if job.finished)


def test_ten_thousand_hits_keep_at_most_the_window(tmp_path):
    async def main():
        service, first = await _cached_service(tmp_path)
        try:
            hits = [
                service.submit("detect", "deadlock_abba") for _ in range(10_000)
            ]
        finally:
            await service.close()
        return service, first, hits

    service, first, hits = asyncio.run(main())
    assert FINISHED_JOBS_KEPT == 1024
    assert all(hit.cached for hit in hits)
    assert service.cache_hits == 10_000
    assert _finished_jobs(service) == len(service.jobs) == FINISHED_JOBS_KEPT
    assert service.get_job(hits[-1].id) is hits[-1]
    assert service.get_job(hits[-FINISHED_JOBS_KEPT].id).cached
    for forgotten in (first, hits[0], hits[-FINISHED_JOBS_KEPT - 1]):
        with pytest.raises(JobError, match="unknown job id"):
            service.get_job(forgotten.id)


def test_in_flight_job_outlives_the_window(tmp_path):
    async def main():
        service, _ = await _cached_service(tmp_path)
        try:
            # No await between the submissions: the queued job cannot be
            # dispatched until the hits are in.
            pending = service.submit("check", "order_lost_wakeup")
            waiter = asyncio.create_task(service.wait(pending.id, timeout=120))
            for _ in range(2000):
                service.submit("detect", "deadlock_abba")
            assert not pending.finished
            assert service.get_job(pending.id) is pending
            assert _finished_jobs(service) == FINISHED_JOBS_KEPT
            woken = await waiter
        finally:
            await service.close()
        return pending, woken, service

    pending, woken, service = asyncio.run(main())
    assert woken is pending and pending.state is JobState.DONE
    # Finishing made it the newest finished job, inside the window.
    assert service.get_job(pending.id) is pending
    assert _finished_jobs(service) == FINISHED_JOBS_KEPT


def test_status_lists_the_newest_fifty_jobs(tmp_path):
    async def main():
        service, _ = await _cached_service(tmp_path)
        try:
            hits = [
                service.submit("detect", "deadlock_abba") for _ in range(1500)
            ]
        finally:
            await service.close()
        return service, hits

    service, hits = asyncio.run(main())
    listed = Dashboard(service).as_dict()["jobs"]
    assert [job["id"] for job in listed] == [hit.id for hit in hits[-50:]]


def test_status_scans_the_cache_once_and_publishes_its_numbers(
    tmp_path, monkeypatch
):
    scans = []
    scan = ResultCache.__len__

    def counting_scan(cache):
        scans.append(cache)
        return scan(cache)

    monkeypatch.setattr(ResultCache, "__len__", counting_scan)

    async def main():
        service, _ = await _cached_service(tmp_path)
        try:
            service.submit("detect", "deadlock_abba")
            service.submit("detect", "order_lost_wakeup")  # queued: a miss
            registry = obs_metrics.enable()
            try:
                scans.clear()
                response = await _dispatch(
                    service, {"op": "status"}, asyncio.Event()
                )
            finally:
                obs_metrics.disable()
        finally:
            await service.close()
        return response, registry

    response, registry = asyncio.run(main())
    assert response["ok"]
    assert len(scans) == 1
    cache = response["cache"]
    assert (cache["entries"], cache["hits"], cache["misses"]) == (1, 1, 2)
    assert registry.gauge("service.cache_entries") == cache["entries"]
    assert registry.gauge("service.cache_hit_total") == cache["hits"]
    assert (
        registry.gauge("service.cache_lookup_total")
        == cache["hits"] + cache["misses"]
    )
