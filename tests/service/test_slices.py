"""Slice-based dispatch: sliceability, worker slices, the UCB scheduler.

The contract under test (``docs/allocator.md``): a job cut into slices
by the UCB scheduler finishes with a verdict and ``engine_runs``
bit-identical to the one-shot ``run_job`` path, because the terminal
slice builds its verdict from the same cumulative exploration result
through the same ``VERDICT_BUILDERS``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    ALLOC_POLICIES,
    ReproService,
    ResultCache,
    WorkerFleet,
    job_sliceable,
    run_job,
    run_slice,
)
from repro.service.jobs import JobKind, JobOptions


def _service(tmp_path, size=2, **kwargs):
    return ReproService(
        ResultCache(tmp_path / "cache"),
        fleet=WorkerFleet(size=size, pool="none"),
        **kwargs,
    )


class TestSliceability:
    @pytest.mark.parametrize("kind", [JobKind.CHECK, JobKind.DETECT, JobKind.EXPLORE])
    def test_exploration_kinds_slice_by_default(self, kind):
        assert job_sliceable(kind, JobOptions())

    @pytest.mark.parametrize("kind", [JobKind.STATIC, JobKind.SOURCE])
    def test_non_exploration_kinds_do_not(self, kind):
        assert not job_sliceable(kind, JobOptions())

    def test_sleepset_reduction_slices_dpor_does_not(self):
        assert job_sliceable(JobKind.DETECT, JobOptions(reduction="sleepset"))
        assert not job_sliceable(JobKind.DETECT, JobOptions(reduction="dpor"))

    def test_run_slice_refuses_unsliceable_jobs(self):
        with pytest.raises(ValueError, match="not sliceable"):
            run_slice(
                "detect", "atomicity_lost_update", {"reduction": "dpor"},
                "", 10,
            )


class TestRunSlice:
    def _drive(self, kind, kernel, options, slice_budget):
        """Run a job slice by slice until the terminal payload."""
        frontier_hex = ""
        slices = 0
        while True:
            payload = run_slice(kind, kernel, options, frontier_hex, slice_budget)
            slices += 1
            assert payload["attempts"] >= 1
            if "verdict" in payload:
                return payload, slices
            assert "frontier" in payload  # provisional: no verdict yet
            frontier_hex = payload["frontier"]
            assert slices < 10_000

    @pytest.mark.parametrize("kind", ["detect", "check", "explore"])
    def test_terminal_slice_matches_run_job(self, kind):
        kernel = "atomicity_lost_update"
        options = {"memoize": True} if kind == "explore" else {}
        whole = run_job(kind, kernel, options)
        sliced, slices = self._drive(kind, kernel, options, slice_budget=3)
        assert sliced["verdict"] == whole["verdict"]
        assert sliced["engine_runs"] == whole["engine_runs"]
        if kind == "explore":
            # Full-space enumeration cannot fit one 3-attempt slice.
            assert slices > 1

    def test_cumulative_counters_are_monotonic(self):
        frontier_hex = ""
        last_attempts = 0
        for _ in range(3):
            payload = run_slice(
                "explore", "atomicity_lost_update", {}, frontier_hex, 2
            )
            assert payload["attempts"] > last_attempts
            last_attempts = payload["attempts"]
            if "verdict" in payload:
                break
            frontier_hex = payload["frontier"]


class TestServiceConfig:
    def test_alloc_policy_validated(self, tmp_path):
        assert set(ALLOC_POLICIES) == {"fifo", "ucb"}
        with pytest.raises(ValueError, match="alloc"):
            _service(tmp_path, alloc="lifo")
        with pytest.raises(ValueError, match="slice_budget"):
            _service(tmp_path, alloc="ucb", slice_budget=0)

    def test_defaults_are_fifo(self, tmp_path):
        service = _service(tmp_path)
        assert service.alloc == "fifo"
        assert service.slice_budget >= 1


class TestUCBScheduler:
    def test_sliced_jobs_finish_with_one_shot_verdicts(self, tmp_path):
        """Tiny slice budget forces real requeues; verdicts still match
        the one-shot path, and arm stats land on the dashboard."""
        # detect stops on its first finding; explore must enumerate the
        # whole outcome space, so at slice_budget=5 it *must* requeue.
        specs = [
            ("detect", "atomicity_lost_update"),
            ("explore", "order_lost_wakeup"),
        ]

        async def main():
            service = _service(tmp_path, alloc="ucb", slice_budget=5)
            await service.start()
            try:
                jobs = [service.submit(kind, name) for kind, name in specs]
                static = service.submit("static", specs[0][1])  # whole-job arm
                for job in jobs + [static]:
                    await service.wait(job.id, timeout=120)
            finally:
                await service.close()
            return jobs, static, service

        jobs, static, service = asyncio.run(main())
        for (kind, name), job in zip(specs, jobs):
            expected = run_job(kind, name, {})
            assert job.verdict == expected["verdict"], name
            assert job.engine_runs == expected["engine_runs"], name
            assert job.slices >= 1
        assert jobs[1].slices > 1  # the explore job really was requeued
        assert static.verdict["candidates"] >= 1
        assert static.slices == 1  # ran whole, as a single pull

        summary = service.allocator.summary()
        assert summary["arms"] == 3
        assert summary["pulls"] >= sum(job.slices for job in jobs) + 1
        strategies = {row["strategy"] for row in service.allocator.stats()}
        assert strategies == {"detect", "explore", "static:whole"}

    def test_queue_wait_histogram_populated(self, tmp_path):
        async def main():
            service = _service(tmp_path, alloc="ucb", slice_budget=50)
            await service.start()
            try:
                job = service.submit("detect", "atomicity_lost_update")
                await service.wait(job.id, timeout=120)
            finally:
                await service.close()
            return service

        service = asyncio.run(main())
        wait = service.queue_wait.as_dict()
        assert wait["count"] == 1  # one observation per job, not per slice
        assert wait["min"] >= 0.0

    def test_fifo_also_populates_queue_wait(self, tmp_path):
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

    def test_dashboard_reports_alloc_state(self, tmp_path):
        from repro.service import Dashboard

        async def main():
            service = _service(tmp_path, alloc="ucb", slice_budget=5)
            await service.start()
            try:
                job = service.submit("detect", "atomicity_lost_update")
                await service.wait(job.id, timeout=120)
            finally:
                await service.close()
            return service

        service = asyncio.run(main())
        snapshot = Dashboard(service).as_dict()
        assert snapshot["alloc"]["policy"] == "ucb"
        assert snapshot["alloc"]["slice_budget"] == 5
        assert snapshot["alloc"]["arms_total"] == 1
        (arm,) = snapshot["alloc"]["arms"]
        assert arm["strategy"] == "detect"
        assert arm["findings"] == 1
        assert "queue_wait" in snapshot
        rendered = Dashboard(service).format()
        assert "alloc ucb" in rendered
        assert "queue wait:" in rendered

    def test_fifo_dashboard_keeps_policy_only(self, tmp_path):
        from repro.service import Dashboard

        service = _service(tmp_path)
        snapshot = Dashboard(service).as_dict()
        assert snapshot["alloc"] == {"policy": "fifo"}
