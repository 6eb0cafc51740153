"""Every search reports itself once: one ``explorer.search`` record per
search that runs to its end, written by the search's own close-out.

Three views of that rule: each CLI command's run log holds exactly as
many search records as its metrics count searches, and they add up to
the same schedules; a fork fleet's workers append their jobs' records
to the server's log file, one whole line each; and a search abandoned
between ``attempts()`` pulls writes nothing.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
from pathlib import Path

import pytest

from repro.cli import main
from repro.kernels import get_kernel
from repro.obs import runlog as obs_runlog
from repro.obs.runlog import read_records
from repro.service import ReproService, ResultCache, WorkerFleet
from repro.sim import Explorer

from tests.helpers import racy_counter

KERNEL = "atomicity_lost_update"
MODULE = str(
    Path(__file__).resolve().parents[2]
    / "examples" / "realworld" / "use_before_init_buggy.py"
)

COMMANDS = {
    "kernel": ["kernel", KERNEL],
    "detect": ["detect", KERNEL],
    "detect-online": ["detect", KERNEL, "--online"],
    "static": ["static", KERNEL],
    "static-direct": ["static", KERNEL, "--direct"],
    "estimate": ["estimate", KERNEL, "--runs", "10"],
    "lift": ["lift", MODULE],
    "bug-report": ["bug-report", KERNEL, "--runs", "10"],
}


def _counter_sum(counters, name):
    """A counter's total over every label set of a metrics snapshot."""
    return sum(
        value for key, value in counters.items() if key.split("{")[0] == name
    )


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_search_of_a_command_leaves_one_record(command, tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    main(COMMANDS[command] + ["--metrics-out", str(path)])
    capsys.readouterr()
    records = read_records(path)
    counters = records[-1]["metrics"]["counters"]
    searches = [r for r in records if r["event"] == "explorer.search"]
    assert searches
    assert len(searches) == _counter_sum(counters, "explorer.explorations")
    assert sum(r["result"]["schedules_run"] for r in searches) == (
        _counter_sum(counters, "explorer.schedules_run")
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork worker pool",
)
def test_fork_fleet_jobs_append_their_searches_to_the_log(tmp_path):
    path = tmp_path / "run.jsonl"
    submissions = [
        (kind, name)
        for kind in ("check", "detect", "explore")
        for name in (KERNEL, "deadlock_abba", "order_lost_wakeup")
    ]

    async def run_all():
        service = ReproService(
            ResultCache(tmp_path / "cache"),
            fleet=WorkerFleet(size=2, pool="fork"),
        )
        await service.start()
        try:
            jobs = [service.submit(kind, name) for kind, name in submissions]
            return [await service.wait(job.id, timeout=120) for job in jobs]
        finally:
            await service.close()

    obs_runlog.set_runlog(path)
    try:
        jobs = asyncio.run(run_all())
    finally:
        obs_runlog.clear_runlog()
    assert all(not job.cached and job.verdict is not None for job in jobs)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    searches = [r for r in records if r["event"] == "explorer.search"]
    assert len(searches) == len(submissions)
    programs = sorted(r["program"] for r in searches)
    expected = sorted(
        (get_kernel(name).fixed if kind == "check" else get_kernel(name).buggy).name
        for kind, name in submissions
    )
    assert programs == expected


def test_abandoned_search_writes_nothing_and_a_drained_one_writes_once():
    records = []
    obs_runlog.set_runlog(records.append)
    try:
        abandoned = Explorer(racy_counter()).attempts()
        next(abandoned)
        next(abandoned)
        abandoned.close()
        assert records == []
        drained = Explorer(racy_counter()).attempts()
        pulls = sum(1 for _ in drained)
    finally:
        obs_runlog.clear_runlog()
    assert pulls > 2
    assert [r["event"] for r in records] == ["explorer.search"]
    assert records[0]["result"]["schedules_run"] == pulls + 1
