"""Status dashboard: one service snapshot, rendered as JSON or text.

The dashboard is a *pure function* of the service state — it owns no
counters of its own, so ``repro status`` (and the tests, and the CI
smoke job) see exactly the numbers the scheduler maintains: submissions,
completions, cache hits, coalesced submissions, the dedup ratio, total
engine runs paid, queue depth, and the newest jobs with per-job
submit-to-verdict latency.  ``as_dict`` is the machine surface (the
``status`` op, ``repro status --json``); :func:`render_status` turns
that document into the human one, on either side of the socket.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.service.queue import ReproService

__all__ = ["Dashboard", "render_status"]

SCHEMA = "repro.service.status/v2"


class Dashboard:
    """Snapshot view over one :class:`~repro.service.queue.ReproService`."""

    def __init__(self, service: ReproService, job_limit: int = 50):
        self.service = service
        self.job_limit = job_limit

    def as_dict(self) -> Dict[str, Any]:
        """The ``repro status --json`` payload."""
        service = self.service
        return {
            "schema": SCHEMA,
            "uptime_seconds": service.uptime_seconds(),
            "fleet": service.fleet.describe(),
            "queue": {
                "depth": len(service.queue),
                "running": service.queue.running,
                "max_pending": service.queue.max_pending,
            },
            "queue_wait": service.queue_wait.as_dict(),
            "totals": {
                "submissions": service.submissions,
                "completed": service.jobs_completed,
                "failed": service.jobs_failed,
                "cache_hits": service.cache_hits,
                "coalesced": service.coalesced,
                "dedup_ratio": service.dedup_ratio(),
                "engine_runs": service.engine_runs,
            },
            "cache": service.cache.stats(),
            "jobs": [job.to_dict() for job in service.recent_jobs(self.job_limit)],
        }

    def format(self) -> str:
        """The ``repro status`` text rendering."""
        return render_status(self.as_dict())


def render_status(status: Dict[str, Any]) -> str:
    """The ``repro status`` text for one :meth:`Dashboard.as_dict` document."""
    fleet, queue = status["fleet"], status["queue"]
    totals, wait = status["totals"], status["queue_wait"]
    lines = [
        f"repro service — up {status['uptime_seconds']:.0f}s, "
        f"fleet {fleet['size']} ({fleet['mode']}), "
        f"queue {queue['depth']} pending / {queue['running']} running",
        f"  submissions {totals['submissions']}  "
        f"completed {totals['completed']}  "
        f"failed {totals['failed']}  "
        f"cache hits {totals['cache_hits']}  "
        f"coalesced {totals['coalesced']}  "
        f"dedup {totals['dedup_ratio']:.0%}  "
        f"engine runs {totals['engine_runs']}",
        f"  queue wait: mean {wait['mean']:.3f}s  max {wait['max']:.3f}s  "
        f"over {wait['count']} dispatched job(s)",
        f"  cache: {status['cache']['entries']} entries at "
        f"{status['cache']['path']}",
    ]
    if status["jobs"]:
        header = (
            f"  {'id':6s} {'kind':8s} {'kernel':26s} {'state':8s} "
            f"{'src':7s} {'subs':>4s} {'runs':>6s} {'wall':>8s}  verdict"
        )
        lines += ["", header, "  " + "-" * (len(header) - 2)]
        for job in status["jobs"]:
            wall = job["wall_seconds"]
            lines.append(
                f"  {job['id']:6s} {job['kind']:8s} {job['kernel']:26s} "
                f"{job['state']:8s} {'cache' if job['cached'] else 'fleet':7s} "
                f"{job['submissions']:>4d} {job['engine_runs']:>6d} "
                f"{(f'{wall:.3f}s' if wall is not None else '-'):>8s}  "
                f"{_verdict_cell(job)}"
            )
    return "\n".join(lines)


def _verdict_cell(job: Dict[str, Any]) -> str:
    """One-word verdict summary for the text table."""
    if job["error"] is not None:
        return job["error"].split(":", 1)[0]
    verdict = job["verdict"]
    if verdict is None:
        return "-"
    kind = verdict.get("kind")
    if kind == "check":
        return "clean" if verdict.get("clean") else "STILL-BUGGY"
    if kind == "detect":
        if not verdict.get("manifested"):
            return "no-manifest"
        return ",".join(verdict.get("flagged_by", [])) or "manifested"
    if kind == "explore":
        return f"{verdict.get('distinct_outcomes', 0)} outcomes"
    if kind == "static":
        return f"{verdict.get('candidates', 0)} candidates"
    if kind == "source":
        confirmed = f"{verdict.get('confirmed', 0)} confirmed"
        return confirmed if verdict.get("clean") else confirmed + ", NOT-CLEAN"
    return "?"
