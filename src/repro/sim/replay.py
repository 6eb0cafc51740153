"""Record/replay: re-execute a previously observed interleaving.

Because every scheduler decision corresponds to exactly one trace event,
the thread-name sequence of a run (``RunResult.schedule``) is a complete
recipe for reproducing it.  Replay underpins two things users of a bug
study need constantly:

* *deterministic reproduction* — once exploration finds a manifesting
  schedule, replay turns it into a regression test;
* *fix verification* — replaying the buggy schedule against the patched
  program shows the same interleaving no longer fails (and exhaustive
  exploration then shows no other one does either).
"""

from __future__ import annotations

import json
from typing import List

from repro.sim.engine import RunResult, run_program
from repro.sim.program import Program
from repro.sim.scheduler import FixedScheduler

__all__ = ["replay", "replay_prefix", "schedule_to_json", "schedule_from_json"]


def replay(program: Program, schedule: List[str], max_steps: int = 20000) -> RunResult:
    """Re-execute ``program`` under an exact recorded ``schedule``.

    Raises :class:`~repro.errors.ReplayError` if the schedule does not fit
    the program (wrong program, or truncated schedule).
    """
    return run_program(program, FixedScheduler(schedule, strict=True), max_steps=max_steps)


def replay_prefix(
    program: Program, schedule: List[str], max_steps: int = 20000
) -> RunResult:
    """Replay ``schedule`` as a prefix, then fill in the tail.

    Useful when the recorded schedule comes from a *different but related*
    program (e.g. the patched version of a kernel): the prefix steers
    execution toward the interesting region.  Every step past the prefix,
    and every prefix choice that is not enabled, goes to the enabled
    thread whose name sorts first (``FixedScheduler(strict=False)``).
    That tail is not cooperative: it switches to a lower-named thread as
    soon as one is enabled.  On ``racy_counter`` the prefix ``["T2"]``
    runs ``T2, T1, T1, T2``, preempting T2 between its read and its
    write, and loses an update.
    """
    return run_program(program, FixedScheduler(schedule, strict=False), max_steps=max_steps)


def schedule_to_json(schedule: List[str]) -> str:
    """Serialise a schedule for storage alongside a bug report."""
    return json.dumps({"version": 1, "schedule": schedule})


def schedule_from_json(text: str) -> List[str]:
    """Inverse of :func:`schedule_to_json`."""
    payload = json.loads(text)
    if payload.get("version") != 1 or "schedule" not in payload:
        raise ValueError("not a serialised schedule")
    return list(payload["schedule"])
