"""Worker-side sliced job execution for allocator-driven scheduling.

Under ``repro serve --alloc ucb`` the scheduler no longer hands a worker
a whole job; it hands it **one slice** — "advance this job's exploration
by at most N schedule attempts, then checkpoint".  :func:`run_slice` is
the worker-side entry point, the sliced counterpart of
:func:`repro.service.jobs.run_job`:

* like ``run_job`` it is a pure function of picklable primitives (kind
  value, kernel name, options dict), plus the hex-encoded
  :class:`~repro.sim.frontier.ExplorationFrontier` of the previous slice
  (empty string for the first slice) and the slice budget;
* a **provisional** slice returns ``{"frontier": hex, ...}`` progress
  counters and no verdict — the scheduler requeues the job with the new
  frontier;
* the **terminal** slice (stack drained / budget exhausted / first
  finding under ``stop_on_first``) builds the verdict *in the worker*
  with exactly the same :data:`repro.service.jobs.VERDICT_BUILDERS`
  functions the one-shot path uses, over the same cumulative
  :class:`~repro.sim.explorer.ExplorationResult` — so a sliced job's
  verdict and ``engine_runs`` are bit-identical to ``run_job``'s.

Which jobs can slice (:func:`job_sliceable`): the exploration-backed
kinds (check / detect / explore) under no reduction or sleep sets —
exactly the combinations whose explorers accept
``slice_budget``/``frontier`` (see ``docs/allocator.md``).  DPOR,
``static`` and ``source`` jobs run to completion in a single dispatch;
the allocator still schedules them, as one whole-job pull.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Optional

from repro.service.jobs import (
    VERDICT_BUILDERS,
    JobKind,
    JobOptions,
    exploration_setup,
)
from repro.sim.frontier import ExplorationFrontier

__all__ = ["SLICEABLE_KINDS", "job_sliceable", "run_slice"]

#: Kinds whose work is an exploration that can checkpoint mid-search.
SLICEABLE_KINDS = (JobKind.CHECK, JobKind.DETECT, JobKind.EXPLORE)

#: Reductions whose explorers support frontier checkpoints.
_SLICEABLE_REDUCTIONS = (None, "none", "sleepset")


def job_sliceable(kind: JobKind, options: JobOptions) -> bool:
    """Whether this (kind, options) pair can run as frontier slices."""
    return (
        kind in SLICEABLE_KINDS
        and options.reduction in _SLICEABLE_REDUCTIONS
    )


def run_slice(
    kind_value: str,
    kernel_name: str,
    options_dict: Dict[str, Any],
    frontier_hex: str,
    slice_budget: int,
) -> Dict[str, Any]:
    """Advance one sliceable job by one slice; see the module docstring.

    Every payload carries ``attempts`` (cumulative schedule attempts
    including cache hits and sleep-set prunes — the allocator's spend
    unit) and ``distinct_outcomes`` (cumulative — the allocator's payout
    base); the scheduler charges/pays deltas against the previous slice.
    """
    from repro.kernels import get_kernel

    kind = JobKind.parse(kind_value)
    options = JobOptions.from_dict(options_dict)
    if not job_sliceable(kind, options):
        raise ValueError(
            f"job kind {kind.value!r} with options {options_dict!r} "
            "is not sliceable; dispatch it through run_job instead"
        )
    kernel = get_kernel(kernel_name)
    program, explorer, predicate, stop_on_first = exploration_setup(
        kind, kernel, options
    )
    frontier: Optional[ExplorationFrontier] = (
        ExplorationFrontier.from_bytes(bytes.fromhex(frontier_hex))
        if frontier_hex
        else None
    )
    start = perf_counter()
    result = explorer.explore(
        predicate=predicate,
        stop_on_first=stop_on_first,
        slice_budget=slice_budget,
        frontier=frontier,
    )
    attempts = (
        result.schedules_run
        + result.cache_hits
        + getattr(explorer, "pruned_runs", 0)
    )
    payload: Dict[str, Any] = {
        "attempts": attempts,
        "distinct_outcomes": len(result.outcomes),
        "engine_runs": result.schedules_run,
        "worker_wall_seconds": perf_counter() - start,
    }
    if result.frontier is not None:
        payload["frontier"] = result.frontier.to_bytes().hex()
        return payload
    payload["verdict"] = VERDICT_BUILDERS[kind](program, result)
    # Terminal: the cumulative result is the one-shot result, so its
    # wall clock (accumulated across slices by the frontier) replaces
    # this slice's.
    payload["worker_wall_seconds"] = result.wall_seconds
    return payload
