"""Differential guard for the engine's forced-prefix replay.

Every exploration run re-executes a schedule prefix before its first
fresh decision.  The engine replays that prefix in a loop of its own:
no scheduler call, no enabled-set scan, and — when the seed carries the
parent run's trace — no event construction and no hook calls.  Nothing
here needs a switch to reach the slow path: :func:`repro.sim.replay.replay`
drives a :class:`~repro.sim.scheduler.FixedScheduler` through the
per-step decision loop, so it is the reference every kept run is
compared against, event for event.

The counters in ``tests/data/replay_fastpath.json`` (schedules,
expanded states, cache hits, preemptions spent, pipeline counters,
flagging detectors, enabled-filter calls) were captured before the replay loop
existed; they pin that the searches explore the same trees and analyse
the same events.  Re-capture with
``PYTHONPATH=src python -m tests.sim.test_replay_fastpath`` only when a
search legitimately changes, and say why.

The divergence tests use a thread body that branches on a module-level
counter, so its second execution disagrees with the first under the
same schedule: every explorer must report that as one
:class:`~repro.errors.ExplorationError`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict

import pytest

from repro.detectors import DetectorSuite
from repro.errors import ExplorationError
from repro.kernels import all_kernels
from repro.sim import Join, Program, Read, Write, Yield
from repro.sim.dpor import DPORExplorer
from repro.sim.engine import RunStatus
from repro.sim.explorer import Explorer
from repro.sim.generate import generate_program
from repro.sim.reduction import SleepSetExplorer
from repro.sim.replay import replay
from repro.static import analyse

PINNED = Path(__file__).resolve().parent.parent / "data" / "replay_fastpath.json"

MAX_SCHEDULES = 20000
MAX_STEPS = 5000
#: Kept runs per search; every one is re-checked against replay().
KEEP = 48
#: The generated band: the repro.sim.generate seeds below 60 whose
#: complete plain-DFS search takes 20 to 400 schedules.
GENERATED_SEEDS = (
    3, 5, 8, 14, 15, 18, 21, 22, 25, 26, 28, 29, 37, 38, 39, 40, 45, 51, 53,
    55, 56, 59,
)


def _match_all(run) -> bool:
    return True


def _search(explorer) -> Dict[str, Any]:
    result = explorer.explore(predicate=_match_all)
    return {"result": result, "explorer": explorer}


def _every_third_step_first_thread():
    """A path-dependent enabled filter that counts its calls."""
    calls = [0]

    def restrict(engine, enabled):
        calls[0] += 1
        if engine.steps % 3 == 0:
            return sorted(enabled)[:1]
        return enabled

    return restrict, calls


def _online(reduction):
    def run(program):
        suite = DetectorSuite()
        online = suite.analyse_online(
            program, max_schedules=MAX_SCHEDULES, max_steps=MAX_STEPS,
            reduction=reduction,
        )
        return {"result": online.exploration, "reports": online.reports}

    return run


def _filtered(program):
    restrict, calls = _every_third_step_first_thread()
    explorer = Explorer(
        program, max_schedules=MAX_SCHEDULES, max_steps=MAX_STEPS,
        enabled_filter=restrict, keep_matches=KEEP,
    )
    measured = _search(explorer)
    measured["filter_calls"] = calls[0]
    return measured


def _dfs(**options):
    def run(program):
        return _search(Explorer(
            program, max_schedules=MAX_SCHEDULES, max_steps=MAX_STEPS,
            keep_matches=KEEP, **options,
        ))

    return run


def _directed(program):
    return _search(Explorer(
        program, max_schedules=MAX_SCHEDULES, max_steps=MAX_STEPS,
        keep_matches=KEEP, targets=analyse(program).pairs,
    ))


def _sleepset(program):
    return _search(SleepSetExplorer(
        program, max_schedules=MAX_SCHEDULES, max_steps=MAX_STEPS,
        keep_matches=KEEP,
    ))


def _dpor(**options):
    def run(program):
        return _search(DPORExplorer(
            program, max_schedules=MAX_SCHEDULES, max_steps=MAX_STEPS,
            keep_matches=KEEP, **options,
        ))

    return run


CONFIGS: Dict[str, Callable[[Program], Dict[str, Any]]] = {
    "dfs": _dfs(),
    "dfs-memo": _dfs(memoize=True),
    "dfs-bound2": _dfs(preemption_bound=2),
    "dfs-directed": _directed,
    "dfs-filter": _filtered,
    "sleepset": _sleepset,
    "dpor": _dpor(),
    "dpor-memo": _dpor(memoize=True),
    "dpor-bound2": _dpor(preemption_bound=2),
    "online-dfs": _online(None),
    "online-sleepset": _online("sleepset"),
    "online-dpor": _online("dpor"),
}


def programs() -> Dict[str, Program]:
    """Every kernel (buggy and fixed) plus the generated band."""
    out: Dict[str, Program] = {}
    for kernel in all_kernels():
        out[f"{kernel.name}/buggy"] = kernel.buggy
        out[f"{kernel.name}/fixed"] = kernel.fixed
    for seed in GENERATED_SEEDS:
        out[f"generated-{seed}"] = generate_program(seed)
    return out


def counters(measured: Dict[str, Any]) -> Dict[str, Any]:
    """The pinned row of one (program, config) cell."""
    result = measured["result"]
    row: Dict[str, Any] = {
        "schedules_run": result.schedules_run,
        "complete": result.complete,
        "states_expanded": result.states_expanded,
        "cache_hits": result.cache_hits,
        "preemptions_spent": result.preemptions_spent,
    }
    if result.pipeline_stats is not None:
        row["pipeline"] = {
            key: result.pipeline_stats[key]
            for key in (
                "events_dispatched", "events_reused", "snapshots",
                "restores", "passes", "first_finding_step",
            )
        }
        # Which detectors flag, not how often: the deadlock detector's
        # finding count depends on set iteration order (hash seed).
        row["flagged"] = sorted(
            name for name, report in measured["reports"].items() if len(report)
        )
    explorer = measured.get("explorer")
    if isinstance(explorer, DPORExplorer):
        row["dpor"] = [
            explorer.races_detected, explorer.backtrack_points,
            explorer.pruned_runs,
        ]
    if "filter_calls" in measured:
        row["filter_calls"] = measured["filter_calls"]
    return row


PROGRAMS = programs()
CELLS = [(name, config) for name in PROGRAMS for config in CONFIGS]


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Dict[str, Any]]:
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, config", CELLS)
def test_replayed_searches_match_the_per_step_loop(name, config, pinned):
    program = PROGRAMS[name]
    measured = CONFIGS[config](program)
    assert counters(measured) == pinned[name][config]
    for run in measured["result"].matching:
        reference = replay(program, run.schedule, max_steps=MAX_STEPS)
        assert list(run.trace) == list(reference.trace), run.schedule
        assert run.status is reference.status
        assert run.memory == reference.memory


def _spin_program() -> Program:
    """S spins on a flag T sets; short step budgets truncate many runs."""

    def spinner():
        while True:
            flag = yield Read("flag")
            if flag:
                return
            yield Yield()

    def setter():
        yield Write("x", 1)
        yield Write("flag", 1)

    return Program(
        "spin", threads={"S": spinner, "T": setter}, initial={"flag": 0, "x": 0}
    )


#: (schedules, aborted runs, preemptions spent), captured before the
#: replay loop existed, for searches whose prefixes reach the budget.
TRUNCATED = {
    "dfs": (Explorer, 46, 18, 100),
    "sleepset": (SleepSetExplorer, 43, 18, 0),
    "dpor": (DPORExplorer, 43, 18, 91),
}


@pytest.mark.parametrize("config", sorted(TRUNCATED))
def test_budget_truncated_runs_match_the_per_step_loop(config):
    explorer_class, schedules, aborted, preemptions = TRUNCATED[config]
    program = _spin_program()
    result = explorer_class(program, max_steps=9, keep_matches=100).explore(
        predicate=_match_all
    )
    assert result.schedules_run == schedules
    assert result.statuses[RunStatus.ABORTED] == aborted
    assert result.preemptions_spent == preemptions
    for run in result.matching:
        reference = replay(program, run.schedule, max_steps=9)
        assert list(run.trace) == list(reference.trace), run.schedule
        assert run.status is reference.status


def test_pinned_file_covers_every_cell(pinned):
    assert sorted(pinned) == sorted(PROGRAMS)
    for name in PROGRAMS:
        assert sorted(pinned[name]) == sorted(CONFIGS), name


# -- traces stay in the process ----------------------------------------------


@pytest.mark.parametrize("explorer_class", [Explorer, SleepSetExplorer])
def test_checkpoints_carry_no_traces(explorer_class):
    program = PROGRAMS["multivar_torn_invariant/buggy"]
    paused = explorer_class(program, keep_matches=0).explore(slice_budget=20)
    assert paused.frontier is not None
    assert paused.frontier.pending and not paused.frontier.result.matching
    for prefix, mark in paused.frontier.pending:
        # A prefix of thread names and a preemption count or sleep set:
        # no parent run, trace or branch-point snapshot is kept.
        assert all(isinstance(name, str) for name in prefix)
        assert isinstance(mark, int) or all(isinstance(n, str) for n in mark)


# -- divergence ----------------------------------------------------------------

#: Executions of the divergent body so far; reset by every divergence test.
_EXECUTIONS = [0]


def _divergent_program() -> Program:
    """T1 writes twice on its first execution and joins T2 ever after."""

    def flaky():
        _EXECUTIONS[0] += 1
        if _EXECUTIONS[0] == 1:
            yield Write("x", 1)
            yield Write("x", 2)
        else:
            yield Join("T2")

    def steady():
        yield Write("x", 10)
        yield Write("x", 20)

    return Program(
        "divergent", threads={"T1": flaky, "T2": steady}, initial={"x": 0}
    )


DIVERGING = {
    "dfs": lambda p: Explorer(p).explore(),
    "dfs-memo": lambda p: Explorer(p, memoize=True).explore(),
    "dfs-bound2": lambda p: Explorer(p, preemption_bound=2).explore(),
    "sleepset": lambda p: SleepSetExplorer(p).explore(),
    "dpor": lambda p: DPORExplorer(p).explore(),
    "online-dfs": lambda p: DetectorSuite().analyse_online(p),
    "online-dpor": lambda p: DetectorSuite().analyse_online(p, reduction="dpor"),
}


@pytest.mark.parametrize("config", sorted(DIVERGING))
def test_divergent_program_raises_exploration_error(config):
    _EXECUTIONS[0] = 0
    with pytest.raises(
        ExplorationError,
        match=r"diverged at step 0: 'T1' not enabled in \['T2'\]",
    ):
        DIVERGING[config](_divergent_program())


def capture() -> Dict[str, Dict[str, Any]]:
    """Measure every cell (the pinned file's contents)."""
    return {
        name: {config: counters(run(program)) for config, run in CONFIGS.items()}
        for name, program in PROGRAMS.items()
    }


def dump(cells: Dict[str, Dict[str, Any]]) -> str:
    """The pinned file's layout: one line per (program, config) cell."""
    programs_ = []
    for name in sorted(cells):
        rows = ",\n".join(
            f"    {json.dumps(config)}: {json.dumps(row, sort_keys=True)}"
            for config, row in sorted(cells[name].items())
        )
        programs_.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    return "{\n" + ",\n".join(programs_) + "\n}\n"


if __name__ == "__main__":
    sys.stdout.write(dump(capture()))
