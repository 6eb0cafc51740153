"""``confirm`` is one static pass and one search per module.

``tests/data/lift_confirm_outcomes.json`` pins
``confirm(summary, max_schedules=800).to_json()`` (minus
``wall_seconds``) for every ``examples/realworld`` module.  It was
captured while ``confirm`` still searched the lifted program twice and
ran the static battery on both the frontend summary and the lifted
program, so it pins that the single pass and single search give the same
verdicts.  Re-capture with ``PYTHONPATH=src python -m
tests.static.test_confirm > tests/data/lift_confirm_outcomes.json`` only
when a verdict legitimately changes, and say why.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import runlog as obs_runlog
from repro.static import lift as lift_module
from repro.static.lift import confirm
from repro.static.pysource import load_corpus

ROOT = Path(__file__).resolve().parents[2]
PINNED = ROOT / "tests" / "data" / "lift_confirm_outcomes.json"
MODULES = load_corpus(ROOT / "examples" / "realworld")


def outcome_document(module) -> Dict[str, Any]:
    """One module's pinned document: the verdict minus its wall time."""
    document = confirm(module.summary, max_schedules=800).to_json()
    del document["wall_seconds"]
    return document


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Dict[str, Any]]:
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_pinned_file_covers_the_corpus(pinned):
    assert sorted(pinned) == sorted(m.name for m in MODULES)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_outcome_matches_the_pinned_verdict(module, pinned):
    assert outcome_document(module) == pinned[module.name]


def test_signature_has_no_search_knobs():
    params = inspect.signature(confirm).parameters
    assert list(params) == ["summary", "max_schedules"]
    assert params["max_schedules"].default == 2000
    assert "enumerate_outcomes" not in inspect.getsource(lift_module)


def test_one_confirm_is_one_static_pass_and_one_search():
    module = next(m for m in MODULES if m.name == "use_before_init_buggy")
    records = []
    registry = obs_metrics.enable()
    obs_runlog.set_runlog(records.append)
    try:
        outcome = confirm(module.summary, max_schedules=800)
    finally:
        obs_runlog.clear_runlog()
        obs_metrics.disable()
    assert outcome.confirmed
    assert registry.counter_total("static.analyses") == 1
    assert registry.counter_total("explorer.explorations") == 1
    assert registry.counter_total("static.compare.runs") == 1
    compared = [r for r in records if r["event"] == "suite.analyse_static"]
    assert len(compared) == 1
    assert compared[0]["program"] == module.name
    searches = [r for r in records if r["event"] == "explorer.search"]
    assert len(searches) == 1
    assert searches[0]["program"] == f"lifted:{module.name}"
    assert searches[0]["explorer"] == "dpor"


if __name__ == "__main__":
    documents = {module.name: outcome_document(module) for module in MODULES}
    sys.stdout.write(json.dumps(documents, indent=2, sort_keys=True) + "\n")
