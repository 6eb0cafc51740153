"""``analyse_program`` hands back the search its findings came from."""

import pytest

from repro.detectors import DetectorSuite
from repro.detectors.suite import compare_static
from repro.sim import enumerate_outcomes
from repro.static import analyse
from tests import helpers

PROGRAMS = {
    "racy-counter": helpers.racy_counter,
    "abba-deadlock": helpers.abba_deadlock,
    "lost-wakeup": helpers.lost_wakeup,
    "locked-counter": helpers.locked_counter,
}


@pytest.mark.parametrize("reduction", [None, "dpor"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_exploration_statuses_sum_to_its_schedules(name, reduction):
    program = PROGRAMS[name]()
    result = DetectorSuite.for_program(program).analyse_program(
        program, reduction=reduction
    )
    exploration = result.exploration
    assert exploration is not None
    assert exploration.complete
    assert exploration.schedules_run >= 1
    assert sum(exploration.statuses.values()) == exploration.schedules_run
    # The same search an outcome enumeration runs.
    reference = enumerate_outcomes(program, reduction=reduction)
    assert exploration.statuses == reference.statuses
    assert exploration.schedules_run == reference.schedules_run


def test_budget_cut_exploration_is_incomplete():
    program = helpers.racy_counter(threads=3)
    result = DetectorSuite.for_program(program).analyse_program(
        program, max_schedules=3
    )
    assert result.exploration.schedules_run == 3
    assert not result.exploration.complete
    assert sum(result.exploration.statuses.values()) == 3


def test_analyse_static_is_analyse_program_scored():
    program = helpers.racy_counter()
    suite = DetectorSuite.for_program(program)
    comparison = suite.analyse_static(program)
    rescored = compare_static(analyse(program), suite.analyse_program(program))
    assert comparison.dynamic.exploration is not None
    documents = [comparison.to_json(), rescored.to_json()]
    for document in documents:
        del document["static"]["wall_seconds"]
    assert documents[0] == documents[1]
