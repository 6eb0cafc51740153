"""Differential harness: memoized exploration vs plain DFS.

The plain :class:`Explorer` is the trusted baseline.  Memoized search
must preserve the terminal outcome *set* and every verdict derived from
terminal states (found / deadlocked / crashed), though not schedule
counts — alone, under a preemption bound, and composed with sleep sets —
and a fixed program must memoize byte-for-byte deterministically.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim import Explorer, SleepSetExplorer, find_schedule
from repro.sim.generate import GeneratorConfig, generate_program
from tests.helpers import corpus_programs

#: Small enough that most generated programs explore completely within
#: the budget; incomplete ones are skipped via assume() — a truncated
#: search carries no equivalence obligation.
CONFIG = GeneratorConfig(ops_per_thread=(1, 3))
BUDGET = 4000


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=63))
def test_memoized_generated_outcome_sets_match(seed):
    program = generate_program(seed, CONFIG)
    plain = Explorer(program, max_schedules=BUDGET).explore()
    assume(plain.complete)
    memoized = Explorer(program, max_schedules=BUDGET, memoize=True).explore()
    assert memoized.complete
    assert set(memoized.outcomes) == set(plain.outcomes)
    assert set(memoized.statuses) == set(plain.statuses)
    assert memoized.found == plain.found


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=1, max_value=2),
)
def test_memoized_bounded_outcome_sets_match(seed, bound):
    # Memoization x preemption_bound: the bounded fingerprint must key on
    # (state, preemptions spent, last-run thread) — spend alone merges
    # nodes whose budget-feasible subtrees differ and loses outcomes.
    program = generate_program(seed, CONFIG)
    plain = Explorer(
        program, max_schedules=BUDGET, preemption_bound=bound
    ).explore()
    assume(plain.complete)
    memoized = Explorer(
        program, max_schedules=BUDGET, preemption_bound=bound, memoize=True
    ).explore()
    assert memoized.complete
    assert set(memoized.outcomes) == set(plain.outcomes)
    assert set(memoized.statuses) == set(plain.statuses)
    assert memoized.found == plain.found


def test_memoized_bounded_regression_seeds():
    # Seeds where fingerprinting only (state, preemptions spent) merged
    # nodes reached via commuting ops with different last threads and
    # dropped reachable outcomes from the bounded search.
    for seed in (2, 16, 17, 33, 41):
        program = generate_program(seed, CONFIG)
        for bound in (1, 2):
            plain = Explorer(
                program, max_schedules=BUDGET, preemption_bound=bound
            ).explore()
            assert plain.complete
            memoized = Explorer(
                program,
                max_schedules=BUDGET,
                preemption_bound=bound,
                memoize=True,
            ).explore()
            assert set(memoized.outcomes) == set(plain.outcomes), (seed, bound)
            serial_first = find_schedule(program, preemption_bound=bound)
            memo_first = find_schedule(
                program, preemption_bound=bound, memoize=True
            )
            assert (serial_first is None) == (memo_first is None), (seed, bound)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(corpus_programs())
def test_memoized_corpus_outcome_sets_match(program):
    plain = Explorer(program, max_schedules=BUDGET).explore()
    assume(plain.complete)
    memoized = Explorer(program, max_schedules=BUDGET, memoize=True).explore()
    assert set(memoized.outcomes) == set(plain.outcomes)
    assert memoized.found == plain.found
    # Sleep sets + memoization compose; the outcome set still survives.
    reduced = SleepSetExplorer(
        program, max_schedules=BUDGET, memoize=True
    ).explore()
    assert set(reduced.outcomes) == set(plain.outcomes)
    assert reduced.found == plain.found


def test_memoized_runs_are_reproducible():
    program = generate_program(7, CONFIG)
    first = Explorer(program, max_schedules=BUDGET, memoize=True).explore()
    second = Explorer(program, max_schedules=BUDGET, memoize=True).explore()
    assert first.summary() == second.summary()
    assert first.outcomes == second.outcomes
    assert first.cache_hits == second.cache_hits
