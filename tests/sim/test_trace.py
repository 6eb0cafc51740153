"""Trace query and serialisation tests."""

import pytest

from repro.sim import (
    CooperativeScheduler,
    FixedScheduler,
    RoundRobinScheduler,
    Trace,
    run_program,
)
from repro.sim import events as ev
from tests import helpers


def trace_of(program, scheduler=None):
    return run_program(program, scheduler or RoundRobinScheduler()).trace


class TestQueries:
    def test_memory_accesses_filters_to_reads_writes(self):
        trace = trace_of(helpers.locked_counter())
        accesses = trace.memory_accesses()
        assert all(e.is_memory_access for e in accesses)
        assert len(accesses) == 4  # 2 threads x (read + write)

    def test_memory_accesses_by_variable(self):
        trace = trace_of(helpers.null_deref_race(), CooperativeScheduler())
        # Init runs first under cooperative order? Reader is first declared:
        # it reads ptr then crashes or proceeds; either way ptr accesses exist.
        assert trace.memory_accesses("ptr")
        assert trace.memory_accesses("nonexistent") == []

    def test_variables_touched_in_first_touch_order(self):
        trace = trace_of(helpers.spawn_join_chain(), CooperativeScheduler())
        assert trace.variables_touched() == ["result", "observed"]

    def test_threads_listed(self):
        trace = trace_of(helpers.racy_counter())
        assert set(trace.threads()) >= {"T1", "T2"}

    def test_by_thread_is_ordered_subset(self):
        trace = trace_of(helpers.racy_counter())
        events = trace.by_thread("T1")
        assert all(e.thread == "T1" for e in events)
        assert [e.seq for e in events] == sorted(e.seq for e in events)

    def test_labelled_lookup(self):
        from repro.sim import Program, Read, Write

        def body():
            value = yield Read("x", label="site-A")
            yield Write("x", value + 1, label="site-B")

        prog = Program("labels", threads={"T": body}, initial={"x": 0})
        trace = trace_of(prog, CooperativeScheduler())
        assert len(trace.labelled("site-A")) == 1
        assert len(trace.labelled("site-B")) == 1
        assert trace.labelled("site-C") == []

    def test_crashes_collected(self):
        result = run_program(
            helpers.null_deref_race(), FixedScheduler(["Reader"], strict=False)
        )
        crashes = result.trace.crashes()
        assert len(crashes) == 1
        assert crashes[0].thread == "Reader"

    def test_deadlock_event_found(self):
        result = run_program(
            helpers.abba_deadlock(), FixedScheduler(["T1", "T2"], strict=False)
        )
        deadlock = result.trace.deadlock()
        assert deadlock is not None
        assert len(deadlock.blocked) == 2

    def test_no_deadlock_returns_none(self):
        trace = trace_of(helpers.locked_counter())
        assert trace.deadlock() is None

    def test_lock_events_filter(self):
        trace = trace_of(helpers.locked_counter())
        assert len(trace.lock_events("L")) == 4
        assert trace.lock_events("M") == []


class TestAppendDiscipline:
    def test_appending_wrong_seq_raises(self):
        trace = Trace()
        with pytest.raises(ValueError, match="seq 5"):
            trace.append(ev.YieldEvent(seq=5, thread="T"))

    def test_sequential_appends_accepted(self):
        trace = Trace()
        trace.append(ev.YieldEvent(seq=0, thread="T"))
        trace.append(ev.YieldEvent(seq=1, thread="T"))
        assert len(trace) == 2


class TestSerialisation:
    def test_round_trip_preserves_events(self):
        original = trace_of(helpers.lost_wakeup())
        restored = Trace.from_dicts(original.to_dicts())
        assert len(restored) == len(original)
        for a, b in zip(original, restored):
            assert type(a) is type(b)
            assert vars(a) == vars(b)

    def test_round_trip_through_json(self):
        import json

        original = trace_of(helpers.abba_deadlock(), FixedScheduler(["T1", "T2"], strict=False))
        text = json.dumps(original.to_dicts())
        restored = Trace.from_dicts(json.loads(text))
        deadlock = restored.deadlock()
        assert deadlock is not None
        assert deadlock.blocked == original.deadlock().blocked

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            Trace.from_dicts([{"type": "Bogus", "seq": 0, "thread": "T"}])

    def test_format_is_readable(self):
        trace = trace_of(helpers.racy_counter())
        text = trace.format()
        assert "read" in text and "write" in text

    def test_format_limit_truncates(self):
        trace = trace_of(helpers.racy_counter())
        text = trace.format(limit=2)
        assert "more events" in text


class TestColumnRendering:
    def test_one_column_per_thread(self):
        trace = trace_of(helpers.racy_counter())
        text = trace.format_columns(width=20)
        header = text.splitlines()[0]
        assert "T1" in header and "T2" in header

    def test_events_land_in_their_column(self):
        from repro.sim import FixedScheduler

        result = run_program(
            helpers.racy_counter(), FixedScheduler(["T1", "T1", "T2", "T2"])
        )
        lines = result.trace.format_columns(width=20).splitlines()
        # After header+rule: T1's events are left-aligned, T2's indented.
        body = lines[2:]
        t1_lines = [l for l in body if l.startswith("start") or l.startswith("read") or l.startswith("write") or l.startswith("finish")]
        t2_lines = [l for l in body if l.startswith(" ")]
        assert t1_lines and t2_lines

    def test_empty_trace_handled(self):
        from repro.sim import Trace

        assert Trace().format_columns() == "(empty trace)"
