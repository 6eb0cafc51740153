"""Unit tests for repro.sim.memory."""

import pytest

from repro.errors import ProgramError
from repro.sim.memory import SCMemory


def test_read_returns_initial_value():
    mem = SCMemory({"x": 7})
    assert mem.read("x") == 7


def test_write_returns_old_value():
    mem = SCMemory({"x": 1})
    assert mem.write("x", 2) == 1
    assert mem.read("x") == 2


def test_update_returns_old_and_new():
    mem = SCMemory({"x": 10})
    old, new = mem.update("x", lambda v: v * 2)
    assert (old, new) == (10, 20)
    assert mem.read("x") == 20


def test_undeclared_read_raises():
    mem = SCMemory({"x": 0})
    with pytest.raises(ProgramError, match="undeclared shared variable 'y'"):
        mem.read("y")


def test_undeclared_write_raises():
    mem = SCMemory({})
    with pytest.raises(ProgramError):
        mem.write("ghost", 1)


def test_undeclared_update_raises():
    mem = SCMemory({})
    with pytest.raises(ProgramError):
        mem.update("ghost", lambda v: v)


def test_initial_values_are_deep_copied():
    initial = {"lst": [1, 2]}
    mem = SCMemory(initial)
    initial["lst"].append(3)
    assert mem.read("lst") == [1, 2]


def test_snapshot_is_independent_copy():
    mem = SCMemory({"lst": [1]})
    snap = mem.snapshot()
    snap["lst"].append(2)
    assert mem.read("lst") == [1]


def test_contains_and_variables():
    mem = SCMemory({"a": 0, "b": 1})
    assert "a" in mem
    assert "c" not in mem
    assert sorted(mem.variables()) == ["a", "b"]


def test_values_can_be_arbitrary_objects():
    sentinel = object()
    mem = SCMemory({"obj": sentinel})
    # deepcopy of a plain object() produces a distinct instance
    assert isinstance(mem.read("obj"), object)
    mem.write("obj", None)
    assert mem.read("obj") is None
