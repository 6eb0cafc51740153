"""Property tests for the pluggable memory models.

Three contracts from the ISSUE:

* **TSO semantics** — store buffers forward to their own thread, keep
  other threads on the stale global value, and flush FIFO.
* **Fenced TSO ≡ SC** — a program that fences after *every* store has
  no observable store-buffer reorderings: its terminal outcome set under
  TSO equals the same program's outcome set under SC.
* **Weak-memory bugs are model-gated** — the store-buffering litmus
  outcome (and the weakmem kernel's failure) is unreachable under SC and
  found under TSO; and DPOR stays sound on the extended vocabulary
  (flush steps, channels): its outcome set matches plain DFS exactly.
"""

from __future__ import annotations

import pytest

from repro.errors import ProgramError
from repro.kernels import get_kernel
from repro.sim import Fence, Program, Read, Write
from repro.sim.explorer import make_explorer
from repro.sim.memory import (
    FLUSH_PREFIX,
    SCMemory,
    TSOMemory,
    flush_label,
    make_memory_model,
)

# ---------------------------------------------------------------------------
# TSOMemory unit semantics
# ---------------------------------------------------------------------------


class TestTSOMemoryUnit:
    def test_store_to_load_forwarding_newest_wins(self):
        mem = TSOMemory({"x": 0})
        mem.write("x", 1, thread="T0", label="a")
        mem.write("x", 2, thread="T0", label="b")
        assert mem.read("x", thread="T0") == 2  # own newest buffered value
        assert mem.read("x", thread="T1") == 0  # stale global for others
        assert mem.read("x") == 0  # thread=None is the global view

    def test_flush_is_fifo_and_returns_entry(self):
        mem = TSOMemory({"x": 0, "y": 0})
        mem.write("x", 1, thread="T0", label="wx")
        mem.write("y", 2, thread="T0", label="wy")
        assert mem.peek("T0") == ("x", 1, "wx")
        assert mem.flush_one("T0") == ("x", 1, 0, "wx")
        assert mem.read("x") == 1 and mem.read("y") == 0
        assert mem.flush_one("T0") == ("y", 2, 0, "wy")
        assert not mem.has_buffered()

    def test_buffers_protocol_tracks_owners(self):
        mem = TSOMemory({"x": 0})
        assert mem.flushable() == () and not mem.has_buffered("T0")
        mem.write("x", 1, thread="T1")
        mem.write("x", 2, thread="T0")
        assert mem.flushable() == ("T0", "T1")  # sorted owners
        assert mem.buffers() == {
            "T0": (("x", 2, None),),
            "T1": (("x", 1, None),),
        }
        assert mem.has_buffered("T0") and mem.has_buffered()

    def test_snapshot_merges_buffered_stores(self):
        mem = TSOMemory({"x": 0, "y": 0})
        mem.write("x", 1, thread="T0")
        snap = mem.snapshot()
        assert snap == {"x": 1, "y": 0}  # buffered store applied
        assert mem.read("x") == 0  # ... without mutating the global state

    def test_flush_without_buffered_store_raises(self):
        mem = TSOMemory({"x": 0})
        with pytest.raises(ProgramError):
            mem.flush_one("T0")
        with pytest.raises(ProgramError):
            mem.peek("T0")

    def test_sc_has_no_buffers(self):
        mem = SCMemory({"x": 0})
        mem.write("x", 1, thread="T0")
        assert mem.read("x", thread="T1") == 1  # immediately visible
        assert mem.buffers() == {} and mem.flushable() == ()

    def test_registry_dispatch_and_unknown_model(self):
        assert isinstance(make_memory_model("sc", {}), SCMemory)
        assert isinstance(make_memory_model("tso", {}), TSOMemory)
        with pytest.raises(ProgramError, match="unknown memory model"):
            make_memory_model("arm", {})

    def test_flush_label_derivation(self):
        assert flush_label("t0.announce") == FLUSH_PREFIX + "t0.announce"
        assert flush_label(None) is None


# ---------------------------------------------------------------------------
# Litmus programs and the fencing transform
# ---------------------------------------------------------------------------


def _sb_litmus(memory):
    """Store buffering: r0=0 ∧ r1=0 is the TSO-only outcome."""

    def t0():
        yield Write("x", 1)
        r0 = yield Read("y")
        yield Write("r0", r0)

    def t1():
        yield Write("y", 1)
        r1 = yield Read("x")
        yield Write("r1", r1)

    return Program(
        f"sb-litmus({memory})",
        threads={"T0": t0, "T1": t1},
        initial={"x": 0, "y": 0, "r0": None, "r1": None},
        memory=memory,
    )


def _mp_litmus(memory):
    """Message passing: TSO's FIFO buffers preserve store order, so the
    r1=1 ∧ r2=0 outcome is unreachable under *both* models."""

    def writer():
        yield Write("data", 1)
        yield Write("flag", 1)

    def reader():
        r1 = yield Read("flag")
        r2 = yield Read("data")
        yield Write("r1", r1)
        yield Write("r2", r2)

    return Program(
        f"mp-litmus({memory})",
        threads={"W": writer, "R": reader},
        initial={"data": 0, "flag": 0, "r1": None, "r2": None},
        memory=memory,
    )


def _fence_after_every_store(program):
    """The program with a ``Fence`` appended after every ``Write``."""

    def fenced(body):
        def wrapper():
            gen = body()
            sent = None
            while True:
                try:
                    op = gen.send(sent)
                except StopIteration:
                    return
                sent = yield op
                if isinstance(op, Write):
                    yield Fence()

        return wrapper

    threads = {name: fenced(body) for name, body in program.threads.items()}
    return program.with_threads(threads, name=f"{program.name}+fences")


def _outcomes(program, reduction="dpor"):
    explorer = make_explorer(program, max_schedules=50000, reduction=reduction)
    result = explorer.explore(predicate=lambda run: False)
    assert result.complete, program.name
    return set(result.outcomes)


# ---------------------------------------------------------------------------
# Fenced TSO ≡ SC
# ---------------------------------------------------------------------------


class TestFencedTSOEqualsSC:
    @pytest.mark.parametrize("litmus", [_sb_litmus, _mp_litmus], ids=["sb", "mp"])
    def test_litmus_fenced_tso_matches_sc(self, litmus):
        sc = _outcomes(litmus("sc"))
        fenced_tso = _outcomes(_fence_after_every_store(litmus("tso")))
        assert fenced_tso == sc

    def test_weakmem_kernel_fenced_tso_matches_sc(self):
        kernel = get_kernel("weakmem_store_buffer")
        sc = _outcomes(kernel.buggy.with_memory("sc"))
        fenced_tso = _outcomes(_fence_after_every_store(kernel.buggy))
        assert fenced_tso == sc

    def test_sb_relaxed_outcome_is_tso_only(self):
        sc = _outcomes(_sb_litmus("sc"))
        tso = _outcomes(_sb_litmus("tso"))
        relaxed = tso - sc

        def both_zero(outcome):
            memory = dict(outcome[1])
            return memory["r0"] == 0 and memory["r1"] == 0

        assert sc < tso  # TSO only *adds* behaviours
        assert any(both_zero(o) for o in relaxed)
        assert not any(both_zero(o) for o in sc)

    def test_mp_litmus_needs_no_fence_under_tso(self):
        # FIFO buffers keep the data→flag store order: the reader can
        # never see the flag without the data under either model.
        assert _outcomes(_mp_litmus("tso")) == _outcomes(_mp_litmus("sc"))


# ---------------------------------------------------------------------------
# Model-gated manifestation + DPOR soundness on the extended vocabulary
# ---------------------------------------------------------------------------


class TestModelGatedManifestation:
    def test_weakmem_kernel_manifests_under_tso_only(self):
        kernel = get_kernel("weakmem_store_buffer")
        assert kernel.buggy.memory == "tso"
        found = kernel.find_manifestation()
        assert found is not None

        sc = make_explorer(
            kernel.buggy.with_memory("sc"), max_schedules=50000,
            reduction="dpor",
        ).explore(predicate=kernel.failure)
        assert sc.complete  # the whole SC space was searched ...
        assert not sc.found  # ... and the bug is unreachable in it

    @pytest.mark.parametrize(
        "program_name",
        ["weakmem_store_buffer", "actor_mailbox_order", "actor_lost_message"],
    )
    def test_dpor_matches_dfs_on_extended_vocabulary(self, program_name):
        # Soundness of the dependence relation over flush steps and
        # channel ops: the reduced search must reach the exact same
        # terminal outcome set as the exhaustive one.
        program = get_kernel(program_name).buggy
        assert _outcomes(program, reduction="dpor") == _outcomes(
            program, reduction=None
        )
