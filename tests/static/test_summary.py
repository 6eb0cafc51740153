"""Thread-summary extraction: AST path, fallback path, exclusivity."""

import dataclasses
import importlib.util

import pytest

from repro.sim import (
    Acquire,
    Program,
    Read,
    Release,
    Write,
)
from repro.sim.ops import OP_KINDS
from repro.static import exclusive, summarize_program
from repro.static.summary import summarize_thread
from tests.helpers import (
    abba_deadlock,
    corpus_program,
    locked_counter,
    lost_wakeup,
    racy_counter,
    spawn_join_chain,
)


def sites_by_kind(summary, thread, kind):
    return [s for s in summary.threads[thread].sites if s.kind == kind]


class TestAstExtraction:
    def test_locked_counter_sites_in_program_order(self):
        summary = summarize_program(locked_counter())
        assert not summary.approximate
        kinds = [s.kind for s in summary.threads["T1"].sites]
        assert kinds == ["acquire", "read", "write", "release"]

    def test_resource_names_resolved_through_closures(self):
        summary = summarize_program(abba_deadlock())
        assert summary.used_objects("acquire") == {"A", "B"}

    def test_site_indexes_are_preorder_positions(self):
        summary = summarize_program(racy_counter())
        for thread in summary.threads.values():
            assert [s.index for s in thread.sites] == list(range(len(thread.sites)))

    def test_labels_survive_extraction(self):
        def body():
            yield Write("x", 1, label="w.x")

        program = Program("labelled", threads={"T": body}, initial={"x": 0})
        summary = summarize_program(program)
        (site,) = summary.threads["T"].sites
        assert site.label == "w.x"

    def test_branch_sites_are_conditional(self):
        summary = summarize_program(lost_wakeup())
        waits = sites_by_kind(summary, "Waiter", "wait")
        assert waits and all(s.conditional for s in waits)

    def test_spawn_join_sites_extracted(self):
        summary = summarize_program(spawn_join_chain())
        kinds = [s.kind for s in summary.threads["Main"].sites]
        assert kinds[:2] == ["spawn", "join"]


class TestOpVocabulary:
    def test_every_op_kind_summarizes_to_its_kind_and_resource(self, tmp_path):
        """One body per :data:`OP_KINDS` class, its constructor called
        with every field positional: each summarizes to one exact site
        of the class's kind, on its resource (a select's: its channel)."""

        def argument(name, resource):
            if name == resource:
                return '"r"'
            return {"label": '"site"', "chans": '("r",)', "ticks": "1"}.get(
                name, "None"
            )

        source = ["from repro.sim.ops import *", ""]
        for cls, (_kind, resource) in OP_KINDS.items():
            arguments = ", ".join(
                argument(field.name, resource)
                for field in dataclasses.fields(cls)
            )
            source += [
                f"def {cls.__name__}_body():",
                f"    yield {cls.__name__}({arguments})",
                "",
            ]
        path = tmp_path / "op_bodies.py"
        path.write_text("\n".join(source))
        spec = importlib.util.spec_from_file_location("op_bodies", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert len(OP_KINDS) == 24
        for cls, (kind, resource) in OP_KINDS.items():
            summary = summarize_thread(
                "T", getattr(module, f"{cls.__name__}_body")
            )
            assert not summary.approximate, summary.notes
            (site,) = summary.sites
            channel = cls.__name__ == "Select"
            obj = "r" if resource is not None or channel else None
            assert (site.kind, site.obj, site.label) == (kind, obj, "site"), cls


class TestDynamicFallback:
    def test_data_driven_body_is_approximate(self):
        program = corpus_program(
            [(True, (("read", "x"),), False), (False, (("write", "x"),), False)]
        )
        summary = summarize_program(program)
        # The spec-driven bodies read their op list from a closure the
        # extractor cannot evaluate: the summary must say so rather than
        # silently pretend precision.
        assert summary.approximate
        assert any(
            site.obj is None
            for site in summary.all_sites()
            if site.kind in ("read", "write")
        )

    def test_fallback_reports_no_exclusive_pairs(self):
        program = corpus_program(
            [(False, (("read", "x"), ("read", "y")), True)]
        )
        summary = summarize_program(program)
        for thread in summary.threads.values():
            assert thread.exclusive_pairs == frozenset()


class TestExclusivity:
    def make_program(self, body):
        return Program(
            "exclusivity", threads={"T": body},
            initial={"x": 0, "y": 0}, locks=["L"],
        )

    def test_divergent_branch_arms_are_exclusive(self):
        def body():
            flag = yield Read("x")
            if flag:
                yield Write("x", 1)
            else:
                yield Write("y", 1)

        summary = summarize_program(self.make_program(body))
        sites = summary.threads["T"].sites
        write_x = next(s for s in sites if s.kind == "write" and s.obj == "x")
        write_y = next(s for s in sites if s.kind == "write" and s.obj == "y")
        assert exclusive(summary, write_x, write_y)
        assert exclusive(summary, write_y, write_x)

    def test_return_cuts_off_the_rest_of_the_body(self):
        def body():
            flag = yield Read("x")
            if flag:
                yield Write("x", 1)
                return
            yield Write("y", 1)

        summary = summarize_program(self.make_program(body))
        sites = summary.threads["T"].sites
        write_x = next(s for s in sites if s.kind == "write" and s.obj == "x")
        write_y = next(s for s in sites if s.kind == "write" and s.obj == "y")
        assert exclusive(summary, write_x, write_y)

    def test_sequential_sites_are_not_exclusive(self):
        def body():
            yield Write("x", 1)
            yield Write("y", 1)

        summary = summarize_program(self.make_program(body))
        a, b = summary.threads["T"].sites
        assert not exclusive(summary, a, b)

    def test_loop_iterations_allow_cross_arm_co_occurrence(self):
        # Different arms of a branch *inside a loop* can both run — one
        # arm per iteration — so they must not be exclusive.
        def body():
            for _ in range(2):
                flag = yield Read("x")
                if flag:
                    yield Write("x", 1)
                else:
                    yield Write("y", 1)

        summary = summarize_program(self.make_program(body))
        sites = summary.threads["T"].sites
        write_x = next(s for s in sites if s.kind == "write" and s.obj == "x")
        write_y = next(s for s in sites if s.kind == "write" and s.obj == "y")
        assert not exclusive(summary, write_x, write_y)

    def test_cross_thread_sites_never_exclusive(self):
        summary = summarize_program(racy_counter())
        t1 = summary.threads["T1"].sites[0]
        t2 = summary.threads["T2"].sites[0]
        assert not exclusive(summary, t1, t2)


class TestYieldFromInlining:
    def test_factory_built_helper_inlines_one_level_exactly(self):
        # The common DSL refactor: a shared critical-section helper built
        # by a factory (resource names resolved through the closure) and
        # delegated to with ``yield from``.  One level inlines exactly —
        # no fallback, sites in program order at the delegation point.
        def make_section(lock, var):
            def section():
                yield Acquire(lock)
                yield Write(var, 1)
                yield Release(lock)
            return section

        section = make_section("L", "x")

        def body():
            yield Read("x")
            yield from section()
            yield Read("x")

        program = Program(
            "yf", threads={"T": body}, initial={"x": 0}, locks=("L",)
        )
        summary = summarize_program(program)
        assert not summary.approximate
        assert [(s.kind, s.obj) for s in summary.threads["T"].sites] == [
            ("read", "x"),
            ("acquire", "L"),
            ("write", "x"),
            ("release", "L"),
            ("read", "x"),
        ]
        assert [s.index for s in summary.threads["T"].sites] == list(range(5))

    def test_delegation_beyond_one_level_falls_back_conservatively(self):
        def inner():
            yield Write("y", 2)

        def mid():
            yield Read("y")
            yield from inner()

        def body():
            yield from mid()

        program = Program("yf2", threads={"T": body}, initial={"y": 0})
        summary = summarize_program(program)
        # mid()'s own sites survive; inner()'s are dropped and the
        # summary says so instead of silently under-reporting.
        assert summary.approximate
        assert [(s.kind, s.obj) for s in summary.threads["T"].sites] == [
            ("read", "y"),
        ]
        assert any("nested beyond one level" in n
                   for n in summary.threads["T"].notes)


class TestDeclarations:
    def test_program_declarations_carried_over(self):
        summary = summarize_program(lost_wakeup())
        assert summary.locks == ("L",)
        assert summary.conditions == {"cv": "L"}
        assert set(summary.initial) == {"done"}

    @pytest.mark.parametrize("builder", [racy_counter, locked_counter, abba_deadlock])
    def test_helper_programs_extract_exactly(self, builder):
        assert not summarize_program(builder()).approximate
