"""The docs/code gate: no stale flags in the command table, and every
emitted metric and run-log event in the catalogue."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"

TABLE = """\
## CLI

| command | flags | does |
|---|---|---|
| `kernels` | `--family F` | list executable kernels |
| `serve` | `--fleet N`, `--alloc fifo/ucb`, `--slice-budget N` | run the service |

The prose after the table may mention `--anything`.
"""


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", TOOLS / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_flags_cli_no_longer_defines_are_stale(check_docs):
    defined = {"--family", "--fleet"}
    assert check_docs.stale_table_flags(TABLE, defined) == [
        ("`serve`", "--alloc"),
        ("`serve`", "--slice-budget"),
    ]


def test_table_of_defined_flags_is_clean(check_docs):
    defined = {"--family", "--fleet", "--alloc", "--slice-budget"}
    assert check_docs.stale_table_flags(TABLE, defined) == []


def test_repo_docs_pass(check_docs, capsys):
    assert check_docs.main() == 0, capsys.readouterr().err


SOURCE = '''\
obs_metrics.inc("service.submissions", kind=kind.value)
registry.inc(
    "engine.runs", 1, program=name,
)
registry.observe("static.wall_seconds", seconds)
registry.set_gauge("statecache.size", len(seen))
registry.inc(f"pipeline.{key}", value)
tracker.observe(access)
'''


def test_literal_metric_names_are_collected(check_docs):
    assert check_docs.emitted_metrics(SOURCE) == [
        "service.submissions",
        "engine.runs",
        "static.wall_seconds",
        "statecache.size",
    ]


def test_uncatalogued_metric_is_a_problem(check_docs, tmp_path, monkeypatch):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "emitter.py").write_text(SOURCE)
    catalogue = tmp_path / "observability.md"
    catalogue.write_text(
        "| `service.submissions` | `engine.runs` | `statecache.size` |\n"
        "static.wall_seconds is named here, but not as a catalogue entry\n"
    )
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "SRC", src)
    monkeypatch.setattr(check_docs, "OBSERVABILITY_DOC", catalogue)
    problems = []
    check_docs.check_metrics(problems)
    assert problems == [
        "observability.md: metric static.wall_seconds "
        "(src/repro/emitter.py) is not catalogued"
    ]


EMITTER = '''\
obs_runlog.emit(
    "explorer.search", explorer=self.kind, **fields,
)
runlog.emit("cli", command=args.command)
emit("bench_session", metrics=snapshot)
log.emit(event, **fields)
nodes.append(self.emit("read", var, conditional, lineno))
self._emit(ev.ReadEvent, thread=name)
'''


def test_literal_event_names_are_collected(check_docs):
    assert check_docs.emitted_events(EMITTER) == [
        "explorer.search", "cli", "bench_session",
    ]


def test_uncatalogued_event_is_a_problem(check_docs, tmp_path, monkeypatch):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "emitter.py").write_text(EMITTER)
    catalogue = tmp_path / "observability.md"
    catalogue.write_text(
        "| `explorer.search` | `cli` |\n"
        "a bench_session record is named here, but not as a catalogue entry\n"
    )
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "SRC", src)
    monkeypatch.setattr(check_docs, "OBSERVABILITY_DOC", catalogue)
    problems = []
    check_docs.check_events(problems)
    assert problems == [
        "observability.md: run-log event bench_session "
        "(src/repro/emitter.py) is not catalogued"
    ]
