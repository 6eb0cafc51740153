"""The docs/code gate: the command table must not list stale flags."""

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
