"""The package declares every third-party module it imports.

``pip install .`` installs exactly ``[project].dependencies``, so a
module imported anywhere under ``src/repro`` that is neither part of the
standard library nor declared there makes a clean install fail at
``import repro``.  The check reads the source with ``ast`` (nothing is
imported) and the metadata with ``tomllib``, so it needs no network and
no installed distribution.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def _imported_top_level_modules():
    """Top-level module name -> files importing it (absolute imports only)."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(
                    str(path.relative_to(ROOT))
                )
    return found


def _declared_dependencies():
    """Distribution names in ``[project].dependencies``, normalised."""
    with (ROOT / "pyproject.toml").open("rb") as handle:
        project = tomllib.load(handle)["project"]
    names = set()
    for requirement in project.get("dependencies", []):
        name = re.match(r"[A-Za-z0-9._-]+", requirement.strip()).group(0)
        names.add(re.sub(r"[-_.]+", "-", name).lower())
    return names


def test_every_third_party_import_is_a_declared_dependency():
    imported = _imported_top_level_modules()
    # networkx is imported by the deadlock detector and the static
    # lock-order pass; a scan that misses it would make this vacuous.
    assert "networkx" in imported
    declared = _declared_dependencies()
    missing = {
        module: sorted(files)
        for module, files in imported.items()
        if module != "repro"
        and module not in sys.stdlib_module_names
        and re.sub(r"[-_.]+", "-", module).lower() not in declared
    }
    assert not missing, (
        f"imported but not in [project].dependencies: {missing}"
    )
