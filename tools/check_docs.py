#!/usr/bin/env python
"""Docs/code consistency gate (run in CI).

Four checks, all against the working tree:

1. **Module coverage** — every ``.py`` module under ``src/repro/`` must
   be mentioned by filename in ``docs/architecture.md`` (the one-page
   tour promises completeness).  Generated record modules under
   ``bugdb/records/`` are covered by mentioning the ``records/``
   directory itself.  Modules of the static-analysis subsystem
   (``src/repro/static/``) must additionally be mentioned in
   ``docs/static.md``, the subsystem's own page, and the search-layer
   modules of the simulator (``explorer`` / ``reduction`` / ``dpor`` /
   ``statecache`` / ``memory`` / ``frontier``) in ``docs/simulator.md`` — by
   filename or dotted ``sim.<module>`` path — and the service modules
   (``src/repro/service/``) in ``docs/service.md``, the service
   handbook.
2. **CLI flag coverage** — every ``--flag`` defined in
   ``src/repro/cli.py`` must appear in at least one docs page
   (``docs/*.md`` or ``README.md``).
3. **No stale flags** — every ``--flag`` in the flags column of the
   ``docs/architecture.md`` command table must be defined in
   ``src/repro/cli.py``, so a deleted flag cannot linger there.
4. **Link integrity** — every relative markdown link in ``docs/*.md``
   and ``README.md`` must resolve to an existing file.

Exit status 0 when clean; 1 with one line per problem otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DOCS = REPO / "docs"
ARCHITECTURE = DOCS / "architecture.md"
STATIC_DOC = DOCS / "static.md"
SIMULATOR_DOC = DOCS / "simulator.md"
SERVICE_DOC = DOCS / "service.md"
ALLOC_DOC = DOCS / "allocator.md"

#: The simulator's search layer plus the pluggable memory models:
#: docs/simulator.md is the subsystem page and must discuss each of these
#: modules (the remaining substrate modules — engine, sync, ops, ... —
#: are covered by the architecture tour).
SIM_SEARCH_MODULES = (
    "explorer", "reduction", "dpor", "statecache", "memory", "frontier",
)

#: The real-code pipeline is the static subsystem's outward-facing
#: surface: docs/static.md must name both dotted modules explicitly
#: (a filename mention alone could be a stale cross-reference).
STATIC_PIPELINE_MODULES = ("static.pysource", "static.lift")

#: Markdown inline links: [text](target), ignoring images and code spans.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"\"(--[a-z][a-z0-9-]*)\"")
DOC_FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
#: The header row of the command table in docs/architecture.md.
COMMAND_TABLE_HEADER = "| command | flags | does |"


def check_modules(problems: list) -> None:
    tour = ARCHITECTURE.read_text(encoding="utf-8")
    if "records/" not in tour:
        problems.append(f"{ARCHITECTURE.relative_to(REPO)}: missing mention of records/")
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "bugdb" and "records" in relative.parts[:-1]:
            continue  # generated data modules, covered by the records/ mention
        if path.name not in tour:
            problems.append(
                f"{ARCHITECTURE.relative_to(REPO)}: module "
                f"src/repro/{relative} is not mentioned"
            )
    # The simulator's subsystem page must cover the search machinery
    # (a new explorer under src/repro/sim/ without a docs/simulator.md
    # section should fail here, not ship undocumented).
    if SIMULATOR_DOC.exists():
        sim_tour = SIMULATOR_DOC.read_text(encoding="utf-8")
        for stem in SIM_SEARCH_MODULES:
            if f"{stem}.py" not in sim_tour and f"sim.{stem}" not in sim_tour:
                problems.append(
                    f"{SIMULATOR_DOC.relative_to(REPO)}: search module "
                    f"src/repro/sim/{stem}.py is not mentioned"
                )
    else:
        problems.append("docs/simulator.md: missing (simulator subsystem page)")
    # Subsystems promising a per-module tour of their own: the static
    # analyzer page and the service handbook.
    for doc, package, label in (
        (STATIC_DOC, "static", "static subsystem page"),
        (SERVICE_DOC, "service", "service handbook"),
        (ALLOC_DOC, "alloc", "allocator handbook"),
    ):
        if not doc.exists():
            problems.append(f"docs/{doc.name}: missing ({label})")
            continue
        tour_text = doc.read_text(encoding="utf-8")
        for path in sorted((SRC / package).rglob("*.py")):
            if path.name == "__init__.py":
                continue  # the pages document the functional modules
            if path.name not in tour_text:
                problems.append(
                    f"{doc.relative_to(REPO)}: {package} module "
                    f"src/repro/{path.relative_to(SRC)} is not mentioned"
                )
    if STATIC_DOC.exists():
        static_text = STATIC_DOC.read_text(encoding="utf-8")
        for dotted in STATIC_PIPELINE_MODULES:
            if dotted not in static_text:
                problems.append(
                    f"{STATIC_DOC.relative_to(REPO)}: real-code pipeline "
                    f"module repro.{dotted} is not named"
                )


def check_cli_flags(problems: list) -> None:
    flags = sorted(cli_flags())
    if not flags:
        problems.append("tools/check_docs.py: found no --flags in cli.py (regex broken?)")
    pages = sorted(DOCS.glob("*.md")) + [REPO / "README.md"]
    corpus = "\n".join(page.read_text(encoding="utf-8") for page in pages)
    for flag in flags:
        if flag not in corpus:
            problems.append(
                f"cli.py flag {flag} is documented in no docs page "
                f"(docs/*.md, README.md)"
            )


def cli_flags() -> set:
    """Every ``--flag`` that ``src/repro/cli.py`` defines."""
    return set(FLAG_RE.findall((SRC / "cli.py").read_text(encoding="utf-8")))


def stale_table_flags(tour: str, defined: set) -> list:
    """``(command, flag)`` for each flag in the command table's flags
    column of ``tour`` that is not in ``defined``."""
    stale = []
    rows = tour.split(COMMAND_TABLE_HEADER, 1)[1].splitlines()[2:]
    for row in rows:
        if not row.startswith("|"):
            break  # the table ends at its first non-row line
        command, flags = row.split("|")[1:3]
        stale += [
            (command.strip(), flag)
            for flag in DOC_FLAG_RE.findall(flags) if flag not in defined
        ]
    return stale


def check_command_table(problems: list) -> None:
    tour = ARCHITECTURE.read_text(encoding="utf-8")
    if COMMAND_TABLE_HEADER not in tour:
        problems.append(
            f"{ARCHITECTURE.relative_to(REPO)}: no command table "
            f"(header {COMMAND_TABLE_HEADER!r})"
        )
        return
    for command, flag in stale_table_flags(tour, cli_flags()):
        problems.append(
            f"{ARCHITECTURE.relative_to(REPO)}: command table lists {flag} "
            f"for {command}, but cli.py defines no such flag"
        )


def check_links(problems: list) -> None:
    for page in sorted(DOCS.glob("*.md")) + [REPO / "README.md"]:
        text = page.read_text(encoding="utf-8")
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (page.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(
                    f"{page.relative_to(REPO)}: broken link -> {target}"
                )


def main() -> int:
    problems: list = []
    check_modules(problems)
    check_cli_flags(problems)
    check_command_table(problems)
    check_links(problems)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(
        "check_docs: architecture tour, CLI flags, command table, and links "
        "all consistent"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
