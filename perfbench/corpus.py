"""Benchmark inputs and the expected answers they are checked against.

Everything here is a pure function of the ``--seed`` argument and of
``expected.json`` (written once by ``capture_expected.py``):

* the **kernel corpus** — every registered bug kernel, buggy and fixed;
* the **generated band** — a seeded draw from a fixed pool of
  ``repro.sim.generate`` programs whose complete plain-DFS search fits
  under :data:`GENERATED_CAP` schedules, stratified on the cost of its
  verdicts, so no single program dominates a run and every seed draws
  the same cost profile;
* the **service job stream** — ``check/detect/explore/static`` jobs on
  the kernels plus ``source`` jobs on ``examples/realworld``, where a
  fixed share re-submits an earlier key.

The module imports nothing from ``repro`` at import time, so the parent
benchmark process (the service client) stays free of the program.
"""

from __future__ import annotations

import ast
import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Largest complete plain-DFS search (in schedules) a pool program may need.
GENERATED_CAP = 400
#: Generator seeds scanned when the pool is captured.
POOL_SEEDS = 600
#: Programs drawn into one run's band (one per cost stratum).  Most of
#: the pool, so the band's latency percentiles barely move between seeds.
BAND_SIZE = 270

#: Option profiles a service job draws from (all keep exploration small).
SERVICE_PROFILES: Tuple[Dict[str, Any], ...] = (
    {},
    {"reduction": "dpor"},
    {"reduction": "sleepset"},
    {"memoize": True},
    {"reduction": "dpor", "memoize": True},
)
#: Job kinds of the service stream, with equal shares.
SERVICE_KINDS = ("check", "detect", "explore", "static", "source")
#: Re-submissions of earlier keys (cache reads) after each fresh job, so
#: 75% of the stream re-submits.
SERVICE_REPEATS = 3
#: Kernels whose plain-DFS outcome enumeration is too large for a
#: service job that should stay small: ``explore`` jobs on them always
#: carry a reduction or memoization.
SERVICE_LARGE_EXPLORE = ("multivar_torn_invariant", "weakmem_store_buffer")
#: Base schedule budgets per kind (the service defaults); fresh keys add
#: a unique offset, which changes the key but never the verdict.
SERVICE_BASE_BUDGET = {
    "check": 50000, "detect": 20000, "explore": 20000, "static": 20000,
    "source": 800,
}


def outcome_set_digest(outcomes: Sequence[Any]) -> str:
    """Digest of a terminal-outcome *set* (order and counts ignored)."""
    blob = "\n".join(sorted(repr(key) for key in outcomes))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_expected() -> Dict[str, Any]:
    """The stored expected answers (see ``capture_expected.py``)."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def band(pool: Sequence[Dict[str, Any]], seed: int,
         size: int = BAND_SIZE) -> List[Dict[str, Any]]:
    """Stratified seeded draw: one pool program per stratum of cost.

    The cost is the work every verdict of ``explore_verify`` takes on the
    program (plain DFS plus the reduced searches), so every seed draws
    nearly the same cost profile.
    """
    ordered = sorted(
        pool, key=lambda entry: (entry["dfs_work"] + entry["reduced_work"], entry["seed"])
    )
    rng = random.Random(f"band-{seed}")
    picks = []
    for index in range(size):
        low = index * len(ordered) // size
        high = max(low + 1, (index + 1) * len(ordered) // size)
        picks.append(ordered[rng.randrange(low, high)])
    return picks


# -- examples/realworld ground truth ---------------------------------------


def realworld_modules(root: Path) -> List[Path]:
    """The ``examples/realworld`` corpus modules, sorted by name."""
    return sorted(
        path for path in (root / "examples" / "realworld").glob("*.py")
        if not path.name.startswith("_")
    )


def repro_expect(path: Path) -> Dict[str, Any]:
    """The module's literal ``REPRO_EXPECT`` dict (``{}`` when absent)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and any(getattr(t, "id", None) == "REPRO_EXPECT" for t in stmt.targets)
        ):
            return ast.literal_eval(stmt.value)
    return {}


def _annotation_matches(bug: Dict[str, Any], candidate: Dict[str, Any]) -> bool:
    """Kind equality, variable intersection, resource inclusion either way."""
    if candidate["kind"] != bug["kind"]:
        return False
    variables = set(bug.get("variables", ()))
    if variables and not variables & set(candidate["variables"]):
        return False
    resources = frozenset(bug.get("resources", ()))
    if resources:
        found = frozenset(candidate["resources"])
        if not (resources <= found or (found and found <= resources)):
            return False
    return True


def source_verdict_ok(expect: Dict[str, Any], verdict: Dict[str, Any]) -> bool:
    """Whether a ``source`` verdict meets the module's ``REPRO_EXPECT``.

    A fixed variant must verify clean; every confirmable annotated bug of
    a buggy variant must match a confirmed candidate, and a bug annotated
    to crash/deadlock/hang must reach that terminal status.
    """
    if expect.get("fixed_of"):
        return bool(verdict.get("clean"))
    confirmed = [c for c in verdict.get("candidates", []) if c.get("confirmed")]
    statuses = verdict.get("statuses", {})
    for bug in expect.get("bugs", []):
        if not bug.get("confirmable", True):
            continue
        if not any(_annotation_matches(bug, c) for c in confirmed):
            return False
        manifestation = bug.get("manifestation", "finding")
        if manifestation != "finding" and not statuses.get(manifestation):
            return False
    return True


# -- service job stream ------------------------------------------------------


def service_round(kernels: Sequence[str],
                  sources: Sequence[str]) -> List[Tuple[str, str, Dict[str, Any]]]:
    """The fresh jobs of one round: every kind on every target, once per
    option profile (``static`` and ``source`` jobs take no profile, so
    they repeat with plain options and keep an equal share)."""
    jobs = []
    for kind in SERVICE_KINDS:
        for target in (sources if kind == "source" else kernels):
            profiles: Sequence[Dict[str, Any]] = SERVICE_PROFILES
            if kind in ("static", "source"):
                profiles = ({},)
            elif kind == "explore" and target in SERVICE_LARGE_EXPLORE:
                profiles = SERVICE_PROFILES[1:]
            for slot in range(len(SERVICE_PROFILES)):
                jobs.append((kind, target, profiles[slot % len(profiles)]))
    return jobs


def service_stream(seed: int, length: int, kernels: Sequence[str],
                   sources: Sequence[str]) -> List[Dict[str, Any]]:
    """A seeded job stream; a fixed share re-submits an earlier key.

    Each entry is a ``submit`` request body (``kind``, ``kernel``,
    ``options``).  Fresh jobs come in rounds of :func:`service_round` in
    a seeded order, so every seed sends the same job mix; each fresh job
    is followed by :data:`SERVICE_REPEATS` seeded re-submissions of
    earlier keys.  Fresh entries get a unique ``max_schedules`` above the
    kind's default budget, which gives them a key of their own without
    changing the verdict.
    """
    rng = random.Random(f"stream-{seed}")
    template = service_round(kernels, sources)
    pending: List[Tuple[str, str, Dict[str, Any]]] = []
    fresh: List[Dict[str, Any]] = []
    stream: List[Dict[str, Any]] = []
    while len(stream) < length:
        if not pending:
            pending = list(template)
            rng.shuffle(pending)
        kind, target, profile = pending.pop()
        options = dict(profile, max_schedules=SERVICE_BASE_BUDGET[kind] + len(fresh))
        job = {"kind": kind, "kernel": target, "options": options}
        fresh.append(job)
        stream.append(job)
        stream.extend(rng.choice(fresh) for _ in range(SERVICE_REPEATS))
    return stream[:length]


def service_verdict_ok(job: Dict[str, Any], verdict: Optional[Dict[str, Any]],
                       expected: Dict[str, Any],
                       source_expect: Dict[str, Dict[str, Any]]) -> bool:
    """Check one service verdict against the stored ground truth."""
    if not isinstance(verdict, dict):
        return False
    kind = job["kind"]
    if kind == "source":
        return source_verdict_ok(source_expect[job["kernel"]], verdict)
    truth = expected["kernels"][job["kernel"]]
    if kind == "check":
        return verdict.get("clean") is True and verdict.get("complete") is True
    if kind == "detect":
        return verdict.get("manifested") is True
    if kind == "explore":
        return (
            verdict.get("complete") is True
            and verdict.get("outcome_digest") == truth["buggy"]["digest"]
        )
    if kind == "static":
        return (
            verdict.get("candidates") == truth["static"]["candidates"]
            and verdict.get("pairs") == truth["static"]["pairs"]
        )
    return False
