"""Command-line interface: ``python -m repro <command>``.

Commands:

``report [--quick]``
    The full study report (tables, findings, kernel evidence).
``tables [ID ...]``
    Render all tables, or just the named ones (e.g. ``T3 T7``).
``findings``
    Re-derive findings F1-F10 and print pass/fail.
``kernels [--family F]``
    List the executable bug kernels, optionally one workload family
    (``sc`` / ``weakmem`` / ``actor``).
``kernel [NAME] [--family F] [--reduction R] [--memory M]``
    Drive one kernel end to end: manifest, minimal witness, fix check.
    ``--family`` sweeps every kernel of a family instead; ``--memory``
    re-runs under a different memory model (``sc`` / ``tso``).
``detect NAME [--reduction R] [--memory M] [--online]``
    Run the detector battery on a manifesting trace of kernel NAME;
    ``--online`` streams the detectors along the whole exploration
    instead (every interleaving analysed, shared prefixes once).
``estimate NAME [--runs N] [--reduction R]``
    Manifestation rates under cooperative/random/PCT/enforced testing.
``static [NAME] [--json] [--direct] [--reduction R] [--memory M]``
    Static analysis of kernel NAME (default: every kernel), zero
    schedules, cross-checked against dynamic exploration for a
    precision/recall report; ``--direct`` additionally compares
    race-directed vs undirected schedules-to-first-manifestation,
    ``--json`` emits the machine-readable report.  Everywhere it
    appears, ``--reduction {none,sleepset,dpor}`` selects the
    partial-order reduction the underlying exploration runs under
    (``docs/simulator.md``).
``static --source PATH [--budget N] [--json]``
    Analyze real Python ``threading`` source (one module, or a corpus
    directory such as ``examples/realworld``): the AST frontend extracts
    static candidates, the lifter compiles each module to a simulator
    program, and exploration confirms candidates against the module's
    ``REPRO_EXPECT`` ground-truth annotations (``docs/static.md``).
``lift PATH [--show] [--budget N] [--json]``
    Check one real Python module end to end — frontend, lift, explore —
    and report whether any candidate manifests; ``--show`` prints the
    generated simulator thread bodies.
``bug BUG_ID``
    Show one bug record (try ``mysql-nd-binlog-rotate``).
``validate``
    Database invariants + findings, exit non-zero on any failure.
``fuzz [--programs N] [--deadlocks]``
    Cross-check plain DFS against sleep-set reduction on random programs.
``bug-report NAME [--runs N]``
    Emit a complete markdown failure report for one kernel.
``serve [--socket PATH | --port N] [--fleet N] [--cache-dir DIR]``
    Run the long-running checking service: accept check/detect/explore/
    static jobs over a local socket, schedule them onto a process-pool
    worker fleet, and dedupe identical submissions via the persistent
    result cache (``docs/service.md``).
``submit KERNEL [--kind K] [--wait/--no-wait] [--socket PATH | --port N]``
    Submit one job to a running service and (by default) wait for its
    verdict; takes the same ``--reduction``/``--memory`` knobs as the
    one-shot subcommands, plus ``--bound``/``--memoize``/``--budget``.
``status [--json] [--shutdown] [--socket PATH | --port N]``
    The service dashboard: queue depth, fleet, totals (cache hits,
    dedup ratio, engine runs), and recent jobs; ``--shutdown``
    additionally asks the service to stop after reporting.

Every subcommand additionally accepts the observability flags
(``docs/observability.md``):

``--metrics-out PATH``
    Append structured JSONL run records (one per exploration /
    estimator sweep, plus a final per-command summary carrying the full
    metrics snapshot) to PATH.
``--profile``
    Print a hot-path span table (engine execution, prefix replay,
    fingerprinting) to stderr when the command finishes.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.bugdb import BugDatabase, validate_database
from repro.study import all_tables, check_all, generate_report

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` command."""
    from repro.sim.explorer import REDUCTIONS
    from repro.sim.memory import MEMORY_MODELS

    memory_choices = sorted(MEMORY_MODELS)

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Learning from Mistakes' (ASPLOS 2008): "
            "concurrency bug characteristics, executable."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Observability flags, shared by every subcommand (docs/observability.md).
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="append JSONL run records + a metrics snapshot to PATH",
    )
    obs_flags.add_argument(
        "--profile", action="store_true",
        help="print a hot-path span table to stderr on exit",
    )

    report = commands.add_parser(
        "report", help="full study report", parents=[obs_flags]
    )
    report.add_argument(
        "--quick", action="store_true", help="skip exploration-heavy kernel evidence"
    )

    tables = commands.add_parser(
        "tables", help="render study tables", parents=[obs_flags]
    )
    tables.add_argument("ids", nargs="*", help="table ids (default: all)")
    tables.add_argument("--csv", action="store_true", help="emit CSV instead of ASCII")

    commands.add_parser(
        "findings", help="re-derive findings F1-F10", parents=[obs_flags]
    )
    family_help = ("restrict to one kernel family "
                   "(sc / weakmem / actor; see repro.kernels)")
    kernels_cmd = commands.add_parser(
        "kernels", help="list executable bug kernels", parents=[obs_flags]
    )
    kernels_cmd.add_argument("--family", default=None, help=family_help)

    reduction_help = ("partial-order reduction for the exploration: "
                      "none (default), sleepset, or dpor")
    memory_help = ("memory model to run under: sc (sequential consistency) "
                   "or tso (per-thread store buffers); default: the "
                   "kernel's declared model (docs/simulator.md)")
    kernel = commands.add_parser(
        "kernel", help="drive one kernel end to end", parents=[obs_flags]
    )
    kernel.add_argument(
        "name", nargs="?", default=None,
        help="kernel name (or pass --family to sweep a whole family)",
    )
    kernel.add_argument("--family", default=None,
                        help=family_help + "; drives every kernel in it")
    kernel.add_argument("--reduction", choices=REDUCTIONS, default=None,
                        help=reduction_help)
    kernel.add_argument("--memory", choices=memory_choices, default=None,
                        help=memory_help)

    detect = commands.add_parser(
        "detect", help="detectors on a manifesting trace", parents=[obs_flags]
    )
    detect.add_argument("name")
    detect.add_argument(
        "--online", action="store_true",
        help="stream detectors along the exploration (analyse every "
             "interleaving, sharing work across schedule prefixes)",
    )
    detect.add_argument("--reduction", choices=REDUCTIONS, default=None,
                        help=reduction_help)
    detect.add_argument("--memory", choices=memory_choices, default=None,
                        help=memory_help)

    estimate = commands.add_parser(
        "estimate", help="manifestation-rate estimates", parents=[obs_flags]
    )
    estimate.add_argument("name")
    estimate.add_argument("--runs", type=int, default=100)
    estimate.add_argument("--reduction", choices=REDUCTIONS, default=None,
                          help=reduction_help + " (exhaustive row)")

    static = commands.add_parser(
        "static",
        help="static analysis + precision/recall vs dynamic findings",
        parents=[obs_flags],
    )
    static.add_argument(
        "name", nargs="?", default=None,
        help="kernel name (default: every registered kernel)",
    )
    static.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    static.add_argument(
        "--direct", action="store_true",
        help="also compare race-directed vs undirected exploration "
             "(schedules to first manifestation)",
    )
    static.add_argument("--reduction", choices=REDUCTIONS, default=None,
                        help=reduction_help + " (dynamic cross-check)")
    static.add_argument("--memory", choices=memory_choices, default=None,
                        help=memory_help)
    static.add_argument(
        "--source", metavar="PATH", default=None,
        help="analyze a real Python threading module (or a directory of "
             "them) instead of a DSL kernel: frontend -> candidates -> "
             "lifted-program confirmation against REPRO_EXPECT annotations",
    )
    static.add_argument(
        "--budget", type=_positive_int, default=800,
        help="max schedules when confirming lifted source modules "
             "(default 800)",
    )

    lift_cmd = commands.add_parser(
        "lift",
        help="compile a real Python threading module into a runnable "
             "simulator program and explore it",
        parents=[obs_flags],
    )
    lift_cmd.add_argument("source", metavar="PATH",
                          help="path to a Python module using threading")
    lift_cmd.add_argument(
        "--show", action="store_true",
        help="print the generated thread bodies (the lifted DSL source)",
    )
    lift_cmd.add_argument(
        "--budget", type=_positive_int, default=800,
        help="max schedules for the exploration (default 800)",
    )
    lift_cmd.add_argument("--json", action="store_true",
                          help="emit the lift verdict as JSON")

    bug = commands.add_parser(
        "bug", help="show one bug record", parents=[obs_flags]
    )
    bug.add_argument("bug_id")

    commands.add_parser(
        "validate", help="check database invariants + findings",
        parents=[obs_flags],
    )

    fuzz = commands.add_parser(
        "fuzz",
        help="cross-check plain DFS vs sleep-set reduction on random programs",
        parents=[obs_flags],
    )
    fuzz.add_argument("--programs", type=int, default=50)
    fuzz.add_argument("--seed-base", type=int, default=0)
    fuzz.add_argument("--budget", type=int, default=8000,
                      help="max schedules per exploration")
    fuzz.add_argument("--deadlocks", action="store_true",
                      help="allow inverted lock pairs (ABBA deadlocks)")

    report_cmd = commands.add_parser(
        "bug-report", help="markdown failure report for one kernel",
        parents=[obs_flags],
    )
    report_cmd.add_argument("name")
    report_cmd.add_argument("--runs", type=int, default=100)

    # Service endpoint flags, shared by submit/status (and serve's bind).
    endpoint_flags = argparse.ArgumentParser(add_help=False)
    endpoint_flags.add_argument(
        "--socket", metavar="PATH", default=None,
        help="Unix socket of the service (default .repro-service.sock)",
    )
    endpoint_flags.add_argument(
        "--port", type=int, default=None,
        help="loopback TCP port instead of a Unix socket",
    )

    serve = commands.add_parser(
        "serve",
        help="run the checking service (job queue + worker fleet + cache)",
        parents=[obs_flags, endpoint_flags],
    )
    serve.add_argument(
        "--fleet", type=_positive_int, default=None,
        help="worker processes in the fleet (default: one per core, <= 4)",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR", default=".repro-cache",
        help="persistent result-cache directory (default .repro-cache)",
    )
    serve.add_argument(
        "--pool", choices=("auto", "fork", "none"), default="auto",
        help="worker pool: forked processes (auto/fork) or inline threads "
             "(none); see docs/service.md",
    )
    serve.add_argument(
        "--max-pending", type=_positive_int, default=256,
        help="admission control: refuse submissions past this backlog",
    )

    submit = commands.add_parser(
        "submit", help="submit one job to a running service",
        parents=[obs_flags, endpoint_flags],
    )
    submit.add_argument(
        "name",
        help="kernel name (or, with --kind source, a Python module path)",
    )
    submit.add_argument(
        "--kind", choices=[k.value for k in _job_kinds()], default="detect",
        help="what to run (default: detect)",
    )
    submit.add_argument("--reduction", choices=REDUCTIONS, default=None,
                        help=reduction_help)
    submit.add_argument("--bound", type=int, default=None,
                        help="preemption bound for the exploration")
    submit.add_argument("--memoize", action="store_true",
                        help="prune revisited states during the exploration")
    submit.add_argument("--budget", type=_positive_int, default=None,
                        help="max schedules for the exploration")
    submit.add_argument("--memory", choices=memory_choices, default=None,
                        help=memory_help)
    submit.add_argument(
        "--no-wait", action="store_true",
        help="return the job id immediately instead of waiting for "
             "the verdict",
    )
    submit.add_argument("--timeout", type=float, default=None,
                        help="seconds to wait for the verdict")
    submit.add_argument("--json", action="store_true",
                        help="emit the job record as JSON")

    status = commands.add_parser(
        "status", help="dashboard of a running service",
        parents=[obs_flags, endpoint_flags],
    )
    status.add_argument("--json", action="store_true",
                        help="emit the dashboard as JSON")
    status.add_argument(
        "--shutdown", action="store_true",
        help="ask the service to stop after reporting",
    )
    return parser


def _job_kinds():
    from repro.service.jobs import JobKind

    return list(JobKind)


def _cmd_report(args) -> int:
    report = generate_report(quick=args.quick)
    print(report.format())
    return 0 if report.all_findings_pass else 1


def _cmd_tables(args) -> int:
    tables = all_tables()
    wanted = [i.upper() for i in args.ids] or sorted(tables)
    unknown = [i for i in wanted if i not in tables]
    if unknown:
        print(f"unknown table id(s): {', '.join(unknown)}; "
              f"available: {', '.join(sorted(tables))}", file=sys.stderr)
        return 2
    for table_id in wanted:
        if args.csv:
            print(tables[table_id].to_csv(), end="")
        else:
            print(tables[table_id].format())
            print()
    return 0


def _cmd_findings(_args) -> int:
    results = check_all()
    for result in results:
        print(result.summary())
    return 0 if all(r.passed for r in results) else 1


def _family_kernels_or_fail(family: str):
    from repro.kernels import all_kernels, families

    try:
        return all_kernels(family=family)
    except KeyError:
        print(f"unknown kernel family {family!r}; available: "
              f"{', '.join(families())}", file=sys.stderr)
        return None


def _cmd_kernels(args) -> int:
    from repro.kernels import all_kernels

    if args.family is not None:
        kernels = _family_kernels_or_fail(args.family)
        if kernels is None:
            return 2
    else:
        kernels = all_kernels()
    for kernel in kernels:
        print(kernel.summary())
    return 0


def _get_kernel_or_fail(name: str):
    from repro.kernels import get_kernel, kernel_names

    try:
        return get_kernel(name)
    except KeyError:
        print(f"unknown kernel {name!r}; available:", file=sys.stderr)
        for known in kernel_names():
            print(f"  {known}", file=sys.stderr)
        return None


def _with_memory(kernel, memory: Optional[str]):
    """The kernel re-targeted onto ``memory`` (both programs), or as is."""
    import dataclasses

    if memory is None:
        return kernel
    return dataclasses.replace(
        kernel,
        buggy=kernel.buggy.with_memory(memory),
        fixed=kernel.fixed.with_memory(memory),
    )


def _drive_kernel(kernel, args) -> int:
    from repro.sim import minimize_preemptions

    kernel = _with_memory(kernel, getattr(args, "memory", None))
    print(kernel.summary())
    print(f"  {kernel.description}")
    print(f"  memory model: {kernel.buggy.memory}")
    witness = minimize_preemptions(kernel.buggy, kernel.failure)
    if witness is None:
        print("  no manifesting schedule found")
        return 1
    print(f"  minimal witness: {witness.preemptions} preemption(s), "
          f"schedule {witness.run.schedule}")
    print(f"  outcome: {witness.run.summary()}")
    clean = kernel.verify_fixed(reduction=args.reduction)
    print(f"  fix '{kernel.fix_strategy.value}': "
          f"{'verified clean over every schedule' if clean else 'STILL BUGGY'}")
    return 0 if clean else 1


def _cmd_kernel(args) -> int:
    if args.name is None and args.family is None:
        print("pass a kernel name or --family FAMILY", file=sys.stderr)
        return 2
    if args.family is not None:
        kernels = _family_kernels_or_fail(args.family)
        if kernels is None:
            return 2
        if args.name is not None:
            kernels = [k for k in kernels if k.name == args.name]
            if not kernels:
                print(f"kernel {args.name!r} is not in family "
                      f"{args.family!r}", file=sys.stderr)
                return 2
    else:
        kernel = _get_kernel_or_fail(args.name)
        if kernel is None:
            return 2
        kernels = [kernel]
    worst = 0
    for i, kernel in enumerate(kernels):
        if i:
            print()
        worst = max(worst, _drive_kernel(kernel, args))
    return worst


def _cmd_detect(args) -> int:
    from repro.detectors import DetectorSuite

    kernel = _get_kernel_or_fail(args.name)
    if kernel is None:
        return 2
    kernel = _with_memory(kernel, args.memory)
    if args.online:
        suite = DetectorSuite.for_program(kernel.buggy)
        result = suite.analyse_online(kernel.buggy, reduction=args.reduction)
        exploration = result.exploration
        assert exploration is not None
        print(exploration.summary())
        stats = exploration.pipeline_stats or {}
        print(
            "pipeline: {dispatched} events dispatched, {reused} reused "
            "({ratio:.0%} of analysed events came from shared prefixes), "
            "{passes} passes".format(
                dispatched=stats.get("events_dispatched", 0),
                reused=stats.get("events_reused", 0),
                ratio=stats.get("reuse_ratio", 0.0),
                passes=stats.get("passes", 0),
            )
        )
        first = stats.get("first_finding_step")
        if first is not None:
            print(f"first finding at trace step {first}")
        print()
        print(result.format())
        return 0
    failing = kernel.find_manifestation(reduction=args.reduction)
    if failing is None:
        print("kernel did not manifest", file=sys.stderr)
        return 1
    print(failing.trace.format())
    print()
    result = DetectorSuite.for_program(kernel.buggy).analyse(failing.trace)
    print(result.format())
    return 0


def _cmd_estimate(args) -> int:
    from repro.manifest import compare_strategies

    kernel = _get_kernel_or_fail(args.name)
    if kernel is None:
        return 2
    estimates = compare_strategies(
        kernel, runs=args.runs, reduction=args.reduction
    )
    for estimate in estimates.values():
        print(estimate.summary())
    return 0


def _measure_directed(kernel, reduction=None) -> dict:
    """Schedules to first manifestation, undirected DFS vs race-directed."""
    from repro.sim.explorer import make_explorer

    counts = {}
    for mode, targets in (
        ("undirected", None),
        ("directed", kernel.static_targets()),
    ):
        explorer = make_explorer(
            kernel.buggy, 20000, 5000, None,
            keep_matches=1, targets=targets, reduction=reduction,
        )
        result = explorer.explore(predicate=kernel.failure, stop_on_first=True)
        counts[mode] = result.schedules_run if result.found else None
    return counts


def _check_source_module(module, budget: int) -> dict:
    """Frontend -> candidates -> lifted confirmation for one module.

    Returns the machine-readable record; ``record["ok"]`` is the gate:
    buggy modules must have every annotated bug covered by an active
    candidate (recall) and every confirmable bug covered by a *confirmed*
    candidate; fixed modules must explore with no failing terminal
    status.
    """
    from repro.static.lift import confirm
    from repro.static.pysource import annotation_matches
    from repro.static.report import analyse_summary

    report = analyse_summary(module.summary)
    active = report.active()
    outcome = confirm(module.summary, max_schedules=budget)
    confirmed_keys = {
        (o.kind, o.variables, o.resources)
        for o in outcome.outcomes
        if o.confirmed
    }
    bugs = []
    ok = True
    for bug in module.bugs:
        matched = [c for c in active if annotation_matches(bug, c)]
        recalled = bool(matched)
        manifested = any(
            (c.kind, c.variables, c.resources) in confirmed_keys
            for c in matched
        )
        if not recalled or (bug.confirmable and not manifested):
            ok = False
        bugs.append(
            {
                "bug": bug.describe(),
                "recalled": recalled,
                "confirmed": manifested,
                "confirmable": bug.confirmable,
            }
        )
    if module.is_fixed and not outcome.clean:
        ok = False
    return {
        "module": module.name,
        "fixed_of": module.fixed_of,
        "ok": ok,
        "approximate": any(
            t.approximate for t in module.summary.threads.values()
        ),
        "candidates": len(active),
        "confirmed": len(outcome.confirmed),
        "statuses": outcome.statuses,
        "clean": outcome.clean,
        "bugs": bugs,
        "wall_seconds": outcome.wall_seconds,
    }


def _cmd_static_source(args) -> int:
    from repro.static.pysource import SourceError, load_corpus

    import json

    try:
        modules = load_corpus(args.source)
    except SourceError as exc:
        print(f"source analysis failed: {exc}", file=sys.stderr)
        return 2
    names = {m.name for m in modules}
    records = []
    all_ok = True
    for module in modules:
        record = _check_source_module(module, args.budget)
        if module.fixed_of is not None and module.fixed_of not in names:
            record["ok"] = False
            record["bugs"].append(
                {"bug": f"fixed_of {module.fixed_of!r} missing", "recalled": False}
            )
        all_ok = all_ok and record["ok"]
        records.append(record)
    annotated = sum(len(r["bugs"]) for r in records)
    recalled = sum(1 for r in records for b in r["bugs"] if b.get("recalled"))
    if args.json:
        print(
            json.dumps(
                {
                    "modules": records,
                    "recall": (recalled / annotated) if annotated else 1.0,
                    "ok": all_ok,
                },
                indent=2,
            )
        )
        return 0 if all_ok else 1
    for record in records:
        verdict = "ok" if record["ok"] else "FAILED"
        role = (
            f"fixes {record['fixed_of']}" if record["fixed_of"] else "buggy"
        )
        print(
            f"{record['module']:32s} [{role}] {verdict}: "
            f"{record['candidates']} candidate(s), "
            f"{record['confirmed']} confirmed, statuses {record['statuses']}"
        )
        for bug in record["bugs"]:
            mark = "+" if bug.get("confirmed") else ("~" if bug.get("recalled") else "-")
            print(f"    {mark} {bug['bug']}")
    print(
        f"ground-truth recall: {recalled}/{annotated}"
        + ("" if all_ok else "  — GATE FAILED")
    )
    return 0 if all_ok else 1


def _cmd_static(args) -> int:
    import json

    from repro.detectors import DetectorSuite
    from repro.kernels import all_kernels

    if args.source is not None:
        if args.name is not None:
            print("pass a kernel name or --source, not both", file=sys.stderr)
            return 2
        return _cmd_static_source(args)
    if args.name is not None:
        kernel = _get_kernel_or_fail(args.name)
        if kernel is None:
            return 2
        kernels = [kernel]
    else:
        kernels = list(all_kernels())
    kernels = [_with_memory(k, args.memory) for k in kernels]

    payload = []
    all_sound = True
    for kernel in kernels:
        suite = DetectorSuite.for_program(kernel.buggy)
        comparison = suite.analyse_static(
            kernel.buggy, predicate=kernel.failure, reduction=args.reduction,
        )
        all_sound = all_sound and comparison.sound
        directed = (
            _measure_directed(kernel, args.reduction)
            if args.direct else None
        )
        if args.json:
            record = comparison.to_json()
            if directed is not None:
                record["schedules_to_first"] = directed
            payload.append(record)
            continue
        print(comparison.static.format())
        print(comparison.format())
        if directed is not None:
            print(
                "  schedules to first manifestation: "
                f"undirected {directed['undirected']}, "
                f"directed {directed['directed']}"
            )
        print()
    if args.json:
        print(json.dumps(payload, indent=2))
    elif len(kernels) > 1:
        print(
            "soundness over kernel corpus: "
            + ("every confirmed dynamic finding statically predicted"
               if all_sound else "FAILED — see MISSED lines above")
        )
    return 0 if all_sound else 1


def _cmd_lift(args) -> int:
    import json

    from repro.static.lift import confirm, lifted_source
    from repro.static.pysource import SourceError, load_source

    try:
        module = load_source(args.source)
    except (OSError, SourceError) as exc:
        print(f"lift failed: {exc}", file=sys.stderr)
        return 2
    if args.show:
        print(lifted_source(module.summary))
        print()
    outcome = confirm(module.summary, max_schedules=args.budget)
    buggy = bool(outcome.confirmed) or not outcome.clean
    if args.json:
        record = outcome.to_json()
        record["buggy"] = buggy
        print(json.dumps(record, indent=2))
        return 1 if buggy else 0
    print(f"{module.name}: lifted to simulator program "
          f"({len(module.summary.threads)} thread(s))")
    print(f"  explored statuses: {dict(outcome.statuses)}")
    for cand in outcome.outcomes:
        mark = f"CONFIRMED via {cand.how}" if cand.confirmed else "unconfirmed"
        print(f"  [{cand.kind}] {cand.description} — {mark}")
    if not outcome.outcomes:
        print("  no static candidates")
    print(
        "verdict: "
        + ("bug manifested in the lifted program" if buggy
           else "clean — no candidate confirmed, no failing status")
    )
    return 1 if buggy else 0


def _cmd_bug(args) -> int:
    db = BugDatabase.load()
    if args.bug_id not in db:
        print(f"unknown bug id {args.bug_id!r} (of {len(db)} records)",
              file=sys.stderr)
        return 2
    record = db.get(args.bug_id)
    print(f"{record.bug_id} ({record.report_ref})")
    print(f"  application: {record.application.value} — {record.component}")
    print(f"  category:    {record.category.value}")
    if record.patterns:
        print(f"  patterns:    {', '.join(p.value for p in record.patterns)}")
    print(f"  impact:      {record.impact.value}")
    print(f"  threads:     {record.threads_involved}")
    if record.variables_involved is not None:
        print(f"  variables:   {record.variables_involved}")
    if record.resources_involved is not None:
        print(f"  resources:   {record.resources_involved}")
    print(f"  accesses:    {record.accesses_to_manifest}")
    print(f"  fix:         {record.fix_strategy.value}"
          + (" (first patch was buggy)" if record.first_fix_buggy else ""))
    if record.kernel:
        print(f"  kernel:      {record.kernel}")
    print(f"  {record.description}")
    return 0


def _cmd_validate(_args) -> int:
    db = BugDatabase.load()
    problems = validate_database(db)
    for problem in problems:
        print(f"invariant violation: {problem}", file=sys.stderr)
    results = check_all(db)
    for result in results:
        print(result.summary())
    ok = not problems and all(r.passed for r in results)
    print("database valid, all findings reproduced" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_fuzz(args) -> int:
    from repro.sim.generate import GeneratorConfig, fuzz_explorers

    config = GeneratorConfig(allow_deadlock=args.deadlocks)
    result = fuzz_explorers(
        programs=args.programs,
        seed_base=args.seed_base,
        config=config,
        max_schedules=args.budget,
    )
    print(result.summary())
    if not result.clean:
        print(f"diverging seeds: {result.mismatch_seeds}", file=sys.stderr)
    return 0 if result.clean else 1


def _cmd_bug_report(args) -> int:
    from repro.reporting import build_bug_report

    kernel = _get_kernel_or_fail(args.name)
    if kernel is None:
        return 2
    report = build_bug_report(kernel.buggy, kernel.failure, random_runs=args.runs)
    if report is None:
        print("no failure reachable", file=sys.stderr)
        return 1
    print(report.to_markdown())
    return 0


#: Default Unix-socket path shared by ``serve`` and its clients.
DEFAULT_SOCKET = ".repro-service.sock"


def _endpoint(args) -> dict:
    """socket/port keyword arguments from the shared endpoint flags."""
    if args.port is not None:
        if args.socket is not None:
            raise SystemExit("pass --socket or --port, not both")
        return {"port": args.port}
    return {"socket_path": args.socket or DEFAULT_SOCKET}


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import ReproService, WorkerFleet
    from repro.service.protocol import serve

    fleet = WorkerFleet(size=args.fleet, pool=args.pool)
    service = ReproService(
        cache=args.cache_dir, fleet=fleet, max_pending=args.max_pending,
    )
    endpoint = _endpoint(args)
    where = endpoint.get("socket_path") or f"127.0.0.1:{endpoint['port']}"
    print(
        f"repro service listening on {where} — fleet {fleet.size} "
        f"({fleet.mode}), cache {service.cache.root}",
        file=sys.stderr,
    )
    try:
        asyncio.run(serve(service, **endpoint))
    except KeyboardInterrupt:
        pass
    print("repro service stopped", file=sys.stderr)
    return 0


def _client(args):
    from repro.service.protocol import ServiceClient

    return ServiceClient(**_endpoint(args), timeout=600.0)


def _format_submit_verdict(job: dict) -> str:
    verdict = job.get("verdict") or {}
    kind = job.get("kind")
    source = "cache" if job.get("cached") else "fleet"
    head = (f"{job['id']} {kind} {job['kernel']}: {job['state']} "
            f"[{source}, {job.get('engine_runs', 0)} engine run(s)]")
    if job.get("error"):
        return f"{head}\n  error: {job['error']}"
    if kind == "check" and verdict:
        body = ("verified clean over every schedule" if verdict.get("clean")
                else "STILL BUGGY")
    elif kind == "detect" and verdict:
        body = ("manifested; flagged by " + ", ".join(verdict.get("flagged_by", []))
                if verdict.get("manifested") else "did not manifest")
    elif kind == "explore" and verdict:
        body = (f"{verdict.get('distinct_outcomes')} distinct outcomes, "
                f"digest {verdict.get('outcome_digest', '')[:12]}")
    elif kind == "static" and verdict:
        body = f"{verdict.get('candidates')} active candidates"
    elif kind == "source" and verdict:
        body = (
            f"module {verdict.get('module')}: "
            f"{verdict.get('confirmed', 0)} confirmed candidate(s), "
            f"statuses {verdict.get('statuses')}"
            + ("" if verdict.get("clean") else " — NOT CLEAN")
        )
    else:
        return head
    return f"{head}\n  {body}"


def _cmd_submit(args) -> int:
    import json

    options = {
        "reduction": args.reduction,
        "preemption_bound": args.bound,
        "memoize": args.memoize,
        "max_schedules": args.budget,
        "memory": args.memory,
    }
    response = _client(args).submit(
        args.name, kind=args.kind,
        options={k: v for k, v in options.items() if v not in (None, False)},
        wait=not args.no_wait, timeout=args.timeout,
    )
    if args.json:
        print(json.dumps(response, indent=2))
    elif not response.get("ok"):
        print(f"submit failed: {response.get('error')}", file=sys.stderr)
    else:
        print(_format_submit_verdict(response["job"]))
    if not response.get("ok"):
        return 1
    job = response["job"]
    if job["state"] == "failed":
        return 1
    return 0


def _cmd_status(args) -> int:
    import json

    client = _client(args)
    response = client.status()
    if not response.get("ok"):
        print(f"status failed: {response.get('error')}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(response, indent=2))
    else:
        from repro.service.dashboard import render_status

        print(render_status(response))
    if args.shutdown:
        client.shutdown()
        print("shutdown requested", file=sys.stderr)
    return 0


_HANDLERS = {
    "report": _cmd_report,
    "tables": _cmd_tables,
    "findings": _cmd_findings,
    "kernels": _cmd_kernels,
    "kernel": _cmd_kernel,
    "detect": _cmd_detect,
    "estimate": _cmd_estimate,
    "static": _cmd_static,
    "lift": _cmd_lift,
    "bug": _cmd_bug,
    "validate": _cmd_validate,
    "fuzz": _cmd_fuzz,
    "bug-report": _cmd_bug_report,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
}


def _run_with_observability(args) -> int:
    """Run one command with metrics/runlog/profiling switched on.

    The registry, run log, and profiler are process-global; they are
    installed for the duration of the command and always torn down, so
    library use of :func:`main` never leaks observability state.
    """
    from repro.obs import metrics, profile, runlog

    registry = metrics.enable()
    profiler = profile.enable() if args.profile else None
    if args.metrics_out:
        runlog.set_runlog(args.metrics_out)
    start = time.perf_counter()
    code = 2
    try:
        code = _HANDLERS[args.command](args)
        return code
    finally:
        if args.metrics_out:
            runlog.emit(
                "cli",
                command=args.command,
                args={
                    k: v for k, v in sorted(vars(args).items())
                    if k not in ("command",) and not callable(v)
                },
                exit_code=code,
                wall_seconds=time.perf_counter() - start,
                metrics=registry.snapshot(),
                profile=profiler.as_dict() if profiler else None,
            )
        if profiler is not None:
            print(profiler.report(), file=sys.stderr)
        metrics.disable()
        profile.disable()
        runlog.clear_runlog()


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "metrics_out", None) or getattr(args, "profile", False):
        return _run_with_observability(args)
    return _HANDLERS[args.command](args)
