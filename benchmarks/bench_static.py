"""E5 (extension) — the static analyzer's economics and its steering value.

Two headline numbers per kernel, recorded into ``BENCH_static.json``
(set ``REPRO_BENCH_OUT`` to choose the path):

* **static pass wall time** — the whole battery (summaries, locksets,
  lock-order graph, pair compilation) runs in milliseconds with zero
  executed schedules, orders of magnitude under exploration, while
  still flagging every dynamically confirmed race and deadlock
  (recall 1.0 over the corpus);
* **directed vs undirected schedules-to-first-finding** — feeding the
  predicted target pairs back as ``Explorer(targets=...)`` reaches the
  first confirmed manifestation in fewer schedules on a strict majority
  of kernels and is never slower (the tree is unchanged, only the visit
  order).
"""

import json
import os
from pathlib import Path
from time import perf_counter

from repro.detectors import DetectorSuite
from repro.kernels import all_kernels
from repro.sim.explorer import make_explorer
from repro.static import analyse


def _first_finding(kernel, targets):
    explorer = make_explorer(
        kernel.buggy, 20000, keep_matches=1, targets=targets,
    )
    start = perf_counter()
    result = explorer.explore(predicate=kernel.failure, stop_on_first=True)
    return result, perf_counter() - start


def collect():
    rows = []
    for kernel in all_kernels():
        report = analyse(kernel.buggy)
        start = perf_counter()
        comparison = DetectorSuite.for_program(kernel.buggy).analyse_static(
            kernel.buggy, predicate=kernel.failure
        )
        confirm_wall = perf_counter() - start
        undirected, undirected_wall = _first_finding(kernel, None)
        directed, directed_wall = _first_finding(kernel, report.pairs)
        rows.append({
            "kernel": kernel.name,
            "static_wall_seconds": report.wall_seconds,
            "static_candidates": len(report.active()),
            "static_pairs": len(report.pairs),
            "recall": comparison.recall,
            "precision": comparison.precision,
            "sound": comparison.sound,
            "confirm_wall_seconds": confirm_wall,
            "undirected_schedules": undirected.schedules_run,
            "directed_schedules": directed.schedules_run,
            "undirected_wall_seconds": undirected_wall,
            "directed_wall_seconds": directed_wall,
        })
    return rows


def record_trajectory(rows):
    path = Path(os.environ.get("REPRO_BENCH_OUT", "BENCH_static.json"))
    path.write_text(json.dumps({"bench": "static", "rows": rows}, indent=2))
    return path


def test_static_pass_cheap_sound_and_directing(benchmark):
    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    out = record_trajectory(rows)
    print()
    print(f"  {'kernel':26s} {'static':>9s} {'recall':>7s} "
          f"{'undirected':>11s} {'directed':>9s}")
    for r in rows:
        print(
            f"  {r['kernel']:26s} {r['static_wall_seconds'] * 1e3:>7.2f}ms "
            f"{r['recall']:>7.0%} {r['undirected_schedules']:>11d} "
            f"{r['directed_schedules']:>9d}"
        )
    print(f"  trajectory written to {out}")

    # Soundness with zero schedules: every dynamically confirmed race /
    # atomicity / order violation / deadlock was statically predicted.
    assert all(r["sound"] for r in rows), [r["kernel"] for r in rows if not r["sound"]]
    assert all(r["recall"] == 1.0 for r in rows)

    # Directed exploration: never slower, strictly faster on >= 3 kernels
    # (the acceptance floor; currently 8 of 13).
    assert all(
        r["directed_schedules"] <= r["undirected_schedules"] for r in rows
    ), [r["kernel"] for r in rows
        if r["directed_schedules"] > r["undirected_schedules"]]
    strictly_faster = [
        r["kernel"] for r in rows
        if r["directed_schedules"] < r["undirected_schedules"]
    ]
    print(f"  directed strictly faster on {len(strictly_faster)}/13: "
          f"{', '.join(strictly_faster)}")
    assert len(strictly_faster) >= 3, strictly_faster

    # The economics: predicting the findings statically must be far
    # cheaper than confirming them dynamically (exploration + detector
    # battery).  Conservative 10x floor; the measured gap is larger.
    total_static = sum(r["static_wall_seconds"] for r in rows)
    total_confirm = sum(r["confirm_wall_seconds"] for r in rows)
    assert total_static < total_confirm / 10, (total_static, total_confirm)
