"""E6 (extension) — the real-Python frontend's economics and accuracy.

Per corpus module (``examples/realworld``), recorded into
``BENCH_pysource.json`` (set ``REPRO_BENCH_OUT`` to choose the path):

* **frontend wall time** — parsing + summary extraction runs in
  milliseconds per module, so analysing real source costs about as much
  as analysing a DSL kernel;
* **the candidate → confirmed funnel** — static candidates per module,
  how many the lifted program dynamically confirms, and the recall /
  precision this buys against the ``REPRO_EXPECT`` ground truth:
  recall 1.0 (every annotated bug is an active candidate) and every
  ``confirmable`` bug manifests in the lifted program, while fixed
  variants explore clean.
"""

import json
import os
from pathlib import Path
from time import perf_counter

from repro.static.lift import confirm
from repro.static.pysource import annotation_matches, load_corpus

CORPUS = Path(__file__).resolve().parent.parent / "examples" / "realworld"


def collect():
    # Re-run the frontend per module to time it (load_corpus already
    # parsed once; the re-parse is the number we are measuring).
    from repro.static.pysource import load_source

    rows = []
    for module in load_corpus(CORPUS):
        start = perf_counter()
        load_source(module.path)
        frontend_wall = perf_counter() - start

        # One static pass and one search: the bugs are judged against
        # confirm's per-candidate outcomes, as `repro static --source`
        # judges them.
        outcome = confirm(module.summary, max_schedules=800)
        matched = [
            [o for o in outcome.outcomes if annotation_matches(bug, o)]
            for bug in module.bugs
        ]
        recalled = sum(1 for found in matched if found)
        manifested = sum(
            1 for bug, found in zip(module.bugs, matched)
            if bug.confirmable and any(o.confirmed for o in found)
        )
        rows.append({
            "module": module.name,
            "fixed": module.is_fixed,
            "frontend_wall_seconds": frontend_wall,
            "confirm_wall_seconds": outcome.wall_seconds,
            "candidates": len(outcome.outcomes),
            "confirmed": len(outcome.confirmed),
            "annotated": len(module.bugs),
            "recalled": recalled,
            "confirmable": sum(1 for b in module.bugs if b.confirmable),
            "manifested": manifested,
            "clean": outcome.clean,
            "statuses": outcome.statuses,
        })
    return rows


def record_trajectory(rows):
    path = Path(os.environ.get("REPRO_BENCH_OUT", "BENCH_pysource.json"))
    candidates = sum(r["candidates"] for r in rows)
    confirmed = sum(r["confirmed"] for r in rows)
    annotated = sum(r["annotated"] for r in rows)
    recalled = sum(r["recalled"] for r in rows)
    payload = {
        "bench": "pysource",
        "funnel": {
            "modules": len(rows),
            "static_candidates": candidates,
            "dynamically_confirmed": confirmed,
            "annotated_bugs": annotated,
            "recalled_bugs": recalled,
            "recall": (recalled / annotated) if annotated else 1.0,
            "precision": (confirmed / candidates) if candidates else 1.0,
        },
        "rows": rows,
    }
    path.write_text(json.dumps(payload, indent=2))
    return path


def test_frontend_cheap_and_funnel_sound(benchmark):
    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    out = record_trajectory(rows)
    print()
    print(f"  {'module':32s} {'frontend':>10s} {'cand':>5s} "
          f"{'conf':>5s} {'recall':>7s}")
    for r in rows:
        recall = (
            f"{r['recalled']}/{r['annotated']}" if r["annotated"] else "—"
        )
        print(
            f"  {r['module']:32s} "
            f"{r['frontend_wall_seconds'] * 1e3:>8.2f}ms "
            f"{r['candidates']:>5d} {r['confirmed']:>5d} {recall:>7s}"
        )
    print(f"  trajectory written to {out}")

    # Recall 1.0 on the ground truth: every annotated bug is a static
    # candidate, and every confirmable one manifests when lifted.
    assert all(r["recalled"] == r["annotated"] for r in rows), [
        r["module"] for r in rows if r["recalled"] != r["annotated"]
    ]
    assert all(r["manifested"] == r["confirmable"] for r in rows), [
        r["module"] for r in rows if r["manifested"] != r["confirmable"]
    ]
    # Fixed variants verify clean; buggy modules never do.
    assert all(r["clean"] for r in rows if r["fixed"]), [
        r["module"] for r in rows if r["fixed"] and not r["clean"]
    ]

    # Economics: the frontend is a milliseconds-per-module analysis.
    slowest = max(r["frontend_wall_seconds"] for r in rows)
    assert slowest < 0.25, slowest
