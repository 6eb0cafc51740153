"""``repro serve`` with the layer spans of :mod:`tracer` installed.

Usage (``src`` and this directory on ``PYTHONPATH``)::

    python3 perfbench/serve_traced.py SPANS.json [repro serve arguments]

Installs the wrappers before the fork worker fleet exists, runs the same
``serve`` entry point as ``python -m repro serve``, and writes the
server's spans — with every worker job's spans merged in — to
``SPANS.json`` when the service shuts down.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main() -> int:
    spans_path, serve_args = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    from repro.cli import main as repro_main
    import repro.service.protocol  # noqa: F401  (imported by serve anyway)
    import_s = perf_counter() - start

    import tracer

    tracer.install(service=True)
    code = repro_main(["serve", *serve_args])
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.TRACER.dump(), "import_s": import_s}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
