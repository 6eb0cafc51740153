"""Machine-speed references, timed between verdicts, to scale times by.

On a shared virtual machine the CPU speed one process sees drifts by up
to 2x within seconds (a fixed loop read 45-84 ms within one 40-second
stretch), and process CPU time drifts with it.  So every time the
benchmark reports is *scaled*: multiplied by a reference's nominal time
over the time it took around that moment, i.e. expressed as it would
read on a machine where the reference takes its nominal time.  The
references are the benchmark's own code and call nothing in ``src/``: a
change to the program moves the scaled times, a change in machine speed
largely does not.  Raw (unscaled) figures go on the ``STAMP`` line.

Two references, each shaped like the work it stands for:

* :class:`Loop` — interpreter work (dicts, lists, small objects, calls),
  for the in-process explorations;
* :class:`Echo` — JSON-lines round trips to an asyncio server process
  over a Unix socket, for ``repro serve``, whose cached answers are
  mostly protocol, keying and process switches.

All processes of a run share one CPU (``pin``), so the reference runs
where the work runs.
"""

from __future__ import annotations

import bisect
import json
import os
import socket
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import List

#: Least seconds between two samples of the reference during a run.
EVERY_S = 0.2


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


class Loop:
    """Interpreter work of the program's kind, timed in this process."""

    #: Seconds the loop takes on the reference machine.
    nominal_s = 0.004

    def __call__(self) -> float:
        began = perf_counter()
        table = {}
        nodes: List[_Node] = []
        total = 0
        for i in range(3000):
            key = i % 613
            table[key] = table.get(key, 0) + i
            nodes.append(_Node(key, i))
            if len(nodes) > 48:
                total += sum(node.value for node in nodes if node.key & 1)
                nodes.clear()
            total += len(str(i)) + (hash((key, i)) & 7)
        return perf_counter() - began


class Echo:
    """Round trips to an ``echo.py`` server process, timed from this one."""

    #: Seconds the round trips take on the reference machine.
    nominal_s = 0.002
    ROUND_TRIPS = 15

    def __init__(self, directory: Path):
        path = directory / "echo.sock"
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("echo.py")), str(path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            if self.proc.stdout.readline().strip() != "READY":
                raise RuntimeError("echo.py did not start")
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.settimeout(30.0)
            self.sock.connect(str(path))
        except BaseException:
            self._stop()
            raise
        self.reader = self.sock.makefile("rb")
        self.jobs = [
            json.dumps({"op": "submit", "kind": "check", "kernel": f"k{i % 5}",
                        "options": {"max_schedules": 200 + i}}).encode() + b"\n"
            for i in range(self.ROUND_TRIPS)
        ]

    def __call__(self) -> float:
        began = perf_counter()
        for job in self.jobs:
            self.sock.sendall(job)
            if not json.loads(self.reader.readline()).get("ok"):
                raise RuntimeError("echo.py answered badly")
        return perf_counter() - began

    def _stop(self) -> None:
        self.proc.stdin.close()  # echo.py exits when its input closes
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()
        self._stop()


def pin() -> None:
    """Run this process, and every process it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedLog:
    """Samples of one reference over a run, to scale times by."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.times: List[float] = []
        self.durations: List[float] = []
        #: Seconds spent in the reference, so throughput can leave them out.
        self.spent = 0.0
        for _ in range(3):  # the first calls warm the reference up
            reference()

    def sample(self) -> None:
        began = perf_counter()
        self.durations.append(self.reference())
        self.times.append(began)
        self.spent += perf_counter() - began

    def due(self) -> None:
        """Sample when ``EVERY_S`` passed since the last sample."""
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale(self, at: float) -> float:
        """Factor for a time measured at ``at``: the nominal time over the
        median of the two samples before it and the two after it."""
        index = bisect.bisect(self.times, at)
        window = self.durations[max(0, index - 2):index + 2]
        return self.reference.nominal_s / statistics.median(window)

    def scale_now(self, count: int) -> float:
        """Factor from ``count`` fresh samples, for a timing about to start."""
        for _ in range(count):
            self.sample()
        return self.reference.nominal_s / statistics.median(self.durations[-count:])
