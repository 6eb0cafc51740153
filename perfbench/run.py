"""Time-to-verdict benchmark of the repository, on two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload explore_verify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40   # table

Workloads (``BENCHMARK.json`` records why each exists):

* ``explore_verify`` — every kernel's buggy and fixed program and a
  seeded band of generated programs, each through plain DFS, DPOR, sleep
  sets, memoization and the streaming detector pipeline;
* ``service_mix`` — ``repro serve`` as it starts by default, driven by
  one closed-loop client over a seeded job stream.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (spans recorded by :mod:`tracer` from outside the program).  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every verdict is checked against the stored
expected answers; a wrong, raised, refused or timed-out verdict counts as
failed.  The benchmark exits non-zero, printing no result, when the
repository sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("explore_verify", "service_mix")
#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Samples of the speed reference taken before each set-up (not after: the
#: process under test goes on working once ready, and would share the CPU).
SETUP_SPEED_SAMPLES = 4
#: Jobs per side of a traced ``service_mix`` run (a fixed stream prefix:
#: two rounds of fresh jobs with their re-submissions).
TRACE_JOBS = 3200
#: Verdicts after which ``service_mix`` reads the server tree's peak RSS
#: (two rounds, which a slow machine still reaches): the server keeps every
#: job record, so a reading at the end would grow with the machine's speed.
RSS_VERDICTS = 3200
#: Longest the stream may get; a run consumes a prefix of it.
STREAM_LENGTH = 40000
#: Per-request client timeout, and the bound on any one child process.
REQUEST_TIMEOUT_S = 60.0
CHILD_TIMEOUT_S = 170.0
WORK_DIR = Path(".perfbench-work")

sys.path.insert(0, str(HERE))
from corpus import (  # noqa: E402
    SERVICE_REPEATS, load_expected, realworld_modules, repro_expect,
    service_round, service_stream, service_verdict_ok,
)
from layers import layer_metrics  # noqa: E402
from speed import Echo, Loop, SpeedLog, pin  # noqa: E402


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    # Fixed hash seed: set iteration order, and so every traced count,
    # repeats exactly between runs.
    env["PYTHONHASHSEED"] = "0"
    return env


def stamp(args: argparse.Namespace, counts: Dict[str, int]) -> Dict[str, Any]:
    """Provenance of one result: machine, interpreter, code and inputs."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_commit": commit,
        "source_sha256": digest.hexdigest(), **counts,
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


# -- in-process workloads ----------------------------------------------------


class Verifier:
    """One ``inproc.py`` child: the process under test of an in-process run."""

    def __init__(self, args: argparse.Namespace, setup_only: bool = False):
        command = [
            sys.executable, str(HERE / "inproc.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--setup-only"] if setup_only else [])
        self.began = perf_counter()
        self.proc = subprocess.Popen(
            command, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True,
        )
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()

    def expect(self, word: str) -> float:
        """Wait for the child's ``word`` line; returns seconds since launch."""
        line = self.proc.stdout.readline()
        if line.strip() != word:
            self.finish()
            raise RuntimeError(f"inproc.py said {line!r}, not {word}")
        return perf_counter() - self.began

    def finish(self) -> Dict[str, Any]:
        """Wait for the child to exit; returns its JSON result."""
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.watchdog.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"inproc.py failed (exit {self.proc.returncode})")
        return json.loads(rest.strip().splitlines()[-1])


def run_inproc(args: argparse.Namespace) -> Dict[str, Any]:
    if args.trace:
        # One process, fixed work: the counts repeat exactly for a seed.
        verifier = Verifier(args)
        verifier.expect("READY")
        out = verifier.finish()
        error_rate = out["failed"] / out["attempted"]
        return {
            "attempted": out["attempted"], "failed": out["failed"],
            "failures": out["failures"], "error_rate": error_rate,
            "stamp": {"traced_passes": out["passes"]},
            "metrics": layer_metrics(
                out["spans"], out["wall_s"], out["untraced_wall_s"],
                out["setup"], error_rate,
            ),
        }

    speed, setups = SpeedLog(Loop()), []
    for _ in range(SETUP_SAMPLES - 1):
        scale = speed.scale_now(SETUP_SPEED_SAMPLES)
        verifier = Verifier(args, setup_only=True)
        setups.append(verifier.expect("READY") * scale)
        verifier.finish()
    # One process under test: on a 2-core machine a second verifier beside
    # it slowed both and made runs spread wider.
    scale = speed.scale_now(SETUP_SPEED_SAMPLES)
    verifier = Verifier(args)
    setups.append(verifier.expect("READY") * scale)
    out = verifier.finish()
    # Each task's latency is its median over the run's passes, so a stretch
    # of the run on a slowed-down machine moves it little.
    typical = [statistics.median(values) for values in out["samples"].values()]
    cuts = statistics.quantiles(typical, n=100, method="inclusive")
    timed = sum(len(values) for values in out["samples"].values())
    return {
        "attempted": out["attempted"], "failed": out["failed"],
        "failures": out["failures"],
        "error_rate": out["failed"] / out["attempted"],
        "stamp": {
            "setup_samples": SETUP_SAMPLES, "tasks": len(typical),
            "timed_verdicts": timed,
            "raw_verdicts_per_s": timed / out["raw_s"],
            "speed_samples": out["speed_samples"],
            "speed_spent_s": out["speed_spent_s"],
        },
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            # A typical pass takes the sum of the tasks' median latencies.
            "verdicts_per_s": metric(len(typical) / sum(typical), "1/s"),
            "verdict_p50_ms": metric(cuts[49] * 1000.0, "ms"),
            "verdict_p90_ms": metric(cuts[89] * 1000.0, "ms"),
            "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
        },
    }


# -- service_mix ---------------------------------------------------------------


class Connection:
    """One persistent client connection speaking the JSON-lines protocol."""

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(REQUEST_TIMEOUT_S)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        line = self.reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _children(pid: int) -> List[int]:
    """Direct children of ``pid`` (the service's fork workers)."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry.name))
    return found


def _peak_rss_tree_mb(pid: int) -> float:
    """Largest VmHWM among ``pid`` and its direct children."""
    peak = 0
    for each in [pid] + _children(pid):
        try:
            for line in Path(f"/proc/{each}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


class Server:
    """One ``repro serve`` process with a fresh cache in its own directory."""

    def __init__(self, directory: Path, spans_path: Optional[Path] = None):
        directory.mkdir(parents=True)
        self.directory = directory
        self.socket_path = str(directory / ".repro-service.sock")
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(spans_path.resolve())]
        self.began = perf_counter()
        self.log = open(directory / "serve.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=directory, env=child_env(),
            stdout=self.log, stderr=subprocess.STDOUT,
        )

    def wait_ready(self) -> float:
        """Seconds from launch to the first answered ``ping``."""
        while perf_counter() - self.began < CHILD_TIMEOUT_S:
            if self.proc.poll() is not None:
                break
            try:
                connection = Connection(self.socket_path)
            except OSError:
                sleep(0.002)
                continue
            try:
                if connection.request({"op": "ping"}).get("ok"):
                    return perf_counter() - self.began
            finally:
                connection.close()
        raise RuntimeError(f"repro serve did not answer (see {self.directory})")

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        connection = Connection(self.socket_path)
        try:
            return connection.request(payload)
        finally:
            connection.close()

    def stop(self) -> None:
        """Shut the service down; kill it and its workers if it will not go."""
        try:
            if self.proc.poll() is None:
                self.request({"op": "shutdown"})
            self.proc.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            workers = _children(self.proc.pid)
            self.proc.kill()
            self.proc.wait()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            deadline = perf_counter() + 10
            while perf_counter() < deadline and any(
                Path(f"/proc/{pid}").exists() for pid in workers
            ):
                sleep(0.05)
        finally:
            self.log.close()


class StreamDriver:
    """One closed-loop client over a seeded job stream.

    One client: with two, the server, both clients' jobs and the fleet
    filled a 2-core machine and runs spread wider.
    """

    def __init__(self, server: Server, stream: List[Dict[str, Any]],
                 expected: Dict[str, Any], expects: Dict[str, Dict[str, Any]],
                 rss_after: Optional[int] = None,
                 speed: Optional[SpeedLog] = None):
        self.server = server
        self.stream = stream
        self.expected = expected
        self.expects = expects
        #: Per verdict, in arrival order: when it was submitted, its
        #: latency, and the client's wall time since the previous verdict
        #: less the time spent sampling ``speed``'s reference loop.
        self.starts: List[float] = []
        self.latencies: List[float] = []
        self.gaps: List[float] = []
        self.protocol_s = 0.0
        self.failures: List[str] = []
        #: Peak RSS of the server tree once ``rss_after`` verdicts arrived.
        self.rss_after = rss_after
        self.peak_rss_mb: Optional[float] = None
        self.speed = speed

    def _submit(self, connection: Connection, job: Dict[str, Any]) -> Connection:
        """One verdict; returns the connection to go on with."""
        began = perf_counter()
        try:
            response = connection.request({"op": "submit", "wait": True, **job})
        except (OSError, ValueError) as exc:
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            connection.close()
            connection = Connection(self.server.socket_path)
        latency = perf_counter() - began
        record = response.get("job") or {}
        if not (
            response.get("ok") is True and record.get("state") == "done"
            and service_verdict_ok(job, record.get("verdict"), self.expected, self.expects)
        ):
            self.failures.append(
                f"{job['kind']} {job['kernel']}: {response.get('error') or 'wrong verdict'}"
            )
        self.starts.append(began)
        self.latencies.append(latency)
        self.protocol_s += latency - (record.get("wall_seconds") or 0.0)
        if len(self.latencies) == self.rss_after:
            self.peak_rss_mb = _peak_rss_tree_mb(self.server.proc.pid)
        return connection

    def run(self, limit: int, seconds: Optional[float] = None) -> float:
        """Drive until ``limit`` jobs or ``seconds``; returns the wall time."""
        began = perf_counter()
        deadline = began + seconds if seconds is not None else None
        connection = Connection(self.server.socket_path)
        try:
            last = began
            for job in self.stream[:limit]:
                if deadline is not None and perf_counter() >= deadline:
                    break
                sampled = 0.0
                if self.speed is not None:
                    before = self.speed.spent
                    self.speed.due()
                    sampled = self.speed.spent - before
                connection = self._submit(connection, job)
                now = perf_counter()
                self.gaps.append(now - last - sampled)
                last = now
        finally:
            connection.close()
        if self.speed is not None:
            self.speed.sample()  # so the last verdicts have samples after them
        return perf_counter() - began


def _block_metrics(driver: StreamDriver, block: int) -> Dict[str, Dict[str, Any]]:
    """Scaled throughput and latency percentiles, each the median over blocks.

    A block is ``block`` consecutive verdicts; a run too short for one
    whole block counts as one.  Each verdict's latency and gap are scaled
    by the reference loop around its submission.
    """
    scales = [driver.speed.scale(at) for at in driver.starts]
    latencies = [value * scale for value, scale in zip(driver.latencies, scales)]
    gaps = [value * scale for value, scale in zip(driver.gaps, scales)]
    bounds = list(range(0, len(latencies) - block + 1, block)) or [0]
    rates, p50s, p90s = [], [], []
    for first in bounds:
        last = min(first + block, len(latencies))
        rates.append((last - first) / sum(gaps[first:last]))
        cuts = statistics.quantiles(latencies[first:last], n=100, method="inclusive")
        p50s.append(cuts[49])
        p90s.append(cuts[89])
    return {
        "verdicts_per_s": metric(statistics.median(rates), "1/s"),
        "verdict_p50_ms": metric(statistics.median(p50s) * 1000.0, "ms"),
        "verdict_p90_ms": metric(statistics.median(p90s) * 1000.0, "ms"),
    }


def _warm_and_drive(server: Server, stream: List[Dict[str, Any]], limit: int,
                    seconds: Optional[float], expected: Dict[str, Any],
                    expects: Dict[str, Dict[str, Any]],
                    speed: Optional[SpeedLog] = None) -> Tuple[List[StreamDriver], float]:
    """Warm the fleet up, then drive the stream; returns (drivers, wall time).

    The first submissions fork the worker fleet.  The warm-up jobs carry a
    budget outside the stream's, so their keys never recur in it.
    """
    warm = StreamDriver(server, [
        {"kind": "static", "kernel": name, "options": {"max_schedules": 1}}
        for name in sorted(expected["kernels"])[:2]
    ], expected, expects)
    warm.run(2)
    driver = StreamDriver(server, stream, expected, expects, RSS_VERDICTS, speed)
    wall = driver.run(limit, seconds)
    return [warm, driver], wall


def _tally(drivers: List[StreamDriver]) -> Dict[str, Any]:
    attempted = sum(len(d.latencies) for d in drivers)
    failed = sum(len(d.failures) for d in drivers)
    return {
        "attempted": attempted, "failed": failed,
        "failures": [f for d in drivers for f in d.failures][:10],
        "error_rate": failed / attempted,
    }


def run_service(args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    built = perf_counter()
    expected = load_expected()
    modules = realworld_modules(ROOT)
    expects = {str(path): repro_expect(path) for path in modules}
    stream = service_stream(
        args.seed, STREAM_LENGTH, sorted(expected["kernels"]), sorted(expects),
    )
    corpus_s = perf_counter() - built

    if args.trace:
        walls, drivers = [], []
        spans_path = work / "spans.json"
        for traced in (False, True):
            server = Server(work / ("traced" if traced else "untraced"),
                            spans_path if traced else None)
            try:
                server.wait_ready()
                side, wall = _warm_and_drive(
                    server, stream, TRACE_JOBS, None, expected, expects,
                )
                status = server.request({"op": "status"})
            finally:
                server.stop()
            walls.append(wall)
            drivers.extend(side)
        dumped = json.loads(spans_path.read_text())
        driver = drivers[-1]
        result = _tally(drivers)
        result["metrics"] = layer_metrics(
            dumped["spans"], walls[1], walls[0],
            {"import_s": dumped["import_s"], "corpus_s": corpus_s},
            result["error_rate"],
            service={
                "protocol_s": driver.protocol_s,
                "latency_s": sum(driver.latencies),
                "coalesced": status["totals"]["coalesced"],
                "failed": status["totals"]["failed"],
            },
        )
        result["stamp"] = {"traced_jobs": TRACE_JOBS}
        return result

    work.mkdir(parents=True)
    echo = Echo(work)
    try:
        speed, setups = SpeedLog(echo), []
        for index in range(SETUP_SAMPLES - 1):
            scale = speed.scale_now(SETUP_SPEED_SAMPLES)
            server = Server(work / f"setup{index}")
            try:
                setups.append(server.wait_ready() * scale)
            finally:
                server.stop()
        scale = speed.scale_now(SETUP_SPEED_SAMPLES)
        server = Server(work / "main")
        try:
            setups.append(server.wait_ready() * scale)
            drivers, elapsed = _warm_and_drive(
                server, stream, len(stream), args.seconds, expected, expects, speed,
            )
            peak_rss = drivers[-1].peak_rss_mb or _peak_rss_tree_mb(server.proc.pid)
        finally:
            server.stop()
    finally:
        echo.close()
    # One block is one round of fresh jobs with their re-submissions, so
    # every block carries the same job mix.
    block = len(service_round(sorted(expected["kernels"]), sorted(expects))) * (
        1 + SERVICE_REPEATS
    )
    result = _tally(drivers)
    result["metrics"] = {
        "setup_s": metric(statistics.median(setups), "s"),
        **_block_metrics(drivers[-1], block),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }
    result["stamp"] = {
        "setup_samples": SETUP_SAMPLES, "clients": 1,
        "timed_verdicts": len(drivers[-1].latencies), "block": block,
        "elapsed_s": elapsed,
        "raw_verdicts_per_s": len(drivers[-1].gaps) / sum(drivers[-1].gaps),
        "speed_samples": len(speed.durations), "speed_spent_s": speed.spent,
    }
    return result


# -- entry point ---------------------------------------------------------------


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    if args.workload != "service_mix":
        return run_inproc(args)
    work = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run_service(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "examples" / "realworld"
    ).is_dir():
        print(f"no repository sources under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # Every process of the run on one CPU, so the reference loop of
    # ``speed.py`` runs where the verdicts run.
    pin()

    if args.workload == "all":
        print(f"{'workload':16s} {'metric':16s} {'value':>14s} unit")
        for workload in WORKLOADS:
            args.workload = workload
            result = run_workload(args)
            rows = dict(result["metrics"])
            rows["error_rate"] = metric(result["error_rate"], "share")
            for name, entry in rows.items():
                print(f"{workload:16s} {name:16s} {entry['value']:14.6f} {entry['unit']}")
        return 0

    result = run_workload(args)
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("STAMP " + json.dumps(stamp(args, result["stamp"])))
    print("ERROR_RATE " + json.dumps(metric(result["error_rate"], "share")))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
