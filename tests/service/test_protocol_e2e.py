"""End-to-end over the wire: serve, submit every kernel, dedup, shutdown.

The ISSUE's acceptance test: a live ``serve`` loop on a Unix socket
takes *concurrent* submissions of all 13 bundled kernels, returns
verdicts identical to the one-shot ``repro detect`` path for each, and
answers duplicate submissions from the persistent cache without
spawning a single new engine run.  Protocol-level error handling
(malformed lines, unknown ops/kernels/options, result/wait) rides along
on the same live service.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.detectors import DetectorSuite
from repro.kernels import get_kernel, kernel_names
from repro.service import ReproService, ResultCache, WorkerFleet
from repro.service.protocol import SCHEMA, encode, request_once, serve

SUBMIT_TIMEOUT = 300.0


async def _wait_for_socket(path, attempts=500):
    for _ in range(attempts):
        if path.exists():
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"service socket {path} never appeared")


async def _raw_lines(sock_path, *lines):
    """Write raw bytes (malformed on purpose) and collect one response each."""
    reader, writer = await asyncio.open_unix_connection(str(sock_path))
    responses = []
    try:
        for line in lines:
            writer.write(line)
            await writer.drain()
            from repro.service.protocol import decode

            responses.append(decode(await reader.readline()))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return responses


def _expected_detect_verdicts(names):
    """The one-shot path, kernel by kernel: find a manifesting trace with
    the same explorer configuration the service's ``detect`` runner uses,
    then run the detector battery on it."""
    expected = {}
    for name in names:
        kernel = get_kernel(name)
        failing = kernel.find_manifestation()
        assert failing is not None, f"{name} never manifested one-shot"
        suite_result = DetectorSuite.for_program(kernel.buggy).analyse(
            failing.trace
        )
        expected[name] = {
            "flagged_by": suite_result.flagged_by(),
            "kinds": sorted(k.value for k in suite_result.kinds_found()),
            "schedule": list(failing.schedule),
        }
    return expected


def test_serve_all_kernels_with_dedup_and_shutdown(tmp_path):
    names = kernel_names()
    assert len(names) == 16

    async def main():
        sock = tmp_path / "svc.sock"
        service = ReproService(
            ResultCache(tmp_path / "cache"), fleet=WorkerFleet(size=4)
        )
        serve_task = asyncio.create_task(serve(service, socket_path=sock))
        await _wait_for_socket(sock)

        ping = await request_once({"op": "ping"}, socket_path=sock)
        assert ping["ok"] and ping["service"] == SCHEMA

        def submit(name):
            return request_once(
                {
                    "op": "submit",
                    "kind": "detect",
                    "kernel": name,
                    "wait": True,
                    "timeout": SUBMIT_TIMEOUT,
                },
                socket_path=sock,
            )

        # Round 1: every kernel at once, straight into the fleet.
        first = await asyncio.gather(*(submit(name) for name in names))
        # Round 2: the same 13 submissions again — all cache.
        second = await asyncio.gather(*(submit(name) for name in names))

        # Errors and secondary ops against the same live service.
        bad_kernel = await request_once(
            {"op": "submit", "kernel": "no_such_kernel"}, socket_path=sock
        )
        bad_option = await request_once(
            {"op": "submit", "kernel": names[0], "options": {"warp": 9}},
            socket_path=sock,
        )
        bad_kind = await request_once(
            {"op": "submit", "kernel": names[0], "kind": "fuzz"},
            socket_path=sock,
        )
        no_kernel_field = await request_once(
            {"op": "submit"}, socket_path=sock
        )
        unknown_op = await request_once({"op": "frobnicate"}, socket_path=sock)
        bad_job = await request_once(
            {"op": "result", "id": "j9999"}, socket_path=sock
        )
        malformed = await _raw_lines(
            sock, b"this is not json\n", b"[1,2,3]\n", b"\n" + encode({"op": "ping"})
        )

        # result/wait on a finished job both return it immediately.
        some_id = first[0]["job"]["id"]
        result_op = await request_once(
            {"op": "result", "id": some_id}, socket_path=sock
        )
        wait_op = await request_once(
            {"op": "wait", "id": some_id, "timeout": 5}, socket_path=sock
        )

        status = await request_once({"op": "status"}, socket_path=sock)
        shutdown = await request_once({"op": "shutdown"}, socket_path=sock)
        await asyncio.wait_for(serve_task, timeout=60)
        assert not sock.exists()  # serve() unlinks its socket on the way out

        return {
            "first": first,
            "second": second,
            "errors": {
                "bad_kernel": bad_kernel,
                "bad_option": bad_option,
                "bad_kind": bad_kind,
                "no_kernel_field": no_kernel_field,
                "unknown_op": unknown_op,
                "bad_job": bad_job,
                "malformed": malformed,
            },
            "result_op": result_op,
            "wait_op": wait_op,
            "status": status,
            "shutdown": shutdown,
        }

    out = asyncio.run(main())

    # -- round 1: fleet verdicts identical to the one-shot detect path ------
    expected = _expected_detect_verdicts(names)
    for name, response in zip(names, out["first"]):
        assert response["ok"], response
        job = response["job"]
        assert job["state"] == "done" and not job["cached"]
        assert job["engine_runs"] >= 1
        verdict = job["verdict"]
        assert verdict["kind"] == "detect"
        assert verdict["manifested"] is True
        assert verdict["flagged_by"] == expected[name]["flagged_by"], name
        assert verdict["kinds"] == expected[name]["kinds"], name
        assert verdict["schedule"] == expected[name]["schedule"], name

    # -- round 2: answered from the persistent cache, zero engine runs ------
    first_by_name = {job["job"]["kernel"]: job["job"] for job in out["first"]}
    for name, response in zip(names, out["second"]):
        job = response["job"]
        assert job["cached"] is True, name
        assert job["state"] == "done"
        assert job["engine_runs"] == 0
        assert job["verdict"] == first_by_name[name]["verdict"], name

    # -- dashboard totals ---------------------------------------------------
    totals = out["status"]["totals"]
    assert totals["submissions"] == 32
    assert totals["completed"] == 32
    assert totals["failed"] == 0
    assert totals["cache_hits"] == 16
    assert totals["dedup_ratio"] == pytest.approx(0.5)
    # Engine runs were paid exactly once per kernel.
    assert totals["engine_runs"] == sum(
        job["engine_runs"] for job in first_by_name.values()
    )
    assert out["status"]["cache"]["entries"] == 16
    assert len(out["status"]["jobs"]) == 32

    # -- protocol errors ----------------------------------------------------
    errors = out["errors"]
    assert not errors["bad_kernel"]["ok"]
    assert "available" in errors["bad_kernel"]["error"]
    assert not errors["bad_option"]["ok"]
    assert "warp" in errors["bad_option"]["error"]
    assert not errors["bad_kind"]["ok"]
    assert "unknown job kind" in errors["bad_kind"]["error"]
    assert not errors["no_kernel_field"]["ok"]
    assert not errors["unknown_op"]["ok"]
    assert "frobnicate" in errors["unknown_op"]["error"]
    assert not errors["bad_job"]["ok"]
    # Malformed lines get an error response but keep the connection alive:
    # the third (valid, after a blank line) request still answers.
    assert not errors["malformed"][0]["ok"]
    assert not errors["malformed"][1]["ok"]
    assert errors["malformed"][2]["ok"]

    assert out["result_op"]["job"]["id"] == out["wait_op"]["job"]["id"]
    assert out["shutdown"] == {"ok": True, "stopping": True}


def test_tcp_transport_roundtrip(tmp_path):
    """The loopback TCP fallback speaks the same protocol."""

    async def main():
        service = ReproService(
            ResultCache(tmp_path / "cache"),
            fleet=WorkerFleet(size=1, pool="none"),
        )
        from repro.service.protocol import start_server

        await service.start()
        server, stop = await start_server(service, port=0)
        port = server.sockets[0].getsockname()[1]
        try:
            ping = await request_once({"op": "ping"}, port=port)
            response = await request_once(
                {
                    "op": "submit",
                    "kind": "static",
                    "kernel": "deadlock_abba",
                    "wait": True,
                    "timeout": SUBMIT_TIMEOUT,
                },
                port=port,
            )
        finally:
            server.close()
            await server.wait_closed()
            await service.close()
        return ping, response

    ping, response = asyncio.run(main())
    assert ping["ok"]
    assert response["ok"]
    assert response["job"]["verdict"]["candidates"] >= 1


def test_start_server_validates_transport_choice(tmp_path):
    async def main():
        from repro.service.protocol import start_server

        service = ReproService(
            ResultCache(tmp_path / "cache"),
            fleet=WorkerFleet(size=1, pool="none"),
        )
        with pytest.raises(ValueError):
            await start_server(service)
        with pytest.raises(ValueError):
            await start_server(
                service, socket_path=tmp_path / "s.sock", port=4567
            )
        await service.close()

    asyncio.run(main())
