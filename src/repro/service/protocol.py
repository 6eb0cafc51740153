"""The wire protocol: newline-delimited JSON over a local socket.

One request per line, one response per line, UTF-8 JSON both ways — an
"HTTP-ish" local protocol that ``nc``/``socat`` can speak and every
language can client in ten lines.  The service listens on a Unix domain
socket by default (filesystem permissions are the auth model) or on a
loopback TCP port where Unix sockets are unavailable.

Requests are ``{"op": <name>, ...}``; responses always carry ``"ok"``:

========== ============================================ =========================
op         request fields                               response (``ok: true``)
========== ============================================ =========================
``ping``   —                                            ``service``, ``uptime_seconds``
``submit`` ``kind``, ``kernel``, ``options?``,          ``job`` (its carrier job —
           ``wait?`` (bool), ``timeout?`` (s)           final when ``wait``/cached)
``result`` ``id``                                       ``job`` (non-blocking)
``wait``   ``id``, ``timeout?`` (s)                     ``job`` (after completion)
``status`` —                                            the dashboard dict
``shutdown`` —                                          acknowledgement; server stops
========== ============================================ =========================

Errors come back as ``{"ok": false, "error": "...", "retryable": bool}``
(``retryable`` marks admission-control refusals).  A connection may pipe
any number of requests; the CLI clients use one connection per command.
"""

from __future__ import annotations

import asyncio
import json
import socket
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.service.dashboard import Dashboard
from repro.service.jobs import JobError
from repro.service.queue import AdmissionError, ReproService

__all__ = [
    "SCHEMA",
    "ServiceClient",
    "decode",
    "encode",
    "request_once",
    "serve",
    "start_server",
]

SCHEMA = "repro.service/v2"

#: Generous per-line cap: a request is a few hundred bytes, a response a
#: few hundred KB at worst (a long jobs table); 8 MiB refuses abuse.
MAX_LINE = 8 * 1024 * 1024


def encode(payload: Dict[str, Any]) -> bytes:
    """One JSON line, ready to write."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one request/response line (raises ``JobError`` on garbage)."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise JobError("malformed JSON line") from None
    if not isinstance(payload, dict):
        raise JobError("request must be a JSON object")
    return payload


# -- server ------------------------------------------------------------------


async def _dispatch(
    service: ReproService, request: Dict[str, Any], stop: asyncio.Event
) -> Dict[str, Any]:
    """Execute one request against the service; always returns a response."""
    op = request.get("op")
    if op == "ping":
        return {
            "ok": True,
            "service": SCHEMA,
            "uptime_seconds": service.uptime_seconds(),
        }
    if op == "submit":
        kernel = request.get("kernel")
        if not isinstance(kernel, str):
            return {"ok": False, "error": "submit needs a 'kernel' name"}
        job = service.submit(
            request.get("kind", "detect"), kernel, request.get("options")
        )
        if request.get("wait") and not job.finished:
            try:
                await service.wait(job.id, timeout=request.get("timeout"))
            except asyncio.TimeoutError:
                return {
                    "ok": False,
                    "error": f"timed out waiting for job {job.id}",
                    "job": job.to_dict(),
                }
        return {"ok": True, "job": job.to_dict()}
    if op == "result":
        return {"ok": True, "job": service.get_job(request["id"]).to_dict()}
    if op == "wait":
        try:
            job = await service.wait(
                request["id"], timeout=request.get("timeout")
            )
        except asyncio.TimeoutError:
            return {
                "ok": False,
                "error": f"timed out waiting for job {request['id']}",
            }
        return {"ok": True, "job": job.to_dict()}
    if op == "status":
        return {"ok": True, **Dashboard(service).as_dict()}
    if op == "shutdown":
        stop.set()
        return {"ok": True, "stopping": True}
    return {"ok": False, "error": f"unknown op {op!r}"}


async def _handle_connection(
    service: ReproService,
    stop: asyncio.Event,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client connection: a request/response loop until EOF."""
    try:
        while True:
            try:
                line = await reader.readline()
            except (ValueError, ConnectionError):
                break  # over-long line or peer reset
            if not line:
                break
            if not line.strip():
                continue
            try:
                request = decode(line)
                response = await _dispatch(service, request, stop)
            except AdmissionError as exc:
                response = {"ok": False, "error": str(exc), "retryable": True}
            except (JobError, KeyError) as exc:
                response = {"ok": False, "error": str(exc)}
            writer.write(encode(response))
            await writer.drain()
    except asyncio.CancelledError:
        pass  # server shutting down while we awaited the next request
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass


async def start_server(
    service: ReproService,
    socket_path: Optional[Union[str, Path]] = None,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
) -> "tuple[asyncio.AbstractServer, asyncio.Event]":
    """Bind the protocol onto ``service``; returns (server, stop event).

    Exactly one of ``socket_path`` / ``port`` selects the transport.
    The stop event is set by a ``shutdown`` request (or by the caller)
    to end :func:`serve`'s lifetime.
    """
    if (socket_path is None) == (port is None):
        raise ValueError("pass exactly one of socket_path or port")
    stop = asyncio.Event()

    async def handler(reader, writer):
        await _handle_connection(service, stop, reader, writer)

    if socket_path is not None:
        path = Path(socket_path)
        if path.exists():
            path.unlink()  # stale socket from an unclean previous exit
        server = await asyncio.start_unix_server(
            handler, path=str(path), limit=MAX_LINE
        )
    else:
        server = await asyncio.start_server(
            handler, host=host, port=port, limit=MAX_LINE
        )
    return server, stop


async def serve(
    service: ReproService,
    socket_path: Optional[Union[str, Path]] = None,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
) -> None:
    """Run the service until a ``shutdown`` request arrives.

    The whole ``repro serve`` lifetime: start the fleet and scheduler,
    bind the socket, serve requests, then tear everything down (and
    unlink the Unix socket) on the way out.
    """
    await service.start()
    server, stop = await start_server(
        service, socket_path=socket_path, host=host, port=port
    )
    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        await service.close()
        if socket_path is not None:
            try:
                Path(socket_path).unlink()
            except OSError:
                pass


# -- clients -----------------------------------------------------------------


class ServiceClient:
    """Blocking one-connection-per-request client (the CLI's side).

    Deliberately synchronous and dependency-free: ``repro submit`` and
    ``repro status`` are short-lived processes that open a socket, write
    one line, read one line, and exit.
    """

    def __init__(
        self,
        socket_path: Optional[Union[str, Path]] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        timeout: Optional[float] = None,
    ):
        if (socket_path is None) == (port is None):
            raise ValueError("pass exactly one of socket_path or port")
        self.socket_path = str(socket_path) if socket_path is not None else None
        self.host = host
        self.port = port
        self.timeout = timeout

    def _connect(self) -> socket.socket:
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
            return sock
        assert self.port is not None
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request and return the decoded response."""
        payload = {"op": op, **fields}
        with self._connect() as sock:
            sock.sendall(encode(payload))
            with sock.makefile("rb") as fh:
                line = fh.readline(MAX_LINE)
        if not line:
            raise ConnectionError("service closed the connection mid-request")
        return decode(line)

    # Convenience wrappers mirroring the op table above.

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def submit(
        self,
        kernel: str,
        kind: str = "detect",
        options: Optional[Dict[str, Any]] = None,
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        return self.request(
            "submit", kernel=kernel, kind=kind, options=options or {},
            wait=wait, timeout=timeout,
        )

    def status(self) -> Dict[str, Any]:
        return self.request("status")

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")


async def request_once(
    payload: Dict[str, Any],
    socket_path: Optional[Union[str, Path]] = None,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
) -> Dict[str, Any]:
    """Async one-shot client (used by tests and embedded consumers)."""
    if (socket_path is None) == (port is None):
        raise ValueError("pass exactly one of socket_path or port")
    if socket_path is not None:
        reader, writer = await asyncio.open_unix_connection(
            str(socket_path), limit=MAX_LINE
        )
    else:
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE
        )
    try:
        writer.write(encode(payload))
        await writer.drain()
        line = await reader.readline()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    if not line:
        raise ConnectionError("service closed the connection mid-request")
    return decode(line)
