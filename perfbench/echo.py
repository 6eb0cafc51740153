"""Echo server behind :class:`speed.Echo`: the service-shaped reference.

Run as ``python3 perfbench/echo.py SOCKET``.  It answers JSON lines on a
Unix socket the way ``repro serve`` answers a cached submission — parse,
key the job by a sha256 of its canonical JSON, look the key up, reply
with a JSON record — using only the standard library, so a change to the
program does not change it.  Prints ``READY`` once listening; exits when
its standard input closes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys


async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    records = {}
    try:
        while True:
            line = await reader.readline()
            if not line:
                return
            job = json.loads(line)
            key = hashlib.sha256(json.dumps(job, sort_keys=True).encode()).hexdigest()
            record = records.setdefault(key, {"key": key, "state": "done", "job": job})
            writer.write(json.dumps({"ok": True, "job": record}).encode() + b"\n")
            await writer.drain()
    finally:
        writer.close()


async def main(path: str) -> None:
    server = await asyncio.start_unix_server(handle, path=path)
    print("READY", flush=True)
    loop = asyncio.get_running_loop()
    async with server:
        # Standard input closing is the signal to stop.
        await loop.run_in_executor(None, sys.stdin.read)


if __name__ == "__main__":
    asyncio.run(main(sys.argv[1]))
