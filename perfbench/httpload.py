"""A minimal HTTP/1.1 keep-alive client and an open-loop load generator.

Kept in the benchmark, apart from ``repro.service.client``, so that no
change to the program under test can move the load generator.
"""

from __future__ import annotations

import asyncio
import json
import time


class Connection:
    """One keep-alive connection; one request in flight at a time."""

    def __init__(self, reader, writer, host: str) -> None:
        self._reader = reader
        self._writer = writer
        self._host = host

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host)

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("ascii") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, await self._reader.readexactly(length)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:
            pass


async def get_json(host: str, port: int, path: str):
    connection = await Connection.open(host, port)
    try:
        status, payload = await connection.request("GET", path)
    finally:
        await connection.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(payload)


async def closed_loop(host: str, port: int, bodies, connections: int) -> list:
    """Send every body once, ``connections`` callers each waiting for replies."""
    pending = list(enumerate(bodies))
    pending.reverse()
    results = []

    async def caller() -> None:
        connection = await Connection.open(host, port)
        try:
            while pending:
                number, body = pending.pop()
                results.append((number, *await connection.request("POST", "/query", body)))
        finally:
            await connection.close()

    await asyncio.gather(*(caller() for _ in range(connections)))
    return results


async def open_loop(host: str, port: int, bodies, offsets, connections: int):
    """Send ``bodies[i]`` when ``offsets[i]`` seconds have passed, whatever
    the replies do.  A request waits for a free connection when all are busy.

    Returns ``(records, (start, end))`` with one record per request:
    ``(number, due, sent, done, status, payload)`` in ``perf_counter`` time.
    """
    queue: asyncio.Queue = asyncio.Queue()
    records = []
    opened = [await Connection.open(host, port) for _ in range(connections)]

    async def sender(connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            number, due = item
            sent = time.perf_counter()
            try:
                status, payload = await connection.request("POST", "/query", bodies[number])
            except (OSError, ValueError, asyncio.IncompleteReadError) as error:
                status, payload = None, repr(error).encode()
            records.append((number, due, sent, time.perf_counter(), status, payload))

    tasks = [asyncio.create_task(sender(connection)) for connection in opened]
    start = time.perf_counter()
    try:
        for number, offset in enumerate(offsets):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((number, due))
        for _ in opened:
            queue.put_nowait(None)
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        for connection in opened:
            await connection.close()
    return records, (start, time.perf_counter())
