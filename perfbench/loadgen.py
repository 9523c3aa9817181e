"""Open-loop HTTP load over a fixed number of keep-alive connections.

Requests are due on a schedule made before the run.  A generator task
releases each one at its due time into a queue, and ``connections``
sender tasks take them in order.  When every connection is busy, a
request waits in the queue.  Its latency is still timed from when it
was due, so a stalled server also delays the requests behind it.  The
generator's own lateness (release time minus due time) is kept apart
as ``lags``.

Requests may name a conflict key (a dataset).  Writes to a key never
overlap reads or other writes of that key: a request that would waits
for the others to be answered, on its connection, and that wait counts
in its latency too.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import (Awaitable, Callable, Dict, List, Optional, Sequence,
                    Set, Tuple)


@dataclass
class Request:
    """One scheduled request: due ``due_s`` after the run starts."""

    due_s: float
    kind: str  # price | simulate | sweep | delta
    method: str
    path: str
    body: Optional[dict] = None
    #: What a correct answer must contain (deltas: version, edge count).
    expect: Optional[dict] = None


@dataclass
class Sample:
    """One request's outcome, timed from its due time."""

    request: Request
    latency_s: float
    status: int
    body: Optional[dict]
    error: str = ""


@dataclass
class LoadResult:
    samples: List[Optional[Sample]]
    lags: List[float] = field(default_factory=list)
    backlog_max: int = 0
    wall_s: float = 0.0


Sender = Callable[[object, Request], Awaitable[Tuple[int, Optional[dict]]]]


class KeyGate:
    """Readers-writer exclusion per conflict key, writers first.

    A write waits until the key's in-flight requests are answered, and
    reads that arrive while a write waits or runs wait for it.
    """

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers: Dict[str, int] = {}
        self._writing: Set[str] = set()
        self._waiting: Dict[str, int] = {}

    async def acquire(self, key: str, write: bool) -> None:
        async with self._cond:
            if write:
                self._waiting[key] = self._waiting.get(key, 0) + 1
                await self._cond.wait_for(
                    lambda: key not in self._writing
                    and not self._readers.get(key))
                self._waiting[key] -= 1
                self._writing.add(key)
            else:
                await self._cond.wait_for(
                    lambda: key not in self._writing
                    and not self._waiting.get(key))
                self._readers[key] = self._readers.get(key, 0) + 1

    async def release(self, key: str, write: bool) -> None:
        async with self._cond:
            if write:
                self._writing.discard(key)
            else:
                self._readers[key] -= 1
            self._cond.notify_all()


async def run_open_loop(schedule: Sequence[Request], connections: Sequence,
                        send: Sender, drain_timeout_s: float = 60.0,
                        conflict: Callable[[Request], Optional[str]]
                        = lambda request: None) -> LoadResult:
    """Play ``schedule`` through ``send(connection, request)``.

    ``conflict(request)`` names the key a request reads, or writes if it
    is a ``delta`` (None: no key); see :class:`KeyGate`.  Requests still
    unanswered ``drain_timeout_s`` after the last due time are cancelled
    and left as ``None`` samples (failures).
    """
    queue: "asyncio.Queue[Optional[Tuple[int, float]]]" = asyncio.Queue()
    result = LoadResult(samples=[None] * len(schedule))
    gate = KeyGate()
    busy = 0
    start = time.monotonic()

    async def generator() -> None:
        for index, request in enumerate(schedule):
            due = start + request.due_s
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lags.append(time.monotonic() - due)
            queue.put_nowait((index, due))
            result.backlog_max = max(result.backlog_max,
                                     queue.qsize() + busy)
        for _ in connections:
            queue.put_nowait(None)

    async def sender(connection) -> None:
        nonlocal busy
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due = item
            request = schedule[index]
            key = conflict(request)
            write = request.kind == "delta"
            busy += 1
            try:
                if key is not None:
                    await gate.acquire(key, write)
                try:
                    status, body = await send(connection, request)
                    error = ""
                finally:
                    if key is not None:
                        await gate.release(key, write)
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                status, body, error = 0, None, repr(exc)
            finally:
                busy -= 1
            result.samples[index] = Sample(
                request, time.monotonic() - due, status, body, error)

    tasks = [asyncio.ensure_future(generator())] + \
        [asyncio.ensure_future(sender(c)) for c in connections]
    last_due = schedule[-1].due_s if schedule else 0.0
    deadline = last_due + drain_timeout_s
    done, pending = await asyncio.wait(
        tasks, timeout=max(0.0, start + deadline - time.monotonic()))
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        task.result()
    result.wall_s = time.monotonic() - start
    return result


class HttpConnection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str,
                      payload: Optional[dict] = None
                      ) -> Tuple[int, Optional[dict]]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        body = b"" if payload is None else json.dumps(payload).encode()
        self._writer.write(
            (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
             f"Content-Type: application/json\r\n"
             f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
        try:
            await self._writer.drain()
            head = await self._reader.readuntil(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            headers = {}
            for line in lines[1:]:
                name, _sep, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            raw = await self._reader.readexactly(
                int(headers.get("content-length", "0")))
        except BaseException:
            await self.close()
            raise
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, json.loads(raw) if raw else None

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass


async def send_http(connection: HttpConnection, request: Request
                    ) -> Tuple[int, Optional[dict]]:
    """The :data:`Sender` for real servers."""
    return await connection.request(request.method, request.path,
                                    request.body)
