"""``repro serve`` — the asyncio HTTP face of the optimization service.

A deliberately small HTTP/1.1 implementation on ``asyncio.start_server``
(stdlib only — the whole daemon adds zero dependencies): one request per
connection, ``Connection: close``, JSON bodies.  That is exactly enough
for ``curl``, :class:`repro.serve.client.ServeClient`, and browsers'
``EventSource``; it is not a general web server and does not try to be.

Endpoints::

    GET  /healthz            service status + queue depths
    GET  /methods            registered optimizer names
    POST /jobs               submit a JobSpec; 202 + job snapshot
    GET  /jobs               all job snapshots
    GET  /jobs/<id>          one job snapshot
    GET  /jobs/<id>/events   stream events — NDJSON, or SSE with
                             ``Accept: text/event-stream``; an
                             ``?offset=N`` query skips the first N
                             events (reconnect/resume)
    POST /jobs/<id>/cancel   request cancellation

Event streams replay from the first event (or from ``?offset=N`` — the
log is replayable, so a client that lost its connection after N events
resumes exactly where it stopped), terminated by the ``end`` event.
503 responses (full queue, draining) carry a ``Retry-After`` header so
well-behaved clients back off instead of hammering.  On SIGINT/SIGTERM
the daemon stops accepting, drains every in-flight run to a spool
checkpoint (the same cooperative pause Ctrl-C uses in the CLI), and
exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Any, Dict, Optional, Tuple

from ..registry import method_names
from .protocol import JobSpec, SpecError, encode_ndjson, encode_sse
from .service import (
    OptimizationService,
    QueueFull,
    ServiceClosed,
)

#: Cap on request head + body size (specs are netlists, not uploads).
MAX_HEAD = 64 * 1024
MAX_BODY = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[int] = None,
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        #: Seconds for a ``Retry-After`` header (503s set this).
        self.retry_after = retry_after


def _head(status: int, content_type: str, extra: str = "") -> bytes:
    reason = _REASONS.get(status, "Unknown")
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        "Connection: close\r\n"
        f"{extra}\r\n"
    ).encode()


def _json_response(status: int, payload: Any, extra: str = "") -> bytes:
    body = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
    return (
        _head(
            status,
            "application/json",
            f"Content-Length: {len(body)}\r\n{extra}",
        )
        + body
    )


def _query_offset(query: str) -> int:
    """``offset=N`` from a raw query string (the only query we speak)."""
    for pair in query.split("&"):
        name, _, value = pair.partition("=")
        if name == "offset":
            try:
                return max(0, int(value))
            except ValueError:
                raise _HttpError(
                    400, f"offset must be an integer, not {value!r}"
                ) from None
    return 0


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one request: (method, path, lowercase headers, body)."""
    head = await reader.readuntil(b"\r\n\r\n")
    if len(head) > MAX_HEAD:
        raise _HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split(" ", 2)
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY:
        raise _HttpError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


class ServeApp:
    """Routes HTTP requests onto one :class:`OptimizationService`."""

    def __init__(self, service: OptimizationService):
        self.service = service

    async def handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                method, path, headers, body = await _read_request(reader)
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                ConnectionError,
            ):
                return  # client went away mid-request; nothing to say
            try:
                await self._dispatch(writer, method, path, headers, body)
            except _HttpError as exc:
                extra = (
                    f"Retry-After: {exc.retry_after}\r\n"
                    if exc.retry_after is not None
                    else ""
                )
                writer.write(
                    _json_response(
                        exc.status, {"error": exc.message}, extra
                    )
                )
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass  # mid-stream disconnects are routine, not errors
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        path, _, query = path.partition("?")
        if path == "/healthz" and method == "GET":
            writer.write(_json_response(200, self.service.health()))
            return
        if path == "/methods" and method == "GET":
            writer.write(
                _json_response(200, {"methods": list(method_names())})
            )
            return
        if path == "/jobs":
            if method == "POST":
                await self._submit(writer, body)
                return
            if method == "GET":
                snapshots = [
                    job.snapshot()
                    for job in self.service.jobs_by_id.values()
                ]
                writer.write(_json_response(200, {"jobs": snapshots}))
                return
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/"):
            await self._job_route(writer, method, path, headers, query)
            return
        raise _HttpError(404, f"no route {path!r}")

    async def _submit(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"body is not JSON: {exc}") from None
        try:
            spec = JobSpec.from_payload(payload)
            if spec.netlist is not None:
                # Surface parse errors as 400 now, not a failed job
                # later (benchmark names were already validated).
                spec.build_circuit()
        except SpecError as exc:
            raise _HttpError(400, str(exc)) from None
        try:
            job = self.service.submit(spec)
        except QueueFull as exc:
            # A full queue clears as soon as one job finishes.
            raise _HttpError(503, str(exc), retry_after=1) from None
        except ServiceClosed as exc:
            # Draining never un-drains; tell clients to look elsewhere,
            # but give load balancers a sane revalidation interval.
            raise _HttpError(503, str(exc), retry_after=5) from None
        writer.write(_json_response(202, job.snapshot()))

    async def _job_route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        headers: Dict[str, str],
        query: str = "",
    ) -> None:
        parts = path.strip("/").split("/")  # ["jobs", id, tail?]
        job = self.service.jobs_by_id.get(parts[1])
        if job is None:
            raise _HttpError(404, f"no job {parts[1]!r}")
        tail = parts[2] if len(parts) > 2 else None
        if tail is None and method == "GET":
            writer.write(_json_response(200, job.snapshot()))
            return
        if tail == "cancel" and method == "POST":
            changed = self.service.cancel(job)
            writer.write(
                _json_response(
                    200, {"id": job.id, "cancelled": changed}
                )
            )
            return
        if tail == "events" and method == "GET":
            await self._stream(
                writer, headers, job, _query_offset(query)
            )
            return
        raise _HttpError(404, f"no route {path!r}")

    async def _stream(
        self,
        writer: asyncio.StreamWriter,
        headers: Dict[str, str],
        job,
        offset: int = 0,
    ) -> None:
        sse = "text/event-stream" in headers.get("accept", "")
        encode = encode_sse if sse else encode_ndjson
        ctype = (
            "text/event-stream" if sse else "application/x-ndjson"
        )
        writer.write(_head(200, ctype, "Cache-Control: no-store\r\n"))
        await writer.drain()
        cursor = offset
        while True:
            events = await job.wait_events(cursor)
            if not events:
                return  # terminal and fully replayed
            cursor += len(events)
            done = False
            for event in events:
                writer.write(encode(event))
                if event.get("type") == "end":
                    done = True
            await writer.drain()
            if done:
                return  # "end" closes the stream even for paused jobs


async def _serve(args) -> int:
    def log(line: str) -> None:
        if not args.quiet:
            print(f"serve: {line}", file=sys.stderr, flush=True)

    service = OptimizationService(
        capacity=args.capacity,
        max_pending=args.max_pending,
        spool=args.spool,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        logger=log,
        job_deadline_s=getattr(args, "job_deadline", None),
    )
    await service.start()
    app = ServeApp(service)
    server = await asyncio.start_server(
        app.handle, args.host, args.port, limit=MAX_HEAD
    )
    port = server.sockets[0].getsockname()[1]
    # The listening line is a contract: --port 0 callers (tests, the
    # load generator's --spawn) parse the chosen port out of it.
    print(
        f"repro serve listening on http://{args.host}:{port}",
        file=sys.stderr,
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            signal.signal(sig, lambda *_: stop.set())
    async with server:
        await stop.wait()
        log("shutdown requested; draining runs to checkpoints")
        server.close()
        await server.wait_closed()
        await service.shutdown(drain=True)
    return 0


def serve_main(args) -> int:
    """Entry point behind ``repro serve`` (blocking)."""
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - double Ctrl-C
        return 130
