"""A JSON-lines TCP front end for the consensus service.

``repro serve`` binds this server to a host/port and answers one
:class:`~repro.service.session.SessionRequest` JSON object per line with
one :class:`~repro.service.session.SessionResponse` JSON line.  The
protocol is deliberately primitive — newline-delimited JSON over TCP, no
framing negotiation, no TLS — because the server's job is to demonstrate
the *service* semantics (admission, deadlines, breakers, degradation) on
a real event loop, not to be a production transport.

Malformed lines get an error object (``{"error": ...}``) rather than a
dropped connection: a load generator mid-run should see its own bug, not
a mysterious reset.  The server runs the same :class:`ConsensusService`
code the virtual-time loadtest drives, so behaviour differences between
``repro serve`` and ``repro loadtest`` reduce to the clock.

Control verbs share the session stream: a line whose JSON object carries
a ``"cmd"`` key is introspection, not traffic.  ``{"cmd": "stats"}``
returns the full :meth:`ConsensusService.snapshot` (occupancy, breaker
states and timelines, degradation, shed counters, span recorder totals)
and ``{"cmd": "health"}`` a one-line liveness summary.  Both are computed
synchronously between reads — they never await — so asking for stats
cannot reorder or perturb in-flight sessions on the same or any other
connection.
"""

from __future__ import annotations

import asyncio
import json
from functools import partial
from typing import Any, Dict, Optional, Set

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.service.faults import ServiceFaultPlan
from repro.service.service import ConsensusService, ServiceConfig
from repro.service.session import SessionRequest

__all__ = ["ServiceServer", "health_summary", "serve"]


def health_summary(snapshot: dict) -> dict:
    """Distill a :meth:`ConsensusService.snapshot` to the health document.

    Shared by the ``{"cmd": "health"}`` control verb and ``repro serve
    --stats-interval``, so the periodic self-report and the on-demand
    probe are the same bytes for the same snapshot.
    """
    return {
        "cmd": "health",
        "status": (
            "degraded" if snapshot["degraded_mode"]["active"] else "ok"
        ),
        "breakers": {
            shard: breaker["state"]
            for shard, breaker in snapshot["breakers"].items()
        },
        "occupancy": snapshot["occupancy"]["total"],
    }


class ServiceServer:
    """One bound TCP endpoint wrapping a :class:`ConsensusService`."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        chaos: Optional[ServiceFaultPlan] = None,
    ):
        self.service = ConsensusService(
            config, metrics=metrics, chaos=chaos
        )
        self._server: Optional[asyncio.AbstractServer] = None
        #: The open connections' tasks (the loop itself keeps only weak
        #: references to tasks).
        self._connections: Set["asyncio.Task[None]"] = set()

    @property
    def port(self) -> int:
        """The bound port (useful when started on port 0)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = await asyncio.start_server(
            self._connected, host=host, port=port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        await self._server.serve_forever()

    def _connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one new connection in a task of its own.

        Handed a coroutine function, ``asyncio.start_server`` would run it
        in a task whose done-callback calls ``task.exception()``.  On
        Python 3.11 that call raises for a task cancelled at loop shutdown,
        and the loop logs a ``CancelledError`` traceback.  This task still
        ends cancelled, so whoever awaits it sees the cancellation; only a
        real failure is reported, and it closes the connection.
        """
        task = asyncio.get_running_loop().create_task(
            self._handle(reader, writer)
        )
        self._connections.add(task)
        task.add_done_callback(partial(self._connection_done, writer))

    def _connection_done(
        self, writer: asyncio.StreamWriter, task: "asyncio.Task[None]"
    ) -> None:
        self._connections.discard(task)
        if task.cancelled():
            return
        error = task.exception()
        if error is not None:
            task.get_loop().call_exception_handler({
                "message": "unhandled exception in a service connection",
                "exception": error,
                "transport": writer.transport,
            })
            writer.transport.close()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError,
                        asyncio.IncompleteReadError):
                    # A line over the StreamReader limit (64 KiB by
                    # default) raises instead of returning; the buffer was
                    # flushed mid-line so framing is lost — report the
                    # protocol error and close rather than guess where the
                    # next request starts.
                    writer.write(json.dumps(
                        {"error": "request line too long"}, sort_keys=True,
                    ).encode("utf-8") + b"\n")
                    await writer.drain()
                    if writer.can_write_eof():
                        writer.write_eof()
                    # Swallow the rest of the oversized line: closing with
                    # unread inbound bytes would RST the socket and race
                    # the error reply to the client.
                    while await reader.read(65536):
                        pass
                    break
                if not line:
                    break
                response = await self._answer(line)
                writer.write(response.encode("utf-8") + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client hung up mid-line; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _answer(self, line: bytes) -> str:
        try:
            payload = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            return json.dumps(
                {"error": f"malformed request line: {error}"},
                sort_keys=True,
            )
        if isinstance(payload, dict) and "cmd" in payload:
            return self._control(payload)
        try:
            request = SessionRequest.from_json(payload)
        except (ReproError, KeyError, TypeError, ValueError) as error:
            reply: Dict[str, Any] = {
                "error": f"invalid session request: {error}"
            }
            session_id = (
                payload.get("session_id") if isinstance(payload, dict)
                else None
            )
            if isinstance(session_id, int):
                # Echo the client's id, as a refused admission would.
                reply["session_id"] = session_id
            return json.dumps(reply, sort_keys=True)
        try:
            response = await self.service.submit(request)
        except ReproError as error:
            # Configuration errors (unknown algorithm, bad family) are the
            # client's fault; report them without killing the connection.
            return json.dumps(
                {
                    "error": str(error),
                    "session_id": request.session_id,
                },
                sort_keys=True,
            )
        return json.dumps(response.to_json(), sort_keys=True)

    def _control(self, payload: dict) -> str:
        """Answer one control verb (a ``{"cmd": ...}`` line), synchronously.

        ``stats`` returns :meth:`ConsensusService.snapshot` verbatim, so
        a TCP client and an in-process caller see the same document.
        ``health`` is the cheap liveness probe: overall status (degraded
        or ok), per-shard breaker states, and total queue occupancy.
        Unknown or non-string verbs get an ``{"error": ...}`` naming the
        supported set — same contract as malformed session lines.
        """
        cmd = payload.get("cmd")
        if not isinstance(cmd, str):
            return json.dumps(
                {"error": f"control cmd must be a string, got {cmd!r}"},
                sort_keys=True,
            )
        now = asyncio.get_running_loop().time()
        if cmd == "stats":
            return json.dumps(self.service.snapshot(now), sort_keys=True)
        if cmd == "health":
            return json.dumps(
                health_summary(self.service.snapshot(now)), sort_keys=True,
            )
        return json.dumps(
            {"error": f"unknown control cmd {cmd!r}; "
                      f"supported: health, stats"},
            sort_keys=True,
        )


async def serve(
    host: str = "127.0.0.1",
    port: int = 8737,
    *,
    config: Optional[ServiceConfig] = None,
    chaos: Optional[ServiceFaultPlan] = None,
) -> None:
    """Bind and serve until cancelled (the ``repro serve`` entry point)."""
    server = ServiceServer(config, chaos=chaos)
    await server.start(host, port)
    try:
        await server.serve_forever()
    finally:
        await server.stop()
