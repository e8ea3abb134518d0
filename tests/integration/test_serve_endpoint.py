"""Integration: the JSON-lines TCP endpoint behind ``repro serve``.

Binds a real server on an ephemeral port and speaks the wire protocol:
one request object per line in, one response (or error) object per line
out, connection survives malformed input.  Control verbs
(``{"cmd": "stats"}`` / ``{"cmd": "health"}``) share the stream and are
pinned here: they answer from the live :meth:`ConsensusService.snapshot`
and never perturb in-flight sessions.
"""

import asyncio
import json

from repro.service import (
    ServiceConfig,
    ServiceServer,
    SessionRequest,
    run_virtual,
)


def talk(lines, config=None):
    """Start a server, send ``lines``, return the parsed reply objects."""

    async def main():
        server = ServiceServer(config or ServiceConfig())
        await server.start("127.0.0.1", 0)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            replies = []
            for line in lines:
                writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return replies
        finally:
            await server.stop()

    return asyncio.run(main())


def request_line(session_id, **overrides):
    request = SessionRequest(
        session_id=session_id, algorithm="sifting", n=4,
        schedule_family="round-robin", deadline=5.0, seed=0,
    )
    data = request.to_json()
    data.update(overrides)
    return json.dumps(data)


class TestWireProtocol:
    def test_valid_request_round_trips_to_a_completed_session(self):
        reply = talk([request_line(7)])[0]
        assert reply["status"] == "completed"
        assert reply["session_id"] == 7
        assert reply["result"]["agreement"] in (True, False)
        assert reply["backend"] == "generator"

    def test_multiple_requests_share_one_connection(self):
        replies = talk([request_line(i) for i in range(3)])
        assert [r["session_id"] for r in replies] == [0, 1, 2]
        assert all(r["status"] == "completed" for r in replies)

    def test_malformed_json_gets_an_error_line_not_a_reset(self):
        replies = talk(["{not json", request_line(1)])
        assert "error" in replies[0]
        # The connection survived: the next request still completes.
        assert replies[1]["status"] == "completed"

    def test_invalid_request_object_is_reported(self):
        replies = talk([json.dumps({"version": 1, "session_id": -5})])
        assert "error" in replies[0]

    def test_foreign_version_is_reported(self):
        replies = talk([request_line(0, version=99)])
        assert "error" in replies[0]
        assert "version" in replies[0]["error"]

    def test_non_finite_deadline_is_an_invalid_request(self):
        nan_line = request_line(0).replace('"deadline": 5.0',
                                           '"deadline": NaN')
        assert "NaN" in nan_line
        replies = talk([nan_line, request_line(1)])
        assert replies[0]["error"].startswith("invalid session request")
        assert "finite" in replies[0]["error"]
        assert replies[1]["status"] == "completed"

    def test_unknown_family_is_the_clients_fault(self):
        replies = talk([request_line(0, schedule_family="nope"),
                        request_line(1)])
        assert "nope" in replies[0]["error"]
        assert replies[0]["session_id"] == 0
        assert replies[1]["status"] == "completed"

    def test_unknown_algorithm_is_the_clients_fault(self):
        replies = talk([request_line(0, algorithm="no-such"),
                        request_line(1), json.dumps({"cmd": "stats"})])
        assert sorted(replies[0]) == ["error", "session_id"]
        assert replies[0]["error"].startswith("unknown algorithm 'no-such'")
        assert replies[0]["session_id"] == 0
        # The connection survived, and only the valid session was served.
        assert replies[1]["status"] == "completed"
        assert replies[2]["sessions"]["completed"] == 1
        assert not replies[2]["sessions"]["failed"]

    def test_oversized_line_gets_an_error_reply_not_a_traceback(self):
        """A request over the StreamReader's 64 KiB line limit raises
        inside readline; the handler must answer with an error object and
        close cleanly instead of dying with an unhandled traceback."""

        async def main():
            server = ServiceServer(ServiceConfig())
            await server.start("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"x" * (256 * 1024) + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                # Framing was lost mid-line, so the server closes after
                # reporting the error.
                eof = await reader.read()
                writer.close()
                await writer.wait_closed()
                return reply, eof
            finally:
                await server.stop()

        reply, eof = asyncio.run(main())
        assert "error" in reply
        assert "too long" in reply["error"]
        assert eof == b""

    def test_port_property_requires_a_started_server(self):
        import pytest

        server = ServiceServer()
        with pytest.raises(RuntimeError, match="not started"):
            server.port


class TestControlVerbs:
    def test_stats_round_trips_the_live_snapshot(self):
        """``{"cmd": "stats"}`` over TCP is the snapshot() document —
        same keys, valid JSON, spans accounting included."""
        replies = talk([request_line(0), json.dumps({"cmd": "stats"})])
        assert replies[0]["status"] == "completed"
        stats = replies[1]
        for key in ("breakers", "breaker_timelines", "degraded_mode",
                    "occupancy", "sessions", "spans"):
            assert key in stats, f"stats reply missing {key}"
        assert stats["sessions"]["completed"] == 1
        assert stats["spans"]["recorded_total"] == 1
        assert stats["occupancy"]["total"] == 0  # nothing in flight now

    def test_health_summarizes_status_breakers_and_occupancy(self):
        reply = talk([json.dumps({"cmd": "health"})])[0]
        assert reply == {
            "cmd": "health",
            "status": "ok",
            "breakers": {"0": "closed", "1": "closed"},
            "occupancy": 0,
        }

    def test_unknown_verb_names_the_supported_set(self):
        reply = talk([json.dumps({"cmd": "reboot"})])[0]
        assert "error" in reply
        assert "health" in reply["error"] and "stats" in reply["error"]

    def test_malformed_cmd_is_reported_not_fatal(self):
        replies = talk([
            json.dumps({"cmd": 7}),
            json.dumps({"cmd": None}),
            request_line(1),
        ])
        assert "must be a string" in replies[0]["error"]
        assert "must be a string" in replies[1]["error"]
        # The connection survived both bad verbs.
        assert replies[2]["status"] == "completed"

    def test_verbs_and_sessions_interleave_on_one_connection(self):
        replies = talk([
            request_line(0),
            json.dumps({"cmd": "health"}),
            request_line(1),
            json.dumps({"cmd": "stats"}),
            request_line(2),
        ])
        assert [r["status"] for r in (replies[0], replies[2], replies[4])] \
            == ["completed"] * 3
        assert replies[1]["cmd"] == "health"
        assert replies[1]["status"] == "ok"
        assert replies[3]["sessions"]["completed"] == 2

    def test_stats_mid_burst_is_deterministic_under_virtual_time(self):
        """Ask for stats while an overloaded burst is in flight, on the
        virtual-time loop: the reply is a pure function of the seeds, and
        asking does not change any session's outcome."""

        def burst(with_stats):
            async def main():
                server = ServiceServer(ServiceConfig(queue_capacity=8))

                async def one(session_id):
                    request = SessionRequest(
                        session_id=session_id, algorithm="sifting", n=4,
                        schedule_family="round-robin", deadline=5.0, seed=0,
                    )
                    return await server.service.submit(request)

                async def probe():
                    # Land mid-burst: all sessions are submitted at t=0
                    # and queue behind 2 workers/shard for several
                    # virtual milliseconds.
                    await asyncio.sleep(0.001)
                    return [
                        await server._answer(b'{"cmd": "stats"}'),
                        await server._answer(b'{"cmd": "health"}'),
                    ]

                tasks = [one(i) for i in range(12)]
                if with_stats:
                    responses_and_stats = await asyncio.gather(
                        *tasks, probe()
                    )
                    return responses_and_stats[:-1], responses_and_stats[-1]
                return await asyncio.gather(*tasks), None

            return run_virtual(main())

        first_responses, first_stats = burst(with_stats=True)
        second_responses, second_stats = burst(with_stats=True)
        bare_responses, _ = burst(with_stats=False)

        # Deterministic: same seeds, byte-identical stats replies.
        assert first_stats == second_stats
        stats = json.loads(first_stats[0])
        assert stats["occupancy"]["total"] > 0  # genuinely mid-burst
        assert json.loads(first_stats[1])["cmd"] == "health"

        # Non-perturbing: the session stream is identical with and
        # without the probe.
        def outcomes(responses):
            return [(r.session_id, r.status, r.code, r.latency)
                    for r in responses]

        assert outcomes(first_responses) == outcomes(second_responses)
        assert outcomes(first_responses) == outcomes(bare_responses)


class TestRefusalAndShutdown:
    def test_unknown_family_is_never_admitted(self):
        """The family is checked when the request is parsed, so a fresh
        service that refused one counts no admission, no attempt and no
        session at all."""

        async def main():
            server = ServiceServer()
            await server.start("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(request_line(4, schedule_family="nope")
                             .encode("utf-8") + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                snapshot = server.service.snapshot(0.0)
                return reply, server.service.metrics.to_json(), snapshot
            finally:
                await server.stop()

        reply, metrics, snapshot = asyncio.run(main())
        assert reply["error"].startswith("invalid session request")
        assert "unknown schedule family 'nope'" in reply["error"]
        assert reply["session_id"] == 4
        assert metrics["counters"].get("service.admitted", 0) == 0
        assert metrics["counters"].get("service.attempts", 0) == 0
        assert snapshot["sessions"] == {
            "completed": 0, "failed": {}, "rejected": {}
        }
        assert snapshot["spans"]["recorded_total"] == 0

    def test_shutdown_with_a_closing_connection_logs_nothing(self, caplog):
        """The client hangs up and the loop ends while the server side is
        still closing: asyncio must not log a ``CancelledError``
        traceback for the connection task."""

        async def main():
            server = ServiceServer()
            await server.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(request_line(1).encode("utf-8") + b"\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await server.stop()
            return reply

        with caplog.at_level("WARNING", logger="asyncio"):
            reply = asyncio.run(main())
        assert reply["status"] == "completed"
        logged = [record for record in caplog.records
                  if record.name == "asyncio" and record.levelname != "DEBUG"]
        assert logged == [], [record.getMessage() for record in logged]

    def test_a_cancelled_connection_task_stays_cancelled(self):
        """Ending quietly does not swallow the cancellation: whoever
        awaits the connection task sees it."""

        async def main():
            server = ServiceServer()
            await server.start("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                while not server._connections:
                    await asyncio.sleep(0)
                (task,) = server._connections
                task.cancel()
                (outcome,) = await asyncio.gather(task, return_exceptions=True)
                writer.close()
                await writer.wait_closed()
                return task, outcome
            finally:
                await server.stop()

        task, outcome = asyncio.run(main())
        assert task.cancelled()
        assert isinstance(outcome, asyncio.CancelledError)
