"""The serve gateway: concurrent multiplexed clients, rate limiting,
and the structured error contract.

No pytest-asyncio in the toolchain: each test drives its own event
loop with ``asyncio.run`` around an async scenario.
"""

import asyncio
import json
import logging

import pytest

from repro.runtime.gateway import (
    ERROR_CODES,
    Gateway,
    GatewayClient,
    GatewayError,
    WORKLOAD_NAMES,
    classify_error,
    read_frame,
    write_frame,
)
from repro.runtime.network import (
    DeliveryTimeoutError,
    Message,
    SecurityAbort,
)
from repro.runtime.storage import StorageUnavailableError
from repro.runtime.transport.base import FRAME_HEADER, MAX_FRAME
from repro.runtime.transport.rate_limit import (
    PrincipalRateLimiter,
    TokenBucket,
)


# ---------------------------------------------------------------------------
# token buckets (pure, deterministic via injected clock)
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: now[0])
        assert [bucket.allow() for _ in range(4)] == [
            True, True, True, False
        ]
        now[0] += 1.0  # 2 tokens refill
        assert bucket.allow() and bucket.allow()
        assert not bucket.allow()

    def test_retry_after_reports_exact_deficit(self):
        now = [0.0]
        bucket = TokenBucket(rate=4.0, burst=1.0, clock=lambda: now[0])
        assert bucket.allow()
        assert bucket.retry_after() == pytest.approx(0.25)

    def test_never_exceeds_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=lambda: now[0])
        now[0] += 60.0
        assert bucket.allow() and bucket.allow()
        assert not bucket.allow()

    def test_principals_are_isolated(self):
        now = [0.0]
        limiter = PrincipalRateLimiter(
            rate=1.0, burst=1.0, clock=lambda: now[0]
        )
        allowed, _ = limiter.admit("greedy")
        assert allowed
        shed, retry_after = limiter.admit("greedy")
        assert not shed and retry_after > 0
        allowed, _ = limiter.admit("polite")
        assert allowed
        snap = limiter.snapshot()
        assert snap["greedy"]["shed"] == 1
        assert snap["polite"]["shed"] == 0


# ---------------------------------------------------------------------------
# error contract
# ---------------------------------------------------------------------------


class TestErrorContract:
    def test_runtime_exceptions_map_onto_the_closed_code_set(self):
        message = Message("sync", "A", "B", {}, msg_id=7, seq=3)
        cases = [
            (DeliveryTimeoutError(message, attempts=4), "timeout"),
            (SecurityAbort("A", "B", "bad token", message=message),
             "quarantine"),
            (StorageUnavailableError("tier gone"), "storage-degraded"),
            (KeyError("no such workload"), "bad-request"),
            (RuntimeError("boom"), "internal"),
            (GatewayError("rate-limit", "over quota"), "rate-limit"),
        ]
        for exc, expected in cases:
            code, detail = classify_error(exc)
            assert code == expected
            assert code in ERROR_CODES
            assert detail

    def test_unknown_code_is_refused(self):
        # A ValueError, not an assert: it must hold under python -O.
        with pytest.raises(ValueError, match="no-such-code"):
            GatewayError("no-such-code", "detail")

    def test_serve_forever_before_start_raises(self):
        with pytest.raises(RuntimeError, match="start"):
            _run(Gateway().serve_forever())

    def test_error_frame_shape(self):
        frame = GatewayError(
            "rate-limit", "over quota", retry_after=1.5
        ).frame(42)
        assert frame == {
            "t": "error", "id": 42, "code": "rate-limit",
            "detail": "over quota", "retry_after": 1.5,
        }


# ---------------------------------------------------------------------------
# the gateway over a live event loop
# ---------------------------------------------------------------------------


def _run(coro):
    return asyncio.run(coro)


async def _with_gateway(scenario, **kwargs):
    gateway = Gateway(**kwargs)
    host, port = await gateway.start()
    try:
        return await scenario(gateway, host, port)
    finally:
        await gateway.close()


class TestGateway:
    def test_sixteen_concurrent_clients_bit_identical_to_oracle(self):
        async def scenario(gateway, host, port):
            oracles = {
                name: await asyncio.to_thread(gateway.oracle, name)
                for name in WORKLOAD_NAMES
            }

            async def one_client(index):
                name = WORKLOAD_NAMES[index % len(WORKLOAD_NAMES)]
                client = await GatewayClient.connect(
                    host, port, f"client-{index}"
                )
                try:
                    # Two pipelined requests per client, multiplexed
                    # over the one connection.
                    replies = await asyncio.gather(
                        client.run(name), client.run(name)
                    )
                finally:
                    await client.close()
                for reply in replies:
                    assert reply["t"] == "result", reply
                    assert reply["observables"] == oracles[name], name
                return name

            names = await asyncio.gather(
                *(one_client(i) for i in range(16))
            )
            assert len(names) == 16
            snapshot = gateway.stats.snapshot()
            assert snapshot["latency"]["count"] == 32
            assert snapshot["outcomes"]["ok"] == 32
            assert snapshot["latency"]["p50"] > 0
            assert snapshot["connections"] == 16

        _run(_with_gateway(scenario, rate=1000.0, burst=1000.0))

    def test_connection_holds_no_finished_request_task(self):
        """A long-lived client's finished requests are not kept alive
        until it hangs up: the handler tracks in-flight tasks only."""
        async def scenario(gateway, host, port):
            client = await GatewayClient.connect(host, port, "steady")
            for _ in range(50):
                assert (await client.run("work"))["t"] == "result"
            for _ in range(3):
                await asyncio.sleep(0)
            # The request tasks are a local of the connection handler.
            (handler,) = gateway._conn_tasks
            held = handler.get_coro().cr_frame.f_locals["tasks"]
            assert [task for task in held if task.done()] == []
            await client.close()

        _run(_with_gateway(scenario, rate=1000.0, burst=1000.0))

    def test_requests_after_the_gateway_closes_fail_at_once(self):
        """A client whose gateway has hung up raises ConnectionError
        for a stats or run request instead of waiting forever."""
        async def scenario():
            gateway = Gateway()
            host, port = await gateway.start()
            client = await GatewayClient.connect(host, port, "orphan")
            await gateway.close()
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(client.stats(), 3)
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(client.run("work"), 3)
            await client.close()

        _run(scenario())

    def test_rate_limiter_sheds_with_structured_error(self):
        async def scenario(gateway, host, port):
            greedy = await GatewayClient.connect(host, port, "greedy")
            polite = await GatewayClient.connect(host, port, "polite")
            replies = await asyncio.gather(
                *(greedy.run("work") for _ in range(5))
            )
            served = [r for r in replies if r["t"] == "result"]
            shed = [r for r in replies if r["t"] == "error"]
            assert len(served) == 2 and len(shed) == 3
            for reply in shed:
                assert reply["code"] == "rate-limit"
                assert reply["retry_after"] > 0
                assert "traceback" not in str(reply).lower()
            # Another principal's bucket is untouched.
            ok = await polite.run("work")
            assert ok["t"] == "result"
            snapshot = gateway.stats.snapshot()
            assert snapshot["outcomes"]["rate-limit"] == 3
            await greedy.close()
            await polite.close()

        _run(_with_gateway(scenario, rate=0.001, burst=2.0))

    def test_unknown_workload_and_transport_rejected_cleanly(self):
        async def scenario(gateway, host, port):
            client = await GatewayClient.connect(host, port, "probe")
            bad_workload = await client.run("nonesuch")
            assert bad_workload["t"] == "error"
            assert bad_workload["code"] == "bad-request"
            bad_transport = await client.run("work", transport="carrier-pigeon")
            assert bad_transport["t"] == "error"
            assert bad_transport["code"] == "bad-request"
            await client.close()

        _run(_with_gateway(scenario))

    def test_hello_is_mandatory(self):
        async def scenario(gateway, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            await write_frame(writer, {"t": "run", "id": 1,
                                       "workload": "work"})
            reply = await read_frame(reader)
            assert reply["t"] == "error"
            assert reply["code"] == "bad-request"
            writer.close()

        _run(_with_gateway(scenario))

    @pytest.mark.parametrize("after_hello,raw", [
        (False, json.dumps(["hello", "alice"]).encode()),
        (False, b"{not json"),
        (False, FRAME_HEADER.pack(MAX_FRAME + 1)),
        (True, b"[1, 2, 3]"),
    ], ids=["list-hello", "invalid-json", "over-cap", "list-after-hello"])
    def test_malformed_frames_fail_closed(self, caplog, after_hello, raw):
        if not raw.startswith(FRAME_HEADER.pack(MAX_FRAME + 1)):
            raw = FRAME_HEADER.pack(len(raw)) + raw

        async def scenario(gateway, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            if after_hello:
                await write_frame(writer, {"t": "hello", "principal": "p"})
                assert (await read_frame(reader))["t"] == "welcome"
            writer.write(raw)
            await writer.drain()
            reply = await read_frame(reader)
            assert reply["t"] == "error"
            assert reply["code"] == "bad-request"
            assert reply["id"] is None
            # ... and the gateway hangs up: the stream is unusable.
            assert await reader.read() == b""
            writer.close()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            _run(_with_gateway(scenario))
        assert not [
            record for record in caplog.records
            if "client_connected_cb" in record.getMessage()
        ]

    def test_tcp_transport_through_the_gateway_matches_oracle(self):
        async def scenario(gateway, host, port):
            oracle = await asyncio.to_thread(gateway.oracle, "work")
            client = await GatewayClient.connect(host, port, "tcp-user")
            reply = await client.run("work", transport="tcp")
            assert reply["t"] == "result"
            assert reply["transport"] == "tcp"
            assert reply["observables"] == oracle
            await client.close()

        _run(_with_gateway(scenario))
