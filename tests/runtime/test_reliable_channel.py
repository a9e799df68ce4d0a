"""The shared reliable channel, on its own and under both drivers.

:class:`~repro.runtime.transport.base.ReliableChannel` is the one
implementation of ack/retry delivery: the simulated network drives it
with the simulated clock, the TCP endpoint with sockets pumped until a
monotonic deadline.  These tests pin its pieces directly:

* the retry schedule and its ``retry``/``timeout`` events, run over an
  injected fake clock;
* the receiver's in-flight set — a retransmission that arrives while
  the first execution is still running must not re-execute it;
* the receiver's reply cache, which stays within ``REPLY_WINDOW``
  replies per peer however many requests that peer sends;
* the host-level ``_seen_requests`` table, which still answers a
  retransmission the bounded window has already forgotten.
"""

import socket
import threading
import time

import pytest

from repro.runtime.faults import RetryPolicy
from repro.runtime.host import TrustedHost
from repro.runtime.network import DeliveryTimeoutError, Message
from repro.runtime.session import RuntimeImage
from repro.runtime.transport.base import (
    NO_ACK,
    REPLY_WINDOW,
    ReliableChannel,
)
from repro.runtime.transport.tcp import (
    HostEndpoint,
    WirePolicy,
    WireRetryPolicy,
    _enc_message,
)
from repro.splitter import split_source
from repro.workloads import ot


def _channel():
    events = []
    return ReliableChannel(lambda *event: events.append(event)), events


def _message():
    return Message("sync", "A", "B", {})


class FakeClock:
    """A wait that only advances a counter, optionally acking at a time."""

    def __init__(self, ack_at=None):
        self.now = 0.0
        self.timers = []
        self.ack_at = ack_at

    def wait(self, timer):
        self.timers.append(timer)
        self.now += timer
        if self.ack_at is not None and self.now >= self.ack_at:
            return "acked"
        return NO_ACK


def _listener():
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(16)
    return sock


class _Capture(WirePolicy):
    """Record every outbound frame instead of writing it."""

    def __init__(self):
        self.frames = []

    def on_send(self, frame):
        self.frames.append(frame)
        return []


def _request_frame(msg_id, payload, kind="getField", src="A", dst="B"):
    message = Message(kind, src, dst, payload, msg_id=msg_id, seq=msg_id)
    return {"t": "req", "m": _enc_message(message)}


# ---------------------------------------------------------------------------
# the sender: stamping and the retry schedule
# ---------------------------------------------------------------------------


class TestSender:
    def test_stamping_is_per_channel_and_survives_retransmission(self):
        channel, _events = _channel()
        first, second = _message(), _message()
        other = Message("sync", "B", "A", {})
        for message in (first, second, other):
            channel.stamp(message)
        assert (first.msg_id, first.seq) == (1, 1)
        assert (second.msg_id, second.seq) == (2, 2)
        assert (other.msg_id, other.seq) == (3, 1)
        channel.stamp(first)  # a retransmission keeps its stamp
        assert (first.msg_id, first.seq) == (1, 1)
        # Control transfers count their own sequence per channel.
        assert [channel.control_seq(first) for _ in range(3)] == [1, 2, 3]
        assert channel.control_seq(other) == 1

    def test_schedule_backs_off_then_fails_closed(self):
        channel, events = _channel()
        message = _message()
        channel.stamp(message)
        clock = FakeClock()
        sends = []
        retry = RetryPolicy(base_timeout=1.0, max_timeout=4.0, max_retries=4)
        with pytest.raises(DeliveryTimeoutError) as info:
            channel.deliver(
                message, lambda: sends.append(clock.now) or NO_ACK,
                clock.wait, retry,
            )
        assert clock.timers == [1.0, 2.0, 4.0, 4.0, 4.0]
        assert sends == [0.0, 1.0, 3.0, 7.0, 11.0]
        assert [event[0] for event in events] == ["retry"] * 4 + ["timeout"]
        assert events[0][1:3] == ("A", "B")
        assert "attempt 2" in events[0][3]
        assert "gave up after 5 attempts (15.000s of timers)" in events[-1][3]
        error = info.value
        assert error.attempts == retry.max_retries + 1
        assert (error.seq, error.msg_id) == (1, 1)

    def test_ack_during_a_wait_ends_the_schedule(self):
        channel, events = _channel()
        message = _message()
        clock = FakeClock(ack_at=3.0)
        result = channel.deliver(
            message, lambda: NO_ACK, clock.wait,
            RetryPolicy(base_timeout=1.0, max_timeout=8.0),
        )
        assert result == "acked"
        assert clock.timers == [1.0, 2.0]
        assert [event[0] for event in events] == ["retry"]

    def test_synchronous_ack_never_waits(self):
        channel, events = _channel()
        clock = FakeClock()
        assert channel.deliver(
            _message(), lambda: None, clock.wait, RetryPolicy()
        ) is None
        assert clock.timers == [] and events == []

    def test_deadline_bounds_the_schedule(self):
        channel, _events = _channel()
        clock = FakeClock()
        retry = RetryPolicy(
            base_timeout=1.0, max_timeout=8.0, max_retries=100, deadline=2.5
        )
        with pytest.raises(DeliveryTimeoutError) as info:
            channel.deliver(_message(), lambda: NO_ACK, clock.wait, retry)
        assert clock.timers == [1.0, 2.0]
        assert info.value.attempts == 2

    def test_wire_policy_is_only_the_wire_defaults(self):
        wire = WireRetryPolicy()
        assert isinstance(wire, RetryPolicy)
        assert (
            wire.base_timeout, wire.max_timeout, wire.max_retries,
            wire.deadline,
        ) == (1.0, 8.0, 5, 30.0)
        clock = FakeClock()
        channel, _events = _channel()
        with pytest.raises(DeliveryTimeoutError) as info:
            channel.deliver(_message(), lambda: NO_ACK, clock.wait, wire)
        assert clock.timers == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]
        assert info.value.attempts == 6


# ---------------------------------------------------------------------------
# the receiver: in-flight set, bounded reply cache
# ---------------------------------------------------------------------------


class TestReceiver:
    def test_retransmission_during_first_execution_runs_once(self):
        """The handler outlives A's retry timer, pumping B's sockets as
        a nested exchange would; A's retransmissions reach B meanwhile
        and must be absorbed by the in-flight set."""
        la, lb = _listener(), _listener()
        addr_map = {"A": la.getsockname(), "B": lb.getsockname()}
        a = HostEndpoint(
            "A", la, addr_map, msg_id_floor=1,
            retry=WireRetryPolicy(base_timeout=0.1, max_retries=8),
        )
        b = HostEndpoint("B", lb, addr_map, msg_id_floor=10 ** 12)
        calls = []

        def slow_handler(message):
            calls.append(message.msg_id)
            until = time.monotonic() + 0.6
            while time.monotonic() < until:
                b.pump(0.02)
            return "done"

        a.register("A", lambda m: None)
        b.register("B", slow_handler)
        stop = threading.Event()

        def pump_b():
            while not stop.is_set():
                b.pump(0.05)

        thread = threading.Thread(target=pump_b, daemon=True)
        thread.start()
        try:
            assert a.request(Message("sync", "A", "B", {})) == "done"
        finally:
            stop.set()
            thread.join(timeout=2.0)
            a.close()
            b.close()
        assert not thread.is_alive()
        assert calls == [1]
        retries = [event for event in a.fault_events if event[0] == "retry"]
        assert len(retries) >= 2, "A must retransmit while B executes"

    def test_reply_cache_stays_within_its_window(self):
        listener = _listener()
        capture = _Capture()
        endpoint = HostEndpoint(
            "B", listener, {"B": listener.getsockname()}, wire=capture
        )
        runs = []
        endpoint.register("B", lambda m: runs.append(m.msg_id) or m.msg_id)
        try:
            for msg_id in range(1, 10_001):
                endpoint._serve_request(_request_frame(msg_id, {}), None)
                assert len(endpoint.channel._served["A"]) <= REPLY_WINDOW
            assert len(runs) == 10_000
            assert len(endpoint.channel._served["A"]) == REPLY_WINDOW
            # A retransmission inside the window is answered from the
            # cache without re-running the handler.
            endpoint._serve_request(_request_frame(10_000, {}), None)
            assert len(runs) == 10_000
            assert capture.frames[-1] == capture.frames[-2]
        finally:
            endpoint.close()

    def test_retransmission_outside_the_window_hits_seen_requests(self):
        split = split_source(ot.source(rounds=1), ot.config()).split
        image = RuntimeImage.for_split(split)
        listener = _listener()
        capture = _Capture()
        endpoint = HostEndpoint(
            "B", listener, {"B": listener.getsockname()}, wire=capture
        )
        host = TrustedHost(
            "B", image.split, endpoint, image.registry,
            image=image.host_images["B"],
        )
        executions = []
        get_field = host._dispatch_table["getField"]

        def counting_get_field(message):
            executions.append(message.msg_id)
            return get_field(message)

        host._dispatch_table["getField"] = counting_get_field
        payload = {
            "cls": "OTBench", "field": "request", "digest": split.digest
        }
        try:
            # T reads a field it may read; then REPLY_WINDOW more
            # requests push that reply out of the channel's window.
            first = _request_frame(1, payload, src="T")
            endpoint._serve_request(first, None)
            original = capture.frames[-1]
            assert original["t"] == "rep"
            for msg_id in range(2, REPLY_WINDOW + 2):
                endpoint._serve_request(
                    _request_frame(msg_id, payload, src="T"), None
                )
            assert 1 not in endpoint.channel._served["T"]
            assert len(executions) == REPLY_WINDOW + 1
            # The late retransmission reaches the host again, whose
            # durable idempotency table answers it without re-running.
            endpoint._serve_request(first, None)
            assert capture.frames[-1] == original
            assert len(executions) == REPLY_WINDOW + 1
            assert executions.count(1) == 1
            assert endpoint.audit_log == []
        finally:
            endpoint.close()
