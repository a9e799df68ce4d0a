"""The TCP backend: framing, failure frames and the TCP-backed Session.

``Session(image, transport="tcp")`` forks one OS process per trusted
host, connects them over 127.0.0.1 sockets with length-prefixed framed
messages, and runs the split program for real.  Its oracle equality
over the Table 1 workloads lives in the transport conformance suite;
this file covers the wire format, how a host's failure reaches the
coordinator, and the session's lifecycle on this backend, and keeps
the field-value and audit-trail checks of the TCP result against a solo
simulated session.
"""

import random
import socket
import time

import pytest

from repro.runtime import Adversary, TrustedHost
from repro.runtime.faults import FaultInjector, FaultPolicy
from repro.runtime.gateway import classify_error
from repro.runtime.network import DeliveryTimeoutError, Message, SecurityAbort
from repro.runtime.session import RuntimeImage, Session
from repro.runtime.trace import Tracer, record_messages
from repro.runtime.transport.base import (
    FRAME_HEADER,
    MAX_FRAME,
    decode_frame,
    encode_frame,
)
from repro.runtime.transport.tcp import (
    TcpSession,
    _dec_message,
    _enc_message,
    _failure_error,
    _failure_fields,
    recv_frame,
    run_split_over_tcp,
    send_frame,
)
from repro.splitter import split_source
from repro.workloads import medical, ot, tax


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


class TestFraming:
    def _pipe(self):
        a, b = socket.socketpair()
        return a, b

    def test_roundtrip(self):
        a, b = self._pipe()
        frame = {"t": "req", "m": {"kind": "sync", "n": [1, 2, 3]}}
        send_frame(a, frame)
        assert recv_frame(b) == frame
        a.close(), b.close()

    def test_frames_preserve_boundaries_when_coalesced(self):
        a, b = self._pipe()
        for n in range(5):
            send_frame(a, {"n": n})
        got = [recv_frame(b) for _ in range(5)]
        assert got == [{"n": n} for n in range(5)]
        a.close(), b.close()

    def test_oversized_frame_rejected(self):
        a, b = self._pipe()
        a.sendall(FRAME_HEADER.pack(MAX_FRAME + 1))
        with pytest.raises(ConnectionError, match="exceeds"):
            recv_frame(b)
        a.close(), b.close()

    def test_label_free_message_round_trips_with_the_shared_empty_labels(self):
        message = Message("sync", "A", "B", {"entry": "e1"}, msg_id=3, seq=1)
        assert message.data_labels == ()
        assert message.data_labels is Message("rgoto", "B", "A", {}).data_labels
        frame, _size = decode_frame(encode_frame(
            {"t": "req", "m": _enc_message(message)}
        ))
        received = _dec_message(frame["m"])
        assert received.data_labels is message.data_labels
        assert (received.kind, received.payload, received.msg_id) == (
            "sync", {"entry": "e1"}, 3
        )

    def test_truncated_stream_raises_connection_error(self):
        a, b = self._pipe()
        a.sendall(FRAME_HEADER.pack(100) + b"short")
        a.close()
        with pytest.raises(ConnectionError):
            recv_frame(b)
        b.close()


# ---------------------------------------------------------------------------
# a host's failure, reported to the coordinator
# ---------------------------------------------------------------------------


class TestFailureFrames:
    """A host's ``failed`` frame re-raises with its real type and the
    context of the exchange that failed."""

    MESSAGE = Message("sync", "A", "B", {}, msg_id=41, seq=7)

    def _through_the_wire(self, error):
        frame = {"t": "failed", "host": "A", **_failure_fields(error)}
        received, _size = decode_frame(encode_frame(frame))
        return _failure_error(received, "distributed run failed on A")

    def test_timeout_keeps_its_type_and_context(self):
        error = self._through_the_wire(
            DeliveryTimeoutError(self.MESSAGE, attempts=6)
        )
        assert isinstance(error, DeliveryTimeoutError)
        assert error.channel == ("A", "B")
        assert (error.seq, error.msg_id, error.message_kind) == (7, 41, "sync")
        assert error.attempts == 6
        assert classify_error(error)[0] == "timeout"

    def test_security_abort_keeps_its_type_and_context(self):
        error = self._through_the_wire(
            SecurityAbort("B", "A", "forged token", message=self.MESSAGE)
        )
        assert isinstance(error, SecurityAbort)
        assert (error.offender, error.victim, error.why) == (
            "B", "A", "forged token"
        )
        assert error.channel == ("A", "B")
        assert (error.seq, error.msg_id, error.msg_kind) == (7, 41, "sync")
        assert classify_error(error)[0] == "quarantine"

    def test_local_abort_has_no_channel(self):
        error = self._through_the_wire(
            SecurityAbort(None, "A", "tampered checkpoint")
        )
        assert isinstance(error, SecurityAbort)
        assert error.channel is None
        assert classify_error(error)[0] == "quarantine"

    def test_anything_else_is_internal(self):
        error = self._through_the_wire(KeyError("boom"))
        assert type(error) is RuntimeError
        assert "distributed run failed on A: internal: KeyError" in str(error)
        assert classify_error(error)[0] == "internal"


# ---------------------------------------------------------------------------
# the TCP-backed Session: lifecycle, refusals and fail-fast
# ---------------------------------------------------------------------------


def _split(module):
    return split_source(module.source(), module.config()).split


class TestTcpSession:
    def test_transport_value_picks_the_backend(self):
        image = RuntimeImage.for_split(_split(tax))
        assert type(Session(image)) is Session
        assert type(Session(image, transport="tcp")) is TcpSession
        with pytest.raises(ValueError, match="unknown transport"):
            Session(image, transport="carrier-pigeon")

    @pytest.mark.parametrize("option", [
        {"faults": FaultInjector(FaultPolicy(drop_prob=0.1), seed=1)},
        {"quarantine": True},
        {"storage": object()},
        {"token_rng": random.Random(0)},
    ], ids=["faults", "quarantine", "storage", "token_rng"])
    def test_simulation_only_options_are_refused(self, option):
        image = RuntimeImage.for_split(_split(tax))
        with pytest.raises(ValueError, match=next(iter(option))):
            Session(image, transport="tcp", **option)
        session = Session(image, transport="tcp")
        with pytest.raises(ValueError, match=next(iter(option))):
            session.reset(**option)
        with pytest.raises(ValueError, match="cannot reset"):
            session.reset(transport="sim")

    def test_lifecycle_guards_and_reuse(self):
        session = Session(RuntimeImage.for_split(_split(tax)), transport="tcp")
        with pytest.raises(RuntimeError, match="never started"):
            session.result()
        with pytest.raises(RuntimeError, match="never started"):
            session.step()
        first = session.run().observables()
        with pytest.raises(RuntimeError, match="already started"):
            session.start()
        # A reset session forks a fresh cluster and runs the same.
        assert session.reset().run().observables() == first

    def test_result_accessors_raise_on_missing_names(self):
        outcome = Session(
            RuntimeImage.for_split(_split(tax)), transport="tcp"
        ).run()
        with pytest.raises(KeyError):
            outcome.field_value("NoSuch", "f")
        with pytest.raises(KeyError):
            outcome.main_var("no_such_var")
        assert outcome.field_value("NoSuch", "f", default=7) == 7

    def test_subscribing_to_the_event_hook_raises(self):
        # The host processes keep their event streams; a subscriber of
        # the coordinator's network would silently see an empty run.
        session = Session(RuntimeImage.for_split(_split(tax)), transport="tcp")
        for subscribe in (
            lambda: record_messages(session.network),
            lambda: Tracer(session),
            lambda: Adversary(session, "Broker"),
        ):
            with pytest.raises(NotImplementedError, match="forward"):
                subscribe()

    def test_a_raising_host_fails_the_run_fast_naming_it(self, monkeypatch):
        handle = TrustedHost.handle

        def broken(self, message):
            if self.name == "B":
                raise RuntimeError("injected host failure")
            return handle(self, message)

        # Patched before the fork, so host B's process inherits it.
        monkeypatch.setattr(TrustedHost, "handle", broken)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="failed on B") as info:
            run_split_over_tcp(_split(ot), timeout=20)
        assert "injected host failure" in str(info.value)
        assert time.monotonic() - started < 5


# ---------------------------------------------------------------------------
# the TCP result against the solo simulated session
# ---------------------------------------------------------------------------


class TestTcpOracleEquality:
    @pytest.mark.parametrize("name,module", [
        ("tax", tax),
        ("medical", medical),
    ])
    def test_observables_bit_identical_to_sim(self, name, module):
        split = _split(module)
        session = Session(RuntimeImage.for_split(split))
        session.run()
        expected = session.observables()
        result = run_split_over_tcp(split)
        assert result.observables() == expected, name

    def test_field_values_match_sim(self):
        split = _split(tax)
        outcome = Session(RuntimeImage.for_split(split)).run()
        result = run_split_over_tcp(split)
        for (cls, field) in split.fields:
            assert result.field_value(cls, field) == outcome.field_value(
                cls, field
            ), (cls, field)

    def test_audit_trail_survives_the_wire(self):
        split = _split(medical)
        outcome = Session(RuntimeImage.for_split(split)).run()
        result = run_split_over_tcp(split)
        # The sim logs audits globally in occurrence order; the TCP
        # result concatenates per-host reports: compare as multisets.
        # (Fault-free runs audit nothing; equality must still hold.)
        assert sorted(result.audits) == sorted(outcome.audits)
