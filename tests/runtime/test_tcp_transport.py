"""The TCP backend end to end: real host processes, oracle equality.

``run_split_over_tcp`` forks one OS process per trusted host, connects
them over 127.0.0.1 sockets with length-prefixed framed messages, and
runs the split program for real.  The acceptance bar is bit-identical
observables — Table 1 message counts, the simulated cost-model clock,
ICS depths — against a solo in-process :class:`Session` over the same
split, for every Table 1 workload.
"""

import socket

import pytest

from repro.runtime.gateway import classify_error
from repro.runtime.network import DeliveryTimeoutError, Message, SecurityAbort
from repro.runtime.session import RuntimeImage, Session
from repro.runtime.transport.base import (
    FRAME_HEADER,
    MAX_FRAME,
    decode_frame,
    encode_frame,
)
from repro.runtime.transport.tcp import (
    _failure_error,
    _failure_fields,
    recv_frame,
    run_split_over_tcp,
    send_frame,
)
from repro.splitter import split_source
from repro.workloads import listcompare, medical, ot, tax, work


def _oracle(split):
    session = Session(RuntimeImage.for_split(split))
    session.run()
    return session.observables()


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
        assert "distributed run failed on A: internal" in str(error)
        assert classify_error(error)[0] == "internal"


# ---------------------------------------------------------------------------
# whole programs over real processes
# ---------------------------------------------------------------------------


WORKLOADS = [
    ("work", work),
    ("tax", tax),
    ("medical", medical),
    ("ot", ot),
    ("list", listcompare),
]


class TestTcpOracleEquality:
    @pytest.mark.parametrize("name,module", WORKLOADS)
    def test_observables_bit_identical_to_sim(self, name, module):
        split = split_source(module.source(), module.config()).split
        expected = _oracle(split)
        result = run_split_over_tcp(split)
        assert result.observables() == expected, name

    def test_field_values_match_sim(self):
        split = split_source(tax.source(), tax.config()).split
        session = Session(RuntimeImage.for_split(split))
        outcome = session.run()
        result = run_split_over_tcp(split)
        for (cls, field) in split.fields:
            assert result.field_value(cls, field) == outcome.field_value(
                cls, field
            ), (cls, field)

    def test_audit_trail_survives_the_wire(self):
        split = split_source(medical.source(), medical.config()).split
        session = Session(RuntimeImage.for_split(split))
        outcome = session.run()
        result = run_split_over_tcp(split)
        # The sim logs audits globally in occurrence order; the TCP
        # result concatenates per-host reports — compare as multisets.
        # (Fault-free runs audit nothing; equality must still hold.)
        assert sorted(result.audits) == sorted(outcome.audits)
