"""A real TCP transport: each TrustedHost as its own process.

The simulated :class:`~repro.runtime.network.SimNetwork` delivers a
message by calling the destination host's handler in the same address
space.  This backend puts the identical protocol on an actual wire:

* **Framing.**  Every frame is a 4-byte big-endian length prefix
  followed by that many bytes of a UTF-8 JSON object, in the one codec
  of :mod:`repro.runtime.transport.base`.  Message payloads —
  tokens, frame ids, object/array references, labels, the ``REJECTED``
  sentinel — ride through the storage codec
  (:mod:`repro.runtime.storage.codec`), the same deterministic
  tagged-JSON encoding the durable tier trusts, so the wire format is
  untrusted-input handling by construction.

* **Envelope.**  The endpoint drives the shared
  :class:`~repro.runtime.transport.base.ReliableChannel` with sockets.
  Frames carry its stamps: the idempotency key (``msg_id``), the
  per-channel sequence number (``seq``) and, for control transfers, a
  per-channel control sequence (``cseq``).  Requests are retransmitted
  on its retry schedule (:class:`WireRetryPolicy`, real seconds spent
  pumping sockets); receivers execute each ``msg_id`` once and hold
  back out-of-order control messages until the gap fills, so
  rgoto/lgoto arrive in program order.  A message past its retry
  budget raises :class:`~repro.runtime.transport.base.
  DeliveryTimeoutError` — fail closed, never answer wrong — with full
  (channel, seq, kind) context, which a host's ``failed`` frame
  carries to the coordinator so the run re-raises it with its type.

* **Accounting.**  :class:`HostEndpoint` inherits the Table 1
  accounting from :class:`~repro.runtime.transport.base.Transport`.
  Each process accounts exactly what the simulation would have charged
  on its side of the wire: the sender charges the message count and
  latency (``_account``), the receiver charges validation and token
  hashing (``charge_check``/``charge_hash``).  The split program has a
  single thread of control and every charge is an integer number of
  simulated microseconds, so the per-host subtotals
  (:class:`TcpSession` adds them up) sum to the oracle run's clock up
  to float rounding in the last bits — the 6-place
  ``simulated_seconds`` of the observables is bit-identical.

* **Processes.**  :class:`TcpSession` (``Session(image,
  transport="tcp")``) forks one process per host and coordinates the
  run over the same framed protocol (``start`` / ``halt`` / ``failed``
  / ``report`` / ``shutdown``).  Children partition the global
  object/frame id counters into disjoint strides so ids minted on
  different hosts can never collide (absolute ids carry no meaning;
  collision-freedom is all that matters, exactly as in rehydration).

Each endpoint is single-threaded: while a host waits for a reply it
keeps pumping its socket set and serves incoming requests, which is
what makes nested synchronization chains (A calls B calls A) work
without threads — the same re-entrancy the in-process simulation gets
from ordinary function calls.
"""

from __future__ import annotations

import itertools
import os
import selectors
import signal
import socket
import threading
import time
import traceback
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..faults import RetryPolicy
from ..network import SimNetwork
from ..session import RuntimeImage, Session
from ..storage.codec import StorageCodecError, dumps, loads
from .base import (
    NO_ACK,
    CostModel,
    DeliveryTimeoutError,
    Message,
    SecurityAbort,
    Transport,
    decode_frame,
    encode_frame,
)

__all__ = [
    "HostEndpoint",
    "TcpSession",
    "WirePolicy",
    "WireRetryPolicy",
    "recv_frame",
    "run_split_over_tcp",
    "send_frame",
]

#: the id-counter stride handed to each forked host, far above anything
#: a single run allocates.
_ID_STRIDE = 10 ** 12

#: the coordinator's name in the address map (never a program host).
COORD = "__coord__"


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, frame: Dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame."""
    sock.sendall(encode_frame(frame))


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Read one length-prefixed JSON frame (blocking socket)."""
    buf = bytearray()
    while True:
        frame, size = decode_frame(buf)
        if frame is not None:
            return frame
        chunk = sock.recv(size - len(buf))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        buf += chunk


class _Conn:
    """One established connection plus its receive buffer."""

    __slots__ = ("sock", "buf", "peer")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = b""
        self.peer: Optional[str] = None

    def frames(self, data: bytes) -> List[Dict[str, Any]]:
        """Feed received bytes; return every complete frame."""
        self.buf += data
        out = []
        while True:
            frame, size = decode_frame(self.buf)
            if frame is None:
                return out
            out.append(frame)
            self.buf = self.buf[size:]


def _enc_message(message: Message) -> Dict[str, Any]:
    return {
        "kind": message.kind,
        "src": message.src,
        "dst": message.dst,
        "payload": dumps(message.payload),
        "labels": dumps(message.data_labels),
        "msg_id": message.msg_id,
        "seq": message.seq,
    }


def _dec_message(data: Dict[str, Any]) -> Message:
    return Message(
        data["kind"],
        data["src"],
        data["dst"],
        loads(data["payload"]),
        data_labels=loads(data["labels"]),
        msg_id=data["msg_id"],
        seq=data["seq"],
    )


# ---------------------------------------------------------------------------
# retry and fault hooks
# ---------------------------------------------------------------------------


class WireRetryPolicy(RetryPolicy):
    """The :class:`~repro.runtime.faults.RetryPolicy` defaults for the
    TCP wire, in wall-clock seconds spent waiting on a real socket."""

    def __init__(
        self,
        base_timeout: float = 1.0,
        backoff: float = 2.0,
        max_timeout: float = 8.0,
        max_retries: int = 5,
        deadline: float = 30.0,
    ) -> None:
        super().__init__(
            base_timeout=base_timeout, backoff=backoff,
            max_retries=max_retries, max_timeout=max_timeout,
            deadline=deadline,
        )


class WirePolicy:
    """Outbound frame hook for fault injection in the conformance suite.

    ``on_send`` receives each frame about to be written and returns the
    list of frames to actually write: ``[frame]`` passes it through,
    ``[]`` drops it (the sender's retransmission timer takes over),
    ``[frame, frame]`` duplicates it, and returning a held-back earlier
    frame after a later one reorders the wire.  The default passes
    everything through — production endpoints run with no policy at
    all, this exists so tests can script loss on a real socket.
    """

    def on_send(self, frame: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [frame]


# ---------------------------------------------------------------------------
# the endpoint
# ---------------------------------------------------------------------------


class HostEndpoint(Transport):
    """One host's transport over real sockets.

    Owns the host's pre-bound listener, dials peers lazily from
    ``addr_map``, and pumps all of its sockets from the calling thread
    — delivery methods (:meth:`request`, :meth:`one_way`, :meth:`post`)
    serve incoming frames while they wait for their own reply, so
    nested synchronization chains cannot deadlock.
    """

    def __init__(
        self,
        name: str,
        listener: socket.socket,
        addr_map: Dict[str, Tuple[str, int]],
        cost_model: Optional[CostModel] = None,
        retry: Optional[WireRetryPolicy] = None,
        wire: Optional[WirePolicy] = None,
        msg_id_floor: int = 1,
    ) -> None:
        super().__init__(cost_model)
        self.name = name
        # Idempotency keys must be globally unique across the cluster
        # (the simulation gets this for free from its single shared
        # counter): each endpoint mints from its own disjoint stride so
        # two hosts can never present the same key to one receiver.
        self.channel.reset(msg_id_floor)
        self.addr_map = dict(addr_map)
        self.retry = retry or WireRetryPolicy()
        #: test-only outbound fault hook (None in production).
        self.wire = wire
        self._handler = None
        self._listener = listener
        listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, "listen")
        self._conns: Dict[socket.socket, _Conn] = {}
        self._out: Dict[str, _Conn] = {}
        #: replies/acks/errors keyed by msg_id, filled by the pump.
        self._replies: Dict[int, Dict[str, Any]] = {}
        #: coordination frames (start/report/shutdown/...) for a serve
        #: loop to consume: (frame, conn) pairs.
        self.inbox: deque = deque()
        self.closed = False

    # -- registration ---------------------------------------------------------

    def register(self, host, handler, on_crash=None, on_restart=None) -> None:
        if host != self.name:
            raise ValueError(
                f"endpoint {self.name!r} can only host {self.name!r}, "
                f"not {host!r}"
            )
        self._handler = handler

    # -- socket plumbing ------------------------------------------------------

    def _track(self, sock: socket.socket) -> _Conn:
        conn = _Conn(sock)
        self._conns[sock] = conn
        self._selector.register(sock, selectors.EVENT_READ, conn)
        return conn

    def _drop_conn(self, conn: _Conn) -> None:
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        self._conns.pop(conn.sock, None)
        for peer, out in list(self._out.items()):
            if out is conn:
                del self._out[peer]
        try:
            conn.sock.close()
        except OSError:
            pass

    def _dial(self, peer: str) -> _Conn:
        conn = self._out.get(peer)
        if conn is not None:
            return conn
        addr = self.addr_map.get(peer)
        if addr is None:
            raise KeyError(f"unknown host {peer!r}")
        sock = socket.create_connection(tuple(addr), timeout=10.0)
        sock.settimeout(None)
        conn = self._track(sock)
        conn.peer = peer
        self._out[peer] = conn
        send_frame(sock, {"t": "hello", "from": self.name})
        return conn

    def _write(self, conn: _Conn, frame: Dict[str, Any]) -> None:
        frames = [frame] if self.wire is None else self.wire.on_send(frame)
        for out in frames:
            send_frame(conn.sock, out)

    def pump(self, timeout: float) -> None:
        """Process socket events for up to ``timeout`` seconds (one
        selector round; returns after the first batch of events)."""
        if self.closed:
            return
        events = self._selector.select(timeout)
        for key, _mask in events:
            if key.data == "listen":
                try:
                    sock, _ = self._listener.accept()
                except OSError:
                    continue
                sock.setblocking(True)
                self._track(sock)
                continue
            conn = key.data
            try:
                data = conn.sock.recv(65536)
            except OSError:
                self._drop_conn(conn)
                continue
            if not data:
                self._drop_conn(conn)
                continue
            try:
                frames = conn.frames(data)
            except ConnectionError as error:
                self.audit(self.name, f"undecodable frame stream: {error}")
                self._drop_conn(conn)
                continue
            for frame in frames:
                self._dispatch(frame, conn)

    # -- inbound frames -------------------------------------------------------

    def _dispatch(self, frame: Dict[str, Any], conn: _Conn) -> None:
        kind = frame.get("t")
        if kind == "hello":
            conn.peer = frame.get("from")
        elif kind == "req":
            self._serve_request(frame, conn)
        elif kind in ("rep", "ack", "err"):
            self._replies[frame["id"]] = frame
        elif kind == "post":
            self._serve_post(frame, conn)
        else:
            self.inbox.append((frame, conn))

    def _serve_request(self, frame: Dict[str, Any], conn: _Conn) -> None:
        # No handler is re-entered for a duplicate, even one arriving
        # while the first execution still pumps; the TrustedHost's
        # durable ``_seen_requests`` answers ones older than the window.
        reply = self.channel.serve(
            frame["m"]["src"], frame["m"]["msg_id"],
            lambda: self._execute(frame["m"]),
        )
        if reply is not None:
            self._write(conn, reply)

    def _execute(self, data: Dict[str, Any]) -> Dict[str, Any]:
        """Run one decoded request through the handler; the reply frame."""
        msg_id = data["msg_id"]
        try:
            message = _dec_message(data)
        except (StorageCodecError, KeyError, TypeError) as error:
            self.audit(self.name, f"undecodable request: {error}")
            return {
                "t": "err", "id": msg_id, "code": "bad-request",
                "detail": f"undecodable request: {error}",
            }
        try:
            result = self._handler(message)
        except SecurityAbort as abort:
            return {"t": "err", "id": msg_id, **_failure_fields(abort)}
        try:
            return {"t": "rep", "id": msg_id, "r": dumps(result)}
        except StorageCodecError as error:
            return {
                "t": "err", "id": msg_id, "code": "internal",
                "detail": f"unencodable reply: {error}",
            }

    def _serve_post(self, frame: Dict[str, Any], conn: _Conn) -> None:
        # Always ack — even duplicates and holdbacks — so the sender's
        # retransmission timer stops; ordering is our problem now.
        self._write(conn, {"t": "ack", "id": frame["m"]["msg_id"]})
        try:
            message = _dec_message(frame["m"])
        except (StorageCodecError, KeyError, TypeError) as error:
            self.audit(self.name, f"undecodable control message: {error}")
            return
        self._queue.extend(self.channel.release(message, frame["cseq"]))

    # -- outbound exchanges ---------------------------------------------------

    def request(self, message: Message) -> Any:
        if message.dst == self.name:
            if message.src == message.dst:
                return self._handler(message)
            raise KeyError(
                f"{self.name} cannot originate remote requests to itself"
            )
        if message.src == message.dst:
            raise KeyError(f"unknown host {message.dst!r}")
        return self._send(message, 2)

    def one_way(self, message: Message, messages: int = 1) -> Any:
        if message.dst == self.name:
            return self._handler(message)
        return self._send(message, messages)

    def post(self, message: Message) -> None:
        if message.src == message.dst:
            self._queue.append(message)
            return
        self._send(message, 1, control=True)

    def _send(
        self, message: Message, messages: int, control: bool = False
    ) -> Any:
        """Stamp, account and reliably deliver ``message``: the shared
        channel's retry schedule, each wait spent pumping the sockets
        (serving incoming frames, so nested chains re-enter here)."""
        if self.quarantine_enabled:
            self._check_quarantine(message)
        self.channel.stamp(message)
        self._account(message, messages=messages)
        if control:
            frame = {
                "t": "post", "m": _enc_message(message),
                "cseq": self.channel.control_seq(message),
            }
        else:
            frame = {"t": "req", "m": _enc_message(message)}
        msg_id = message.msg_id

        def send() -> Any:
            self._write(self._dial(message.dst), frame)
            return NO_ACK

        def wait(timer: float) -> Any:
            deadline = time.monotonic() + timer
            while msg_id not in self._replies:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return NO_ACK
                self.pump(remaining)
            return self._consume_reply(message, self._replies.pop(msg_id))

        return self.channel.deliver(message, send, wait, self.retry)

    def _consume_reply(self, message: Message, reply: Dict[str, Any]) -> Any:
        if reply["t"] == "ack":
            return None
        if reply["t"] == "err":
            raise _failure_error(
                reply, f"remote error from {message.dst}", message
            )
        return loads(reply["r"])

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for conn in list(self._conns.values()):
            self._drop_conn(conn)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._selector.close()


def _failure_fields(error: BaseException) -> Dict[str, Any]:
    """The wire form of a fail-closed error: its code and detail plus
    the (src, dst, seq, msg_id, kind, attempts) of the exchange it
    names, so the far side can re-raise it with its real type."""
    fields: Dict[str, Any] = {"detail": str(error)}
    if isinstance(error, DeliveryTimeoutError):
        fields.update(
            code="timeout", kind=error.message_kind,
            attempts=error.attempts,
        )
    elif isinstance(error, SecurityAbort):
        fields.update(
            code="quarantine", kind=error.msg_kind, offender=error.offender,
            victim=error.victim, why=error.why,
        )
    else:
        return {
            "code": "internal", "detail": f"{type(error).__name__}: {error}"
        }
    fields.update(
        src=error.src, dst=error.dst, seq=error.seq, msg_id=error.msg_id
    )
    return fields


def _failure_error(
    fields: Dict[str, Any], where: str, message: Optional[Message] = None
) -> Exception:
    """The exception a failure frame describes (see
    :func:`_failure_fields`); ``message``, when given, is the local
    exchange the failure answers."""
    code = fields.get("code")
    if message is None and fields.get("kind") is not None:
        message = Message(
            fields["kind"], fields.get("src"), fields.get("dst"), {},
            msg_id=fields.get("msg_id"), seq=fields.get("seq"),
        )
    if code == "timeout" and message is not None:
        return DeliveryTimeoutError(message, fields.get("attempts", 0))
    if code == "quarantine":
        return SecurityAbort(
            fields.get("offender"), fields.get("victim"),
            fields.get("why") or fields.get("detail") or "remote abort",
            message=message,
        )
    return RuntimeError(f"{where}: {code}: {fields.get('detail')}")




# ---------------------------------------------------------------------------
# whole-program runs: one forked process per host
# ---------------------------------------------------------------------------

#: Held from fork to reap: one thread at a time forks and runs a
#: cluster.  Re-entrant, so one thread may interleave clusters (a
#: MultiSessionDriver over TCP sessions); a TCP session's start, step
#: and reset therefore belong to one thread.
_FORK_LOCK = threading.RLock()


def _child_serve(endpoint: HostEndpoint, host) -> None:
    """The forked host's event loop: pump frames, execute control
    transfers in order, answer coordination frames.  Any exception ends
    it with a ``failed`` frame naming this host."""
    from ..host import HaltSignal

    def tell_coord(frame: Dict[str, Any]) -> None:
        endpoint._write(endpoint._dial(COORD), {"host": endpoint.name, **frame})

    try:
        while True:
            endpoint.pump(0.1)
            # Pending control transfers run strictly in cseq order.
            message = endpoint.pop_control()
            while message is not None:
                try:
                    host.handle(message)
                except HaltSignal:
                    tell_coord({"t": "halt"})
                message = endpoint.pop_control()
            while endpoint.inbox:
                frame, conn = endpoint.inbox.popleft()
                kind = frame.get("t")
                if kind == "start":
                    if host.run_main(loads(frame["main"])):
                        tell_coord({"t": "halt"})
                elif kind == "report":
                    # What this host accounted, and its final state.
                    endpoint._write(conn, {
                        "t": "obs",
                        "counts": dict(endpoint.counts),
                        "clock": endpoint.clock,
                        "check_time": endpoint.check_time,
                        "hash_time": endpoint.hash_time,
                        "eliminated": endpoint.eliminated_roundtrips,
                        "audits": endpoint.audit_log,
                        "state": dumps(host.snapshot_state()),
                    })
                elif kind == "shutdown":
                    return
    except Exception as error:  # noqa: BLE001 — reported, then the host stops
        tell_coord({"t": "failed", **_failure_fields(error)})


def _child_main(
    index: int,
    name: str,
    listeners: Dict[str, socket.socket],
    addr_map: Dict[str, Tuple[str, int]],
    session,
) -> None:
    from .. import values as values_mod
    from ..host import TrustedHost

    for other, sock in listeners.items():
        if other != name:
            sock.close()
    # Partition the id spaces: ids minted on different hosts must never
    # collide when they meet inside a payload (absolute values carry no
    # meaning — this is the forked twin of codec.advance_id_floors).
    floor = 1 + (index + 1) * _ID_STRIDE
    values_mod._object_ids = itertools.count(floor)
    values_mod._frame_ids = itertools.count(floor)
    endpoint = HostEndpoint(
        name, listeners[name], addr_map, cost_model=session.network.cost,
        msg_id_floor=floor,
    )
    image, template = session.image, session.hosts[name]
    host = TrustedHost(
        name, image.split, endpoint, image.registry,
        opt_level=template.opt_level,
        image=image.host_images[name],
    )
    try:
        _child_serve(endpoint, host)
    finally:
        endpoint.close()


def _reap(pids: List[int], grace: float) -> None:
    """Wait for the children, SIGKILLing any still alive after
    ``grace`` seconds."""
    deadline = time.monotonic() + grace
    for pid in pids:
        try:
            while os.waitpid(pid, os.WNOHANG)[0] == 0:
                if time.monotonic() >= deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.02)
        except ChildProcessError:
            pass


def _refuse(simulated: Dict[str, Any]) -> None:
    """``faults``, ``token_rng``, ``quarantine``, ``storage``: sim only."""
    for name, value in simulated.items():
        if value is not None and value is not False:
            raise ValueError(f"the tcp transport does not support {name}")


class _ReportTally(SimNetwork):
    """A :class:`TcpSession`'s ``network``: the sum of its host
    reports.  Nothing is delivered through it, and the host processes
    do not forward their own event streams to the coordinator, so
    subscribing to its event hook raises instead of observing an empty
    run."""

    def on_event(self, callback) -> None:
        raise NotImplementedError(
            "a TCP session's hosts do not forward their message and "
            "fault events to the coordinator, so its network has no "
            "event hook: record_messages, Tracer and Adversary need a "
            "simulated session"
        )


class TcpSession(Session):
    """A :class:`~repro.runtime.session.Session` whose hosts run as
    forked processes over real 127.0.0.1 sockets:
    ``Session(image, transport="tcp")``.

    :meth:`start` pre-binds one listener per host (the port map needs
    no discovery), forks one child per host — each inherits the image,
    key registry and its listener; nothing is pickled — and sends the
    main host ``start`` with the main frame, for
    :meth:`~repro.runtime.host.TrustedHost.run_main`.  :meth:`step`
    blocks until a host reports ``halt`` or ``failed``, then adds the
    host reports into ``network`` (the summed accounting; nothing is
    delivered through it, so subscribing to its event hook raises) and
    ``hosts`` (their final state), so
    :meth:`result` and :meth:`observables` read as a simulated
    session's.  A host's failure kills the cluster and re-raises with
    its type, else as a :class:`RuntimeError` naming the host.  The
    simulation's own options raise :class:`ValueError`.
    """

    transport = "tcp"
    network_type = _ReportTally
    #: wall-clock budget of one run, in seconds.
    timeout = 120.0

    def __init__(
        self,
        image,
        cost_model: Optional[CostModel] = None,
        opt_level: int = 1,
        transport: str = "tcp",
        **simulated,
    ) -> None:
        _refuse(simulated)
        #: the live cluster: host process pid -> host name.
        self._pids: Dict[int, str] = {}
        self._coord: Optional[socket.socket] = None
        super().__init__(image, cost_model, opt_level, storage=None)

    def reset(
        self,
        cost_model: Optional[CostModel] = None,
        opt_level: int = 1,
        transport: Optional[str] = None,
        **simulated,
    ) -> "TcpSession":
        _refuse(simulated)
        self._reap(0.0)
        return super().reset(
            cost_model, opt_level, storage=None, transport=transport
        )

    def start(self) -> bool:
        main_frame = self._begin()
        names = [descriptor.name for descriptor in self.split.config.hosts]
        listeners: Dict[str, socket.socket] = {}
        for name in names + [COORD]:
            sock = listeners[name] = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            sock.listen(64)
        self._addr_map = {n: s.getsockname() for n, s in listeners.items()}
        # Held from fork to reap: _reap releases it with the listener.
        _FORK_LOCK.acquire()
        self._coord = listeners.pop(COORD)
        self._deadline = time.monotonic() + self.timeout
        try:
            for index, name in enumerate(names):
                pid = os.fork()
                if pid == 0:
                    status = 0
                    try:
                        self._coord.close()
                        _child_main(
                            index, name, listeners, self._addr_map, self
                        )
                    except BaseException:
                        traceback.print_exc()
                        status = 70
                    finally:
                        os._exit(status)
                self._pids[pid] = name
            with socket.create_connection(
                self._addr_map[self.split.main_host], timeout=self.timeout
            ) as conn:
                send_frame(conn, {"t": "start", "main": dumps(main_frame)})
        except BaseException:
            self._reap(0.0)
            raise
        finally:
            for sock in listeners.values():
                sock.close()
        return False

    def _deliver(self, count: Optional[int]) -> bool:
        """The whole run happens in the host processes: wait for the
        halt (any ``count``), then merge the hosts' reports."""
        if self._halted:
            return True
        if self._coord is None:
            raise RuntimeError("the TCP session was never started")
        try:
            self._await_halt()
            reports = {name: self._report(name) for name in self._addr_map
                       if name != COORD}
        except BaseException:
            self._reap(0.0)
            raise
        self._reap(10.0)
        network = self.network
        for name, report in reports.items():
            network.counts.update(report["counts"])
            network.clock += report["clock"]
            network.check_time += report["check_time"]
            network.hash_time += report["hash_time"]
            network.eliminated_roundtrips += report["eliminated"]
            network.audit_log.extend(report["audits"])
            self.hosts[name].install_state(loads(report["state"]))
        self._halted = True
        return True

    def _await_halt(self) -> None:
        """Block until a host reports ``halt``.  A ``failed`` frame
        re-raises the host's error; a host process that exits first, or
        the wall-clock budget running out, raise too."""
        self._coord.settimeout(0.05)
        while True:
            try:
                sock, _ = self._coord.accept()
            except socket.timeout:
                if time.monotonic() > self._deadline:
                    raise TimeoutError(
                        f"the TCP cluster reached no outcome in "
                        f"{self.timeout:g}s"
                    ) from None
                for pid, name in self._pids.items():
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        del self._pids[pid]
                        raise RuntimeError(
                            f"distributed run failed on {name}: its "
                            "process exited without reporting"
                        )
                continue
            with sock:
                sock.settimeout(self.timeout)
                frame = recv_frame(sock)
                while frame.get("t") == "hello":
                    frame = recv_frame(sock)
            if frame.get("t") == "failed":
                raise _failure_error(
                    frame, f"distributed run failed on {frame.get('host')}"
                )
            if frame.get("t") == "halt":
                return

    def _report(self, name: str) -> Dict[str, Any]:
        """Host ``name``'s report; it shuts down once it has sent it."""
        with socket.create_connection(
            self._addr_map[name], timeout=self.timeout
        ) as conn:
            send_frame(conn, {"t": "report"})
            report = recv_frame(conn)
            if report.get("t") != "obs":
                raise RuntimeError(
                    f"unexpected report frame from {name}: {report!r}"
                )
            send_frame(conn, {"t": "shutdown"})
        return report

    def _reap(self, grace: float) -> None:
        """End the cluster, if one is running: reap its processes (see
        :func:`_reap`), close the coordinator's listener and release
        :data:`_FORK_LOCK`."""
        if self._coord is None:
            return
        try:
            _reap(list(self._pids), grace)
            self._pids.clear()
            self._coord.close()
        finally:
            self._coord = None
            _FORK_LOCK.release()


def run_split_over_tcp(
    split, registry=None, opt_level=1, cost_model=None, timeout=120.0
):
    """One run of ``split`` on a :class:`TcpSession`; returns its
    :class:`~repro.runtime.session.ExecutionResult`."""
    session = Session(
        RuntimeImage.for_split(split, registry), cost_model, opt_level,
        transport="tcp",
    )
    session.timeout = timeout
    return session.run()
