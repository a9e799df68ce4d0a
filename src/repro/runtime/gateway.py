"""The serve-mode gateway: many clients, one runtime, structured errors.

``repro serve`` turns the partitioning runtime into a long-lived
service.  Clients connect over TCP, authenticate a *principal* in a
hello frame, and then multiplex any number of concurrent execution
requests over the single connection; the gateway runs each request
on a pooled session (:class:`~repro.runtime.session.SessionPool` over
a shared :class:`~repro.runtime.session.RuntimeImage`, one pool per
workload and transport) — simulated by default, or over real forked
host processes (:class:`~repro.runtime.transport.tcp.TcpSession`)
when the request names ``"transport": "tcp"`` — and replies with the
run's observables.

Contract highlights:

* **Framing** — the same 4-byte big-endian length-prefixed JSON frames
  the host-to-host wire uses, decoded by the one codec in
  :mod:`repro.runtime.transport.base`.  A malformed frame (over the
  cap, not JSON, not a JSON object) is answered with a ``bad-request``
  error frame and the connection is closed: the stream cannot be
  resynchronized after one.
* **Multiplexing** — each ``run`` frame carries a client-chosen ``id``;
  replies carry it back, so a client may pipeline requests and match
  responses out of order.  Requests from one connection execute
  concurrently (blocking session work runs on worker threads).
* **Rate limiting** — per-principal token buckets
  (:class:`~repro.runtime.transport.rate_limit.PrincipalRateLimiter`);
  an over-quota request is shed with a ``rate-limit`` error frame
  carrying ``retry_after`` seconds.  One principal's quota never
  affects another's.
* **Structured errors** — a failed request always produces
  ``{"t": "error", "id": ..., "code": ..., "detail": ...}`` with a
  code from the closed set ``bad-request`` / ``rate-limit`` /
  ``timeout`` / ``quarantine`` / ``storage-degraded`` / ``internal``
  — never a raw traceback on the wire.  The CLI error paths use the
  same codes (``repro run`` on a missing file prints the same
  ``bad-request`` shape the gateway would send).

The gateway is deterministic where it matters: pooled sessions are
reset between requests, so every run of a workload reports observables
bit-identical to a fresh solo :class:`~repro.runtime.session.Session`
— the property :func:`smoke` (the CI serve-smoke job) asserts for all
five Table 1 workloads over both the pooled path and real TCP host
processes, under ≥16 concurrent clients.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple

from ..reporting.serve import ServeStats
from ..splitter import split_source
from .network import DeliveryTimeoutError, SecurityAbort
from .session import RuntimeImage, Session, SessionPool
from .storage import StorageUnavailableError
from .transport.base import FrameError, decode_frame, encode_frame
from .transport.rate_limit import PrincipalRateLimiter

#: The closed set of wire error codes (gateway and CLI share it).
ERROR_CODES = (
    "bad-request",
    "rate-limit",
    "timeout",
    "quarantine",
    "storage-degraded",
    "internal",
)

#: Workloads servable by name: the five Table 1 programs.
WORKLOAD_NAMES = ("list", "ot", "tax", "work", "medical")


def _workload_module(name: str):
    from .. import workloads

    return {
        "list": workloads.listcompare,
        "ot": workloads.ot,
        "tax": workloads.tax,
        "work": workloads.work,
        "medical": workloads.medical,
    }[name]


class GatewayError(Exception):
    """A request failure with a structured wire representation."""

    def __init__(
        self, code: str, detail: str, retry_after: Optional[float] = None
    ) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown gateway error code {code!r}")
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.retry_after = retry_after

    def frame(self, request_id: Any) -> Dict[str, Any]:
        frame: Dict[str, Any] = {
            "t": "error",
            "id": request_id,
            "code": self.code,
            "detail": self.detail,
        }
        if self.retry_after is not None:
            frame["retry_after"] = round(self.retry_after, 6)
        return frame


def classify_error(exc: BaseException) -> Tuple[str, str]:
    """Map a runtime exception onto the structured error contract."""
    if isinstance(exc, GatewayError):
        return exc.code, exc.detail
    if isinstance(exc, DeliveryTimeoutError):
        return "timeout", str(exc)
    if isinstance(exc, SecurityAbort):
        return "quarantine", str(exc)
    if isinstance(exc, StorageUnavailableError):
        return "storage-degraded", str(exc)
    if isinstance(exc, (KeyError, ValueError, TypeError)):
        return "bad-request", str(exc)
    return "internal", f"{type(exc).__name__}: {exc}"


# -- asyncio framing (the shared codec of transport.base) -----------------


async def read_frame(reader: asyncio.StreamReader) -> Dict[str, Any]:
    buf = b""
    while True:
        frame, size = decode_frame(buf)
        if frame is not None:
            return frame
        buf += await reader.readexactly(size - len(buf))


async def write_frame(
    writer: asyncio.StreamWriter, frame: Dict[str, Any]
) -> None:
    writer.write(encode_frame(frame))
    await writer.drain()


# -- the gateway -----------------------------------------------------------


class Gateway:
    """Asyncio TCP server multiplexing execution requests per client."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        rate: float = 16.0,
        burst: float = 32.0,
        opt_level: int = 1,
        stats: Optional[ServeStats] = None,
        run_timeout: float = 120.0,
    ) -> None:
        self.host = host
        self.port = port
        self.opt_level = opt_level
        self.run_timeout = run_timeout
        self.stats = stats or ServeStats()
        self.limiter = PrincipalRateLimiter(rate, burst)
        self._server: Optional[asyncio.base_events.Server] = None
        #: (workload, transport) -> pool; built lazily, thread-safe.
        self._pools: Dict[Tuple[str, str], SessionPool] = {}
        self._pools_lock = threading.Lock()
        #: serializes pool acquire/release across worker threads.
        self._session_lock = threading.Lock()
        #: live per-connection handler tasks, reaped by close().
        self._conn_tasks: set = set()
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._client, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() first")
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Reap connection handlers before the loop goes away, so no
        # half-cancelled task survives into interpreter teardown.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()

    # -- execution ---------------------------------------------------------

    def _pool(self, name: str, transport: str = "sim") -> SessionPool:
        """The session pool serving ``name`` over ``transport``.

        Built on first request (frontend + splitter run once; the pool
        then serves every later request from recycled sessions).
        """
        with self._pools_lock:
            pool = self._pools.get((name, transport))
            if pool is None:
                module = _workload_module(name)
                split = split_source(module.source(), module.config()).split
                pool = self._pools[name, transport] = SessionPool(
                    RuntimeImage.for_split(split),
                    opt_level=self.opt_level,
                    transport=transport,
                )
            return pool

    def oracle(self, name: str) -> Dict[str, Any]:
        """Fresh solo-session observables for ``name`` (the invariant
        every pooled or TCP run must reproduce bit-identically)."""
        session = Session(self._pool(name).image, opt_level=self.opt_level)
        session.run()
        return session.observables()

    def _execute(self, name: str, transport: str) -> Dict[str, Any]:
        """Run ``name`` on a pooled session (worker thread)."""
        pool = self._pool(name, transport)
        with self._session_lock:
            session = pool.acquire()
        try:
            if transport == "tcp":
                session.timeout = self.run_timeout
            session.run()
            return session.observables()
        finally:
            with self._session_lock:
                pool.release(session)

    # -- per-connection protocol -------------------------------------------

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.note_connection()
        me = asyncio.current_task()
        if me is not None:
            self._conn_tasks.add(me)
        write_lock = asyncio.Lock()
        # In-flight request tasks only: each leaves the set as it
        # finishes, so a long-lived connection holds no finished task.
        tasks: Set[asyncio.Task] = set()

        async def send(frame: Dict[str, Any]) -> None:
            async with write_lock:
                await write_frame(writer, frame)

        try:
            hello = await read_frame(reader)
            if hello.get("t") != "hello" or not isinstance(
                hello.get("principal"), str
            ):
                await send(GatewayError(
                    "bad-request", "expected hello frame with a principal"
                ).frame(None))
                return
            principal = hello["principal"]
            await send({"t": "welcome", "workloads": list(WORKLOAD_NAMES)})
            while True:
                try:
                    frame = await read_frame(reader)
                except FrameError:
                    raise
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                kind = frame.get("t")
                if kind == "bye":
                    break
                if kind == "stats":
                    await send({"t": "stats", "stats": self.stats.snapshot()})
                elif kind != "run":
                    await send(GatewayError(
                        "bad-request", f"unknown frame type {kind!r}"
                    ).frame(frame.get("id")))
                else:
                    task = asyncio.ensure_future(
                        self._run(frame, principal, send)
                    )
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except FrameError as error:
            # Fail closed: say why, then drop the unusable stream.
            try:
                await send(GatewayError("bad-request", str(error)).frame(None))
            except ConnectionError:
                pass
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except asyncio.CancelledError:
            # Gateway shutdown: end the handler quietly — asyncio's
            # stream-protocol callback re-raises if the task stays
            # cancelled, and there is nothing left to unwind here.
            pass
        finally:
            if me is not None:
                self._conn_tasks.discard(me)
            for task in tasks:
                if not task.done():
                    task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _run(
        self,
        frame: Dict[str, Any],
        principal: str,
        send: Callable[[Dict[str, Any]], Awaitable[None]],
    ) -> None:
        request_id = frame.get("id")
        workload = frame.get("workload")
        transport = frame.get("transport", "sim")
        start = time.perf_counter()
        try:
            if workload not in WORKLOAD_NAMES:
                raise GatewayError(
                    "bad-request",
                    f"unknown workload {workload!r}; "
                    f"serving {', '.join(WORKLOAD_NAMES)}",
                )
            if transport not in ("sim", "tcp"):
                raise GatewayError(
                    "bad-request", f"unknown transport {transport!r}"
                )
            allowed, retry_after = self.limiter.admit(principal)
            if not allowed:
                raise GatewayError(
                    "rate-limit",
                    f"principal {principal!r} over quota",
                    retry_after=retry_after,
                )
            observables = await asyncio.wait_for(
                asyncio.to_thread(self._execute, workload, transport),
                timeout=self.run_timeout,
            )
        except asyncio.TimeoutError:
            error = GatewayError(
                "timeout",
                f"{workload} exceeded the {self.run_timeout:.0f}s budget",
            )
            self.stats.record(str(workload), 0.0, code=error.code)
            await send(error.frame(request_id))
        except BaseException as exc:  # noqa: BLE001 — contract boundary
            if isinstance(exc, asyncio.CancelledError):
                raise
            code, detail = classify_error(exc)
            self.stats.record(str(workload), 0.0, code=code)
            error = (
                exc
                if isinstance(exc, GatewayError)
                else GatewayError(code, detail)
            )
            await send(error.frame(request_id))
        else:
            wall = time.perf_counter() - start
            self.stats.record(workload, wall, code=None)
            await send({
                "t": "result",
                "id": request_id,
                "workload": workload,
                "transport": transport,
                "observables": observables,
                "wall_seconds": round(wall, 9),
            })


# -- client helper ---------------------------------------------------------


class GatewayClient:
    """Async client: one connection, pipelined multiplexed requests."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        welcome: Dict[str, Any],
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.welcome = welcome
        self._ids = 0
        self._pending: Dict[Any, asyncio.Future] = {}
        self._stats_waiters: List[asyncio.Future] = []
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str, port: int, principal: str
    ) -> "GatewayClient":
        reader, writer = await asyncio.open_connection(host, port)
        await write_frame(writer, {"t": "hello", "principal": principal})
        welcome = await read_frame(reader)
        return cls(reader, writer, welcome)

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame.get("t") == "stats":
                    if self._stats_waiters:
                        self._stats_waiters.pop(0).set_result(frame["stats"])
                    continue
                future = self._pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            # However the loop ends (hang-up, a frame read_frame refuses,
            # cancellation by close), nothing will answer a waiter again.
            waiters = [*self._pending.values(), *self._stats_waiters]
            self._pending.clear()
            self._stats_waiters.clear()
            for future in waiters:
                if not future.done():
                    future.set_exception(ConnectionError("gateway closed"))

    def _waiter(self) -> asyncio.Future:
        """A future for one reply; ``ConnectionError`` at once when the
        read loop has ended and so would never resolve it."""
        if self._reader_task.done():
            raise ConnectionError("gateway closed")
        return asyncio.get_running_loop().create_future()

    async def run(
        self, workload: str, transport: str = "sim"
    ) -> Dict[str, Any]:
        """One execution request; returns the result *or* error frame."""
        future = self._waiter()
        self._ids += 1
        request_id = self._ids
        self._pending[request_id] = future
        await write_frame(
            self._writer,
            {
                "t": "run",
                "id": request_id,
                "workload": workload,
                "transport": transport,
            },
        )
        return await future

    async def stats(self) -> Dict[str, Any]:
        future = self._waiter()
        self._stats_waiters.append(future)
        await write_frame(self._writer, {"t": "stats"})
        return await future

    async def close(self) -> None:
        try:
            await write_frame(self._writer, {"t": "bye"})
        except ConnectionError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass
        self._reader_task.cancel()


# -- the serve smoke (CI acceptance sequence) ------------------------------


async def _smoke_async(verbose: bool) -> List[str]:
    failures: List[str] = []

    def note(line: str) -> None:
        if verbose:
            print(f"serve-smoke: {line}")

    gateway = Gateway(rate=1000.0, burst=1000.0)
    host, port = await gateway.start()
    note(f"gateway listening on {host}:{port}")
    try:
        # 1. All five Table 1 workloads over real TCP host processes,
        #    requested through the gateway, bit-identical to the solo
        #    simulated oracle.
        oracles = {
            name: await asyncio.to_thread(gateway.oracle, name)
            for name in WORKLOAD_NAMES
        }
        client = await GatewayClient.connect(host, port, "smoke-tcp")
        for name in WORKLOAD_NAMES:
            reply = await client.run(name, transport="tcp")
            if reply.get("t") != "result":
                failures.append(f"tcp {name}: {reply}")
            elif reply["observables"] != oracles[name]:
                failures.append(
                    f"tcp {name}: observables diverge from oracle\n"
                    f"  tcp:    {reply['observables']}\n"
                    f"  oracle: {oracles[name]}"
                )
            else:
                note(
                    f"tcp {name}: observables match oracle "
                    "("
                    f"{reply['observables']['messages']['total_messages']}"
                    " msgs, "
                    f"{reply['wall_seconds']:.2f}s wall)"
                )
        await client.close()

        # 2. ≥16 concurrent clients multiplexed over pooled sessions,
        #    every run bit-identical to the oracle.
        async def one_client(index: int) -> Optional[str]:
            name = WORKLOAD_NAMES[index % len(WORKLOAD_NAMES)]
            c = await GatewayClient.connect(host, port, f"client-{index}")
            try:
                replies = await asyncio.gather(c.run(name), c.run(name))
            finally:
                await c.close()
            for reply in replies:
                if reply.get("t") != "result":
                    return f"client-{index} {name}: {reply}"
                if reply["observables"] != oracles[name]:
                    return f"client-{index} {name}: diverged from oracle"
            return None

        results = await asyncio.gather(*(one_client(i) for i in range(16)))
        failures.extend(r for r in results if r)
        note("16 concurrent clients x2 runs each: all bit-identical")

        stats = gateway.stats.snapshot()
        if stats["latency"]["count"] < 16 * 2 + len(WORKLOAD_NAMES):
            failures.append(f"latency counters missing runs: {stats}")
        note(
            f"latency: p50={stats['latency']['p50']:.4f}s "
            f"p99={stats['latency']['p99']:.4f}s over "
            f"{stats['latency']['count']} runs"
        )
    finally:
        await gateway.close()

    # 3. Rate limiting sheds the over-quota principal with a structured
    #    error while another principal on the same gateway is untouched.
    limited = Gateway(rate=0.001, burst=3.0)
    host, port = await limited.start()
    try:
        greedy = await GatewayClient.connect(host, port, "greedy")
        polite = await GatewayClient.connect(host, port, "polite")
        replies = await asyncio.gather(
            *(greedy.run("work") for _ in range(6))
        )
        shed = [r for r in replies if r.get("t") == "error"]
        served = [r for r in replies if r.get("t") == "result"]
        if len(served) != 3 or len(shed) != 3:
            failures.append(
                f"rate limiter: expected 3 served / 3 shed, got "
                f"{len(served)} / {len(shed)}"
            )
        for reply in shed:
            if reply.get("code") != "rate-limit" or "retry_after" not in reply:
                failures.append(f"malformed rate-limit error: {reply}")
        polite_reply = await polite.run("work")
        if polite_reply.get("t") != "result":
            failures.append(f"polite principal was shed: {polite_reply}")
        note(
            f"rate limiter shed {len(shed)} over-quota requests "
            f"(retry_after={shed[0].get('retry_after') if shed else '?'}s); "
            "other principal unaffected"
        )

        # 4. Unknown workload gets a structured bad-request, never a
        #    traceback.
        bad = await polite.run("no-such-workload")
        if bad.get("t") != "error" or bad.get("code") != "bad-request":
            failures.append(f"bad workload not rejected cleanly: {bad}")
        note("unknown workload rejected with bad-request error frame")
        await greedy.close()
        await polite.close()
    finally:
        await limited.close()
    return failures


def smoke(verbose: bool = True) -> int:
    """The CI serve-smoke acceptance sequence; returns an exit code."""
    failures = asyncio.run(_smoke_async(verbose))
    if failures:
        for failure in failures:
            print(f"serve-smoke: FAIL {failure}")
        return 1
    if verbose:
        print("serve-smoke: OK")
    return 0
