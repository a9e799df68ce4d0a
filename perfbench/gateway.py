"""A ``repro serve`` subprocess, and an open-loop probe through it."""

from __future__ import annotations

import asyncio
import os
import random
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.runtime.gateway import GatewayClient

import corpus
from common import MAX_LAG_SHARE, InvalidRun, Tally, Tracer, median

#: Token-bucket settings far above any offered load, so no request is
#: shed by the rate limiter (``runtime.gateway.shed`` must read 0).
LIMITER_RATE = "1000000"
LIMITER_BURST = "1000000"

LAUNCH_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServeProcess:
    """One gateway: launched with an explicit port, awaited by
    connect-polling (its banner is block-buffered on a pipe), stopped
    with SIGINT so it prints its summary and exits 0."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.port = _free_port()
        self.proc: Optional[subprocess.Popen] = None
        self.clients: List[GatewayClient] = []

    async def start(self, principals: List[str]) -> List[GatewayClient]:
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        deadline = time.perf_counter() + LAUNCH_TIMEOUT_S
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", str(self.port),
                "--rate", LIMITER_RATE, "--burst", LIMITER_BURST,
            ],
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        while True:
            if self.proc.poll() is not None:
                raise InvalidRun(f"gateway exited early ({self.proc.returncode})")
            try:
                first = await GatewayClient.connect(
                    "127.0.0.1", self.port, principals[0]
                )
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise InvalidRun("gateway never accepted a connection")
                await asyncio.sleep(0.005)
        self.clients = [first]
        for principal in principals[1:]:
            self.clients.append(
                await GatewayClient.connect("127.0.0.1", self.port, principal)
            )
        return self.clients

    async def stop(self) -> None:
        """Close the clients, SIGINT the gateway, and require exit code 0
        and the summary line it prints on the way out."""
        for client in self.clients:
            await client.close()
        self.clients = []
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        proc.send_signal(signal.SIGINT)
        try:
            out, err = await asyncio.to_thread(
                proc.communicate, timeout=STOP_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise InvalidRun("gateway ignored SIGINT")
        if proc.returncode != 0 or b"served" not in out:
            raise InvalidRun(
                f"gateway exited {proc.returncode}: "
                f"{err.decode('utf-8', 'replace')[-500:]}"
            )

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        proc = self.proc
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.communicate()
        self.proc = None


#: Open-loop probe: connections (one principal each), Poisson rate
#: (requests/s) and length.  On a 2-vCPU x86-64 VM Poisson arrivals
#: saturate the gateway near 30 requests/s.
CONNECTIONS = 2
PROBE_RATE = 5.0
PROBE_SECONDS = 6.0


def _ok(reply: Dict, oracles: Dict[str, dict], name: str) -> str:
    if reply.get("t") != "result":
        return f"{name}: {reply.get('code')}: {reply.get('detail')}"
    if reply.get("observables") != oracles[name]:
        return f"{name}: observables differ from the solo session"
    return ""


async def _send(tracer: Tracer, client: GatewayClient, name: str) -> Dict:
    with tracer.span("runtime.gateway.request") as span:
        try:
            reply = await client.run(name)
        except ConnectionError as err:
            reply = {"t": "error", "code": "connection", "detail": str(err)}
    span[6]["program"] = name
    span[6]["server_ms"] = reply.get("wall_seconds", 0.0) * 1e3
    return reply


async def _open_loop(root: str, seed: int, tracer: Tracer,
                     oracles: Dict[str, dict], tally: Tally) -> Dict:
    gateway = ServeProcess(root)
    try:
        clients = await gateway.start(
            [f"principal-{i}" for i in range(CONNECTIONS)]
        )
        for name in corpus.TABLE1:
            # The first request per program builds the gateway's pool.
            why = _ok(await clients[0].run(name), oracles, name)
            tally.note(0.0, not why, why)
        rng = random.Random(seed)
        schedule = corpus.poisson_schedule(rng, PROBE_RATE, PROBE_SECONDS)
        names = corpus.stratified(rng, corpus.TABLE1, len(schedule))
        latencies: List[float] = []
        lags: List[float] = []

        async def one(client, name: str, due: float) -> None:
            reply = await _send(tracer, client, name)
            latency = time.perf_counter() - due
            latencies.append(latency * 1e3)
            why = _ok(reply, oracles, name)
            tally.note(latency, not why, why)

        tasks = []
        start = time.perf_counter() + 0.01
        for index, (offset, name) in enumerate(zip(schedule, names)):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(max(0.0, time.perf_counter() - due) * 1e3)
            client = clients[index % len(clients)]
            tasks.append(asyncio.ensure_future(one(client, name, due)))
        await asyncio.gather(*tasks)
        lag = median(lags)
        if lag > MAX_LAG_SHARE * median(latencies):
            raise InvalidRun(
                f"open-loop generator lag {lag:.3f} ms exceeds "
                f"{MAX_LAG_SHARE:.0%} of the median latency"
            )
        stats = await clients[0].stats()
        await gateway.stop()
        return {"stats": stats, "generator_lag_ms": lag}
    finally:
        gateway.kill()


def open_loop_probe(root: str, seed: int, tracer: Tracer,
                    oracles: Dict[str, dict], tally: Tally) -> Dict:
    """Launch ``repro serve`` on a free port, send a seeded Poisson
    schedule over two connections, time each request from when it was
    due, check every reply against the solo-session oracle, and return
    the gateway's ``stats`` frame and the generator's median lag."""
    return asyncio.run(_open_loop(root, seed, tracer, oracles, tally))
