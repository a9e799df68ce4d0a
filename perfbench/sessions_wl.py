"""The ``sessions`` workload: run requests on pooled sessions in process.

One op serves one request the way the gateway's worker does: acquire a
session from the program's ``SessionPool``, ``run`` it, read its
observables, release it (reset in place).  Closed loop over a seeded
uniform mix of the five full-size Table 1 programs, with their images
built in set-up, so execution, token HMAC and reset do the work and the
frontend and splitter none.  Every op's observables must equal a solo
``Session`` run of the program and its fields the single-host run.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Tuple

from repro.runtime import RuntimeImage, Session, SessionPool
from repro.splitter import split_source

import corpus
from common import (
    Tally,
    Tracer,
    cache_delta,
    cache_snapshot,
    peak_rss_mb,
)
from reference import Reference

#: Latency limit behind ``within_limit_frac``.
LIMIT_MS = 100.0
#: Tail percentile reported as ``latency_tail_ms``.
TAIL_Q = 99.0
#: Ops per sample of ``ops_per_s`` (``Tally``): ten mix blocks.
WINDOW = 10 * len(corpus.TABLE1)


def prepare() -> Tuple[Dict[str, Tuple[SessionPool, dict, Any]], Dict]:
    """Per Table 1 program: its session pool, the solo-session
    observables and the single-host field oracle; and the compile
    caches' [hits, misses] over compiling the programs, the way the
    gateway compiles each once, cold, at its first request."""
    before = cache_snapshot()
    images = {}
    for name in corpus.TABLE1:
        source, config = corpus.table1_program(name)
        images[name] = RuntimeImage.for_split(split_source(source, config).split)
    compiled = cache_delta(before, cache_snapshot())
    prepared = {}
    for name, image in images.items():
        solo = Session(image)
        solo.run()
        prepared[name] = (
            SessionPool(image),
            solo.observables(),
            corpus.single_host_fields(corpus.table1_program(name)[0]),
        )
    return prepared, compiled


def check(name: str, session: Session, observables: dict, prepared) -> str:
    _pool, solo, fields = prepared[name]
    if observables != solo:
        return f"{name}: observables differ from the solo session"
    why = corpus.fields_match(session.result(), fields)
    return f"{name}: {why}" if why else ""


def serve_op(pool: SessionPool) -> Tuple[Session, dict]:
    """The timed part before the check: acquire, run, observe."""
    session = pool.acquire()
    session.run()
    return session, session.observables()


def traced_ops(tracer: Tracer, prepared):
    programs = {entry[0]: name for name, entry in prepared.items()}

    def serve(pool: SessionPool) -> Tuple[Session, dict]:
        with tracer.span("sessions.op"):
            with tracer.span("runtime.session.acquire"):
                session = pool.acquire()
            with tracer.span("runtime.session.run") as span:
                result = session.run()
            span[6]["program"] = programs[pool]
            span[6]["messages"] = result.counts["total_messages"]
            return session, session.observables()

    def release(pool: SessionPool, session: Session) -> None:
        with tracer.span("runtime.session.release"):
            pool.release(session)

    return serve, release


def loop(prepared, names: List[str], seconds: float, serve, release,
         tally: Tally, reference: Reference) -> None:
    """Closed loop over ``names`` until ``seconds`` pass.  An op's time
    is acquire + run + observe + release; the check between and the
    reference kernel's timings after it are not."""
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        name = names[index % len(names)]
        index += 1
        pool = prepared[name][0]
        start = time.perf_counter()
        session, observables = serve(pool)
        ran = time.perf_counter()
        why = check(name, session, observables, prepared)
        checked = time.perf_counter()
        release(pool, session)
        latency = (ran - start) + (time.perf_counter() - checked)
        tally.note(latency, not why, why)
        tally.probe(reference)


def measure(seed: int, seconds: float, trace: bool,
            reference: Reference) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    prepared, compiled = prepare()
    names = corpus.stratified(random.Random(seed), corpus.TABLE1, 1000)
    tally = Tally(LIMIT_MS, WINDOW)
    loop(prepared, names, seconds / 2 if trace else seconds, serve_op,
         SessionPool.release, tally, reference)
    out["ops_per_s"] = tally.busy_rate()
    out["latency_p50_ms"] = tally.p50_ms()
    out["within_limit_frac"] = tally.within_limit_frac()
    out["peak_rss_mb"] = peak_rss_mb()
    out["notes"] = {
        "tail_percentile": TAIL_Q,
        "samples": tally.attempted,
        "limit_ms": LIMIT_MS,
        **tally.notes(),
    }
    if not trace:
        out["latency_tail_ms"] = tally.tail_ms(TAIL_Q)
    else:
        tracer = Tracer()
        traced = Tally(LIMIT_MS, WINDOW)
        serve, release = traced_ops(tracer, prepared)
        loop(prepared, names, seconds / 2, serve, release, traced, reference)
        out["trace_overhead_frac"] = 1.0 - traced.busy_rate() / out["ops_per_s"]
        out["tracer"] = tracer
        out["cache_counts"] = compiled
        tally.merge(traced)
    out["tally"] = tally
    return out
