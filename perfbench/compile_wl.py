"""The ``compile`` workload: partition a seeded stream of programs.

One op is ``split_source`` plus ``RuntimeImage.for_split`` on one
(source, trust configuration) pair.  The frontend, splitter and image
build do nearly all the work here and the runtime almost none.  After
each op, outside its timing, the benchmark runs the new image once and
compares every field against ``run_single_host`` on the same source.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from typing import Any, Dict, List

from repro.runtime import RuntimeImage, Session
from repro.splitter import split_source

import corpus
from common import (
    InvalidRun,
    Tally,
    Tracer,
    CACHES,
    cache_delta,
    cache_snapshot,
    clear_cache,
    peak_rss_mb,
)
from reference import Reference

#: Latency limit behind ``within_limit_frac``.
LIMIT_MS = 40.0
#: Tail percentile reported as ``latency_tail_ms``.
TAIL_Q = 98.0
#: ``peak_rss_mb`` is read after this many ops: the frontend and split
#: caches grow with every distinct program, so a peak taken at the end
#: of a timed run would grow with throughput.
RSS_AFTER_OPS = 1000
#: Ops per sample of ``ops_per_s`` (``Tally``): ten blocks of the
#: stream's families.
WINDOW = 10 * len(corpus.FAMILIES)
#: Census programs: the first distinct pairs of the seeded stream.
CENSUS_PROGRAMS = 10


def compile_op(source, config):
    """The timed op."""
    split = split_source(source, config).split
    return split, RuntimeImage.for_split(split)


def traced_op(tracer: Tracer):
    def op(source, config):
        with tracer.span("compile.op"):
            with tracer.span("splitter.split_source"):
                split = split_source(source, config).split
            with tracer.span("runtime.session.image_build"):
                image = RuntimeImage.for_split(split)
        return split, image

    return op


def check(spec, source, image, oracles: Dict) -> str:
    """'' when one run of the image matches the single-host run."""
    oracle = oracles.get(spec.source_key)
    if oracle is None:
        oracle = oracles[spec.source_key] = corpus.single_host_fields(source)
    return corpus.fields_match(Session(image).run(), oracle)


def loop(seed: int, seconds: float, op, tally: Tally, reference: Reference,
         caches: Dict[str, List[int]] = None, rss: List[float] = None) -> Counter:
    """Closed loop over the seeded stream, from cold compile caches.

    Returns the stream's measured repeat shares.  With ``caches``, the
    hit/miss deltas across each op (not its check) are summed there;
    with ``rss``, the peak RSS after ``RSS_AFTER_OPS`` ops is put there.
    """
    clear_cache("lang")
    clear_cache("splitter")
    kinds: Counter = Counter()
    stream = corpus.compile_stream(seed, kinds)
    oracles: Dict = {}
    deadline = time.perf_counter() + seconds
    # The caches keep every program, so full collections grow long as
    # the run goes on.  The cyclic collector is off while the benchmark
    # works and on only for each op.  Before each op the young
    # generations, which hold the last check's garbage, are collected
    # off the clock, so an op pays for the collections its own
    # allocations trigger and not for the benchmark's cleanup.
    gc.disable()
    try:
        while time.perf_counter() < deadline:
            spec = next(stream)
            source, config = corpus.materialize(spec)
            if caches is not None:
                before = cache_snapshot()
            gc.collect(1)
            gc.enable()
            start = time.perf_counter()
            _split, image = op(source, config)
            latency = time.perf_counter() - start
            gc.disable()
            if caches is not None:
                delta = cache_delta(before, cache_snapshot())
                for layer, (hits, misses) in delta.items():
                    caches[layer][0] += hits
                    caches[layer][1] += misses
            why = check(spec, source, image, oracles)
            tally.note(latency, not why, f"{spec}: {why}")
            tally.probe(reference)
            if rss is not None and tally.attempted == RSS_AFTER_OPS:
                rss.append(peak_rss_mb())
    finally:
        gc.enable()
    return kinds


def census_programs(seed: int):
    """The first distinct (source, configuration) pairs of the stream."""
    seen, programs = set(), []
    for spec in corpus.compile_stream(seed, Counter()):
        if spec not in seen:
            seen.add(spec)
            programs.append(corpus.materialize(spec))
        if len(programs) == CENSUS_PROGRAMS:
            return programs


def measure(seed: int, seconds: float, trace: bool,
            reference: Reference) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    tally = Tally(LIMIT_MS, WINDOW)
    rss: List[float] = []
    kinds = loop(seed, seconds / 2 if trace else seconds, compile_op, tally,
                 reference, rss=rss)
    out["ops_per_s"] = tally.busy_rate()
    out["latency_p50_ms"] = tally.p50_ms()
    if not trace:
        out["latency_tail_ms"] = tally.tail_ms(TAIL_Q)
    out["within_limit_frac"] = tally.within_limit_frac()
    if not trace:
        if not rss:
            raise InvalidRun(f"fewer than {RSS_AFTER_OPS} ops in the run")
        out["peak_rss_mb"] = rss[0]
    total = sum(kinds.values())
    out["notes"] = {
        "tail_percentile": TAIL_Q,
        "samples": tally.attempted,
        "limit_ms": LIMIT_MS,
        "exact_repeat_share": round(kinds["exact"] / total, 4),
        **tally.notes(),
    }
    if trace:
        tracer = Tracer()
        traced = Tally(LIMIT_MS, WINDOW)
        caches = {layer: [0, 0] for layer in CACHES}
        loop(seed, seconds / 2, traced_op(tracer), traced, reference, caches)
        out["trace_overhead_frac"] = 1.0 - traced.busy_rate() / out["ops_per_s"]
        out["cache_counts"] = caches
        out["tracer"] = tracer
        out["census_programs"] = census_programs(seed)
        tally.merge(traced)
    out["tally"] = tally
    return out
