"""Shared pieces of the benchmark: statistics, spans, memory, results.

Everything here is benchmark-side.  The program under test is only ever
called through its public functions; spans are recorded around those
calls from the benchmark's own files, never inside the program.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import json
import math
import os
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The end-to-end metrics (printed with ``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "within_limit_frac": "1",
    "peak_rss_mb": "MB",
}

#: The per-layer metrics (printed with ``--trace 1``): name -> unit.
PER_LAYER = {
    "lang.lexer.tokenize_ms": "ms",
    "lang.lexer.tokens_per_s": "1/s",
    "lang.parser.parse_ms": "ms",
    "lang.typecheck.check_ms": "ms",
    "lang.cache.hit_ratio": "1",
    "splitter.cache.hit_ratio": "1",
    "labels.cache.hit_ratio": "1",
    "splitter.lower_ms": "ms",
    "splitter.candidates_ms": "ms",
    "splitter.assign_hosts_ms": "ms",
    "splitter.translate_ms": "ms",
    "splitter.validate_ms": "ms",
    "splitter.split_ms": "ms",
    "splitter.fragments": "count",
    "runtime.session.image_build_ms": "ms",
    "runtime.session.run_ms": "ms",
    "runtime.session.per_message_us": "us",
    "runtime.session.messages": "count",
    "runtime.tokens.mint_us": "us",
    "runtime.tokens.verify_us": "us",
    "runtime.gateway.server_ms": "ms",
    "runtime.gateway.overhead_ms": "ms",
    "runtime.gateway.queue_ms": "ms",
    "runtime.gateway.shed": "count",
    "runtime.transport.tcp.run_ms": "ms",
    "runtime.transport.tcp.setup_ms": "ms",
    "runtime.transport.tcp.per_message_us": "us",
    "runtime.storage.boundary_ms": "ms",
    "runtime.storage.sidecar_ms": "ms",
    "runtime.storage.append_wal_us": "us",
    "runtime.storage.fsyncs_per_op": "1/op",
    "runtime.storage.degradations": "count",
    "bench.generator_lag_ms": "ms",
    "bench.trace_overhead_frac": "1",
    "failed_frac": "1",
}

#: Ops between two timings of the reference kernel (``reference.py``).
PROBE_EVERY = 5

#: Fewest whole windows a phase must hold.
MIN_WINDOWS = 5

#: Fewest samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10

#: Largest median generator lag, as a share of ``latency_p50_ms``, for
#: which an open-loop run still counts as valid.
MAX_LAG_SHARE = 0.25


class InvalidRun(Exception):
    """The measurement itself broke a validity rule (not the program)."""


# -- statistics --------------------------------------------------------------


def nearest_rank(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile (0..100, nearest rank) of ``values`` and
    the number of samples that lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        raise InvalidRun("no samples to take a percentile of")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values: Sequence[float], q: float) -> float:
    """The tail percentile, refusing one with too few samples beyond."""
    value, beyond = nearest_rank(values, q)
    if beyond < TAIL_MIN_BEYOND:
        raise InvalidRun(
            f"p{q} of {len(values)} samples has only {beyond} beyond it "
            f"(need {TAIL_MIN_BEYOND})"
        )
    return value


def median(values: Sequence[float]) -> float:
    if not values:
        raise InvalidRun("no samples to take a median of")
    return statistics.median(values)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise InvalidRun(f"no VmHWM in {path}")


class Tally:
    """Attempted/failed counts and per-op latencies of one phase.

    Every attempted op stays in the sample: a wrong or failed op still
    contributes its latency and counts as a miss of the latency limit.
    The phase's loop calls ``probe`` after every op, outside its
    timing, and the latency metrics are stated in reference time (see
    ``reference.py``).  ``window`` is the number of consecutive ops
    whose rate is one sample of ``busy_rate``: a whole number of the
    workload's mix blocks, so every window holds the same mix.
    """

    def __init__(self, limit_ms: float, window: int = 1) -> None:
        self.limit_ms = limit_ms
        self.window = window
        self.attempted = 0
        self.failed = 0
        self.latencies_ms: List[float] = []
        #: whether each op was correct, in completion order.
        self.ok: List[bool] = []
        self.failures: List[str] = []
        #: the reference kernel's time after every ``PROBE_EVERY`` ops.
        self.refs_ms: List[float] = []

    def note(self, latency_s: float, ok: bool, why: str = "") -> None:
        latency_ms = latency_s * 1e3
        self.attempted += 1
        self.latencies_ms.append(latency_ms)
        self.ok.append(ok)
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(why)

    def probe(self, reference) -> None:
        """Time the reference kernel once every ``PROBE_EVERY`` ops."""
        if self.attempted % PROBE_EVERY == 0:
            self.refs_ms.append(reference.time_ms())

    def scaled_ms(self) -> List[float]:
        """The latency of each op up to the last probe, in reference
        time: scaled by ``REF_MS`` over the median of the probe after
        its group of ``PROBE_EVERY`` ops and the probes either side."""
        from reference import REF_MS

        refs = self.refs_ms
        return [
            latency * REF_MS / median(refs[max(0, g - 1):g + 2])
            for g in range(len(refs))
            for latency in self.latencies_ms[g * PROBE_EVERY:(g + 1) * PROBE_EVERY]
        ]

    def _windows(self) -> List[slice]:
        """The whole windows of ``window`` ops among the scaled ones."""
        count = len(self.refs_ms) * PROBE_EVERY // self.window
        if count < MIN_WINDOWS:
            raise InvalidRun(
                f"{self.attempted} ops make {count} windows of "
                f"{self.window} (need {MIN_WINDOWS})"
            )
        return [slice(i * self.window, (i + 1) * self.window)
                for i in range(count)]

    def busy_rate(self) -> float:
        """Correct ops per second of op time, in reference time: the
        median over the windows, so that a burst of noise the probes
        missed moves only some windows."""
        scaled = self.scaled_ms()
        return median([
            sum(self.ok[chunk]) / (sum(scaled[chunk]) / 1e3)
            for chunk in self._windows()
        ])

    def p50_ms(self) -> float:
        """Median op latency, in reference time."""
        return median(self.scaled_ms())

    def within_limit_frac(self) -> float:
        """Share of the scaled ops that were correct and took at most
        the limit, in reference time."""
        scaled = self.scaled_ms()
        within = sum(
            ok and latency <= self.limit_ms
            for latency, ok in zip(scaled, self.ok)
        )
        return within / len(scaled)

    def tail_ms(self, q: float) -> float:
        """The ``q``-th percentile op latency, in reference time."""
        return tail(self.scaled_ms(), q)

    def notes(self) -> Dict[str, float]:
        """The unscaled figures beside the scaled ones."""
        return {
            "reference_kernel_ms_median": round(median(self.refs_ms), 4),
            "unscaled_latency_p50_ms": round(median(self.latencies_ms), 4),
        }

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies_ms.extend(other.latencies_ms)
        self.ok.extend(other.ok)
        self.failures.extend(other.failures[: 5 - len(self.failures)])


# -- spans -------------------------------------------------------------------

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """In-memory spans: (id, name, start, end, parent id, op id, attrs).

    Only the traced run builds one; the untraced run's timed path calls
    the program directly and never reaches this class.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []

    @contextlib.contextmanager
    def span(self, name: str, op: Any = None):
        parent = _CURRENT.get()
        if op is None and parent is not None:
            op = parent[5]
        record = [
            len(self.spans),
            name,
            time.perf_counter(),
            None,
            parent[0] if parent is not None else None,
            op,
            {},
        ]
        self.spans.append(record)
        token = _CURRENT.set(record)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            _CURRENT.reset(token)

    def durations_ms(self, name: str) -> List[float]:
        return [
            (end - start) * 1e3
            for _sid, span_name, start, end, *_ in self.spans
            if span_name == name and end is not None
        ]

    def named(self, name: str) -> List[list]:
        return [span for span in self.spans if span[1] == name]

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self time (ms).  A span's
        self time is its duration minus the union of its children's
        intervals inside it."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _sid, _name, start, end, parent, *_ in self.spans:
            if parent is not None and end is not None:
                children.setdefault(parent, []).append((start, end))
        summary: Dict[str, Dict[str, float]] = {}
        for sid, name, start, end, *_ in self.spans:
            if end is None:
                continue
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(sid, ())):
                lo = max(child_start, cursor)
                hi = min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row = summary.setdefault(
                name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            row["count"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - covered) * 1e3
        return summary

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        document = {
            "fields": ["id", "name", "start", "end", "parent", "op", "attrs"],
            "spans": self.spans,
            "self_times": self.self_times(),
        }
        document.update(extra)
        with open(path, "w", encoding="utf-8") as out:
            json.dump(document, out, default=str)


# -- results -----------------------------------------------------------------


def emit(
    metrics: Dict[str, float],
    units: Dict[str, str],
    tally: Tally,
    notes: Dict[str, Any],
) -> None:
    """Print the human report, then the result line (last line)."""
    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    if missing or extra:
        raise InvalidRun(f"metric set mismatch: missing {missing}, extra {extra}")
    for key, value in notes.items():
        print(f"note {key} = {value}")
    print(f"note failed_frac = {tally.failed / tally.attempted:.6f} "
          f"({tally.failed} of {tally.attempted} ops)")
    for failure in tally.failures:
        print(f"failure {failure}")
    for name in units:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result), flush=True)


#: The compile caches' modules, by layer, read through their public
#: ``stats()``.  A module that is gone (the frontend cache is a planned
#: removal) counts as a cache with no lookups.
CACHES = {
    "lang": "repro.lang.cache",
    "splitter": "repro.splitter.cache",
    "labels": "repro.labels.cache",
}


def _cache_module(layer: str):
    try:
        return importlib.import_module(CACHES[layer])
    except ImportError:
        return None


def cache_snapshot() -> Dict[str, Tuple[int, int]]:
    """(hits, misses) so far of each compile cache, summed over its
    ``stats()`` tables."""
    counts = {}
    for layer in CACHES:
        module = _cache_module(layer)
        rows = module.stats().values() if module is not None else ()
        counts[layer] = (
            sum(int(row["hits"]) for row in rows),
            sum(int(row["misses"]) for row in rows),
        )
    return counts


def cache_delta(before, after) -> Dict[str, List[int]]:
    """Per layer, [hits, misses] between two snapshots."""
    return {
        layer: [after[layer][0] - before[layer][0],
                after[layer][1] - before[layer][1]]
        for layer in CACHES
    }


def clear_cache(layer: str) -> None:
    """Empty the ``lang`` or ``splitter`` cache, if it exists."""
    module = _cache_module(layer)
    if module is not None:
        module.clear()


def work_dir(root: str) -> str:
    path = os.path.join(root, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path
