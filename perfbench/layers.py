"""Per-layer metrics of a traced run, from its spans and the census."""

from __future__ import annotations

import os
from typing import Any, Dict, List

import census
import corpus
import gateway
from common import CACHES, PER_LAYER, InvalidRun, Tally, Tracer, median, work_dir


def _attr_median(spans: List[list], key: str) -> float:
    return median([span[6][key] for span in spans])


def _by_program(spans: List[list]) -> Dict[str, List[float]]:
    grouped: Dict[str, List[float]] = {}
    for span in spans:
        grouped.setdefault(span[6]["program"], []).append(
            (span[3] - span[2]) * 1e3
        )
    return grouped


def per_layer(root: str, workload: str, seed: int, out: Dict[str, Any]) -> Dict[str, float]:
    tracer: Tracer = out["tracer"]
    tally: Tally = out["tally"]
    checks = Tally(float("inf"))
    table1 = {name: corpus.table1_program(name) for name in corpus.TABLE1}
    # Pooled runs of each program the gateway probe sends are the
    # reference for its queueing time.  The sessions workload's traced
    # phase ran exactly those; compile runs them here, beside its own.
    if workload == "compile":
        programs = dict(enumerate(out["census_programs"]))
        census.run_probe(tracer, programs, "runtime.session.run")
        census.run_probe(tracer, table1, "runtime.session.pooled_run")
        reference = "runtime.session.pooled_run"
    else:
        programs = table1
        reference = "runtime.session.run"
    census.stage_probe(tracer, list(programs.values()))
    census.token_probe(tracer, checks)
    oracles = census.session_oracles(table1)
    census.tcp_probe(tracer, oracles, checks)
    probe = gateway.open_loop_probe(root, seed, tracer, oracles, checks)
    storage, storage_ops = census.storage_probe(root, tracer, checks)
    tally.merge(checks)

    metrics: Dict[str, float] = {}
    stage = {
        "lang.lexer.tokenize_ms": "lang.lexer.tokenize",
        "lang.parser.parse_ms": "lang.parser.parse",
        "lang.typecheck.check_ms": "lang.typecheck.check",
        "splitter.lower_ms": "splitter.lower",
        "splitter.candidates_ms": "splitter.candidates",
        "splitter.assign_hosts_ms": "splitter.assign_hosts",
        "splitter.translate_ms": "splitter.translate",
        "splitter.validate_ms": "splitter.validate",
        "splitter.split_ms": "splitter.split",
        "runtime.session.image_build_ms": "runtime.session.image_build",
        "runtime.session.run_ms": "runtime.session.run",
    }
    for metric, span_name in stage.items():
        metrics[metric] = median(tracer.durations_ms(span_name))

    tokenize = tracer.named("lang.lexer.tokenize")
    metrics["lang.lexer.tokens_per_s"] = sum(s[6]["tokens"] for s in tokenize) / sum(
        s[3] - s[2] for s in tokenize
    )
    # Compile: over the timed ops.  Sessions: over the cold compile of
    # its programs.  A cache with no lookups reads 0, noted as such.
    for layer in CACHES:
        hits, misses = out["cache_counts"][layer]
        lookups = hits + misses
        metrics[f"{layer}.cache.hit_ratio"] = hits / lookups if lookups else 0.0
        out["notes"][f"{layer}.cache.lookups"] = (
            f"{hits} hits of {lookups}" if lookups else "none (ratio not applicable)"
        )
    metrics["splitter.fragments"] = _attr_median(tracer.named("splitter.split"), "fragments")

    runs = tracer.named("runtime.session.run")
    metrics["runtime.session.messages"] = _attr_median(runs, "messages")
    metrics["runtime.session.per_message_us"] = sum(
        s[3] - s[2] for s in runs
    ) * 1e6 / max(1, sum(s[6]["messages"] for s in runs))
    for kind in ("mint", "verify"):
        metrics[f"runtime.tokens.{kind}_us"] = median([
            (s[3] - s[2]) * 1e6 / s[6]["n"]
            for s in tracer.named(f"runtime.tokens.{kind}")
        ])

    requests = tracer.named("runtime.gateway.request")
    metrics["runtime.gateway.server_ms"] = _attr_median(requests, "server_ms")
    metrics["runtime.gateway.overhead_ms"] = median([
        (s[3] - s[2]) * 1e3 - s[6]["server_ms"] for s in requests
    ])
    server = {}
    for span in requests:
        server.setdefault(span[6]["program"], []).append(span[6]["server_ms"])
    reference = _by_program(tracer.named(reference))
    metrics["runtime.gateway.queue_ms"] = median([
        median(server[name]) - median(reference[name]) for name in server
    ])
    metrics["runtime.gateway.shed"] = float(
        probe["stats"]["outcomes"].get("rate-limit", 0)
    )

    tcp = tracer.named("runtime.transport.tcp.run")
    tcp_ms = _by_program(tcp)
    tcp_messages = {s[6]["program"]: s[6]["messages"] for s in tcp}
    metrics["runtime.transport.tcp.run_ms"] = median([
        ms for name in corpus.TABLE1 for ms in tcp_ms[name]
    ])
    metrics["runtime.transport.tcp.setup_ms"] = median(tcp_ms["ot1"])
    metrics["runtime.transport.tcp.per_message_us"] = (
        (median(tcp_ms["ot"]) - median(tcp_ms["ot1"])) * 1e3
        / (tcp_messages["ot"] - tcp_messages["ot1"])
    )

    timings = storage["op_timings"]
    if storage["boundaries"] <= 0:
        raise InvalidRun("storage layer committed no boundary")
    for metric, op, scale in (
        ("runtime.storage.boundary_ms", "boundary", 1e3),
        ("runtime.storage.sidecar_ms", "sidecar", 1e3),
        ("runtime.storage.append_wal_us", "append_wal", 1e6),
    ):
        count, seconds = timings[op]
        metrics[metric] = seconds * scale / count
    metrics["runtime.storage.fsyncs_per_op"] = storage["fsyncs"] / storage_ops
    metrics["runtime.storage.degradations"] = float(storage["degradations"])

    metrics["bench.generator_lag_ms"] = probe["generator_lag_ms"]
    metrics["bench.trace_overhead_frac"] = out["trace_overhead_frac"]
    metrics["failed_frac"] = tally.failed / tally.attempted

    path = os.path.join(work_dir(root), f"trace-{workload}-seed{seed}.json")
    self_times = tracer.self_times()
    tracer.write(path, {"workload": workload, "seed": seed, "metrics": metrics})
    for name, row in sorted(self_times.items()):
        print(f"self {name}: {row['count']} spans, total {row['total_ms']:.3f} ms, "
              f"self {row['self_ms']:.3f} ms")
    print(f"note trace_file = {os.path.relpath(path, root)}")
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise InvalidRun(f"per-layer metrics not measured: {sorted(missing)}")
    return metrics
