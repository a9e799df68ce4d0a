"""The benchmark trajectory: end-to-end wall-clock for the Table 1
workloads plus a seeded random-program sweep.

Each workload is staged as **parse → typecheck → split → execute** and
timed per stage with ``time.perf_counter``, so successive PRs can see
*where* the time goes, not just that it moved.  The stages are
incremental — each consumes the previous stage's artifact (AST, checked
program, split program) — so ``end_to_end_seconds`` is the cost of one
true pipeline pass with no double-counted parsing.

``python -m repro bench`` writes the results as JSON (see
``BENCH_PR2.json`` at the repo root for the checked-in baseline) and can
compare a fresh run against a checked-in baseline with ``--compare``,
failing when end-to-end wall-clock regresses beyond ``--tolerance``.

Simulated-time results and message counts are recorded alongside the
wall-clock numbers: they must stay bit-identical across performance PRs
(the hard invariant of the hot-path layer), and keeping them in the same
JSON makes drift visible in benchmark diffs.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Dict, Optional

from .. import parallel, progen
from ..lang.parser import parse_program
from ..lang.typecheck import check_program
from ..runtime import DistributedExecutor
from ..splitter import split_program
from ..workloads import listcompare, ot, tax, work

#: Stage keys, in pipeline order.
STAGES = ("parse", "typecheck", "split", "execute")

#: Default number of seeded random programs in the progen sweep.
DEFAULT_SEEDS = 200
#: Seeds used by ``--quick`` (CI smoke / regression gate).
QUICK_SEEDS = 50


def _cache_stats() -> Dict[str, Dict[str, int]]:
    """Label-layer and split cache counters, merged into one section
    (split tiers are prefixed ``split.``), or empty when a cache layer
    is absent (lets this harness measure pre-optimization checkouts
    unchanged)."""
    merged: Dict[str, Dict[str, int]] = {}
    try:
        from ..labels.cache import stats
    except ImportError:
        pass
    else:
        merged.update(stats())
    try:
        from ..splitter.cache import stats as split_stats
    except ImportError:
        pass
    else:
        merged.update(split_stats())
    return merged


def _reset_cache_stats() -> None:
    try:
        from ..labels.cache import reset_stats
    except ImportError:
        pass
    else:
        reset_stats()
    try:
        from ..splitter.cache import reset_stats as reset_split_stats
    except ImportError:
        pass
    else:
        reset_split_stats()


def time_workload(source: str, config) -> Dict[str, object]:
    """Run one workload through all four stages, timing each."""
    timings: Dict[str, float] = {}
    start = time.perf_counter()
    program = parse_program(source)
    timings["parse"] = time.perf_counter() - start

    start = time.perf_counter()
    checked = check_program(program, config.hierarchy)
    timings["typecheck"] = time.perf_counter() - start

    start = time.perf_counter()
    result = split_program(checked, config)
    timings["split"] = time.perf_counter() - start

    start = time.perf_counter()
    outcome = DistributedExecutor(result.split).run()
    timings["execute"] = time.perf_counter() - start

    timings["total"] = sum(timings[stage] for stage in STAGES)
    return {
        "seconds": timings,
        # Invariants: these must not move in a wall-clock-only PR.
        "messages": outcome.counts.get("total_messages", 0),
        "simulated_seconds": round(outcome.elapsed, 6),
    }


def _progen_task(seed: int) -> Dict[str, object]:
    """Worker-side wrapper for one progen seed of the sweep."""
    return time_workload(
        progen.generate_program(seed), parallel.state()["config"]
    )


def run_bench(
    seeds: int = DEFAULT_SEEDS, quiet: bool = False, jobs: int = 1
) -> Dict:
    """The full benchmark suite: Table 1 workloads + progen sweep.

    With ``jobs > 1`` the progen sweep fans out over forked workers.
    Message counts and simulated times are unaffected (each seed is an
    independent simulation), but the per-stage second sums become CPU
    time across workers rather than wall-clock, so checked-in baselines
    (``BENCH_PR*.json``) are always recorded with ``jobs=1``; a parallel
    run is a wall-clock lever for CI smoke, not a comparable baseline.
    """
    # Untimed warmup: pay one-time costs (imports, regex compilation,
    # intern-table population) before the clock starts, so a --quick
    # run is comparable against a scaled full-length baseline.  The
    # warmup also seeds the whole-pipeline split cache with progen
    # seed 0; counter resets below keep the
    # warmup out of the reported rates but deliberately leave the
    # cached artifacts in place (that reuse is exactly what the cache
    # layers are for).
    time_workload(progen.generate_program(0), progen.config())
    _reset_cache_stats()
    report: Dict[str, object] = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "progen_seeds": seeds,
        "jobs": jobs,
    }
    workloads: Dict[str, Dict] = {}
    for name, module in (
        ("List", listcompare),
        ("OT", ot),
        ("Tax", tax),
        ("Work", work),
    ):
        if not quiet:
            print(f"bench: {name} ...", file=sys.stderr)
        workloads[name] = time_workload(module.source(), module.config())
    report["workloads"] = workloads

    if not quiet:
        print(f"bench: progen sweep ({seeds} seeds) ...", file=sys.stderr)
    sweep_seconds = {stage: 0.0 for stage in STAGES}
    sweep_seconds["total"] = 0.0
    sweep_messages = 0
    config = progen.config()
    outcomes = parallel.fork_map(
        _progen_task, range(seeds), jobs, shared={"config": config}
    )
    if outcomes is None:
        outcomes = [
            time_workload(progen.generate_program(seed), config)
            for seed in range(seeds)
        ]
    # fork_map returns results in seed order, so this aggregation (and
    # in particular the float additions) is identical for every jobs
    # value — only the wall-clock magnitudes differ.
    for outcome in outcomes:
        for stage, value in outcome["seconds"].items():
            sweep_seconds[stage] += value
        sweep_messages += outcome["messages"]
    report["progen"] = {
        "seconds": sweep_seconds,
        "messages": sweep_messages,
    }

    end_to_end = sweep_seconds["total"] + sum(
        w["seconds"]["total"] for w in workloads.values()
    )
    report["end_to_end_seconds"] = end_to_end
    report["cache"] = _cache_stats()
    # Run invariants: observable behaviour no optimization may change.
    # Only seed-count-independent facts belong here, so a --quick run
    # can be checked bit-for-bit against a full-length baseline.
    report["invariants"] = {
        name: {
            "messages": w["messages"],
            "simulated_seconds": w["simulated_seconds"],
        }
        for name, w in workloads.items()
    }
    return report


def _stage_totals(data: Dict, sweep_scale: float) -> Dict[str, float]:
    """Per-stage seconds over the whole suite: the Table 1 workloads
    plus the progen sweep scaled by ``sweep_scale`` (seed-count ratio)."""
    totals = {}
    for stage in STAGES:
        totals[stage] = (
            sum(w["seconds"][stage] for w in data["workloads"].values())
            + data["progen"]["seconds"][stage] * sweep_scale
        )
    return totals


def _reference_run(baseline: Dict, baseline_path: str) -> Dict:
    """Pick the reference run out of a loaded baseline file.

    Schema detection is structural, not key-presence: an *envelope*
    file carries a ``current`` mapping that itself holds the run
    sections (``workloads`` et al.), while a *legacy flat* file has the
    run sections at the top level.  Detection must not key on optional
    sections — an envelope whose run lacks ``throughput`` or
    ``profile`` (or recorded ``baseline: null``) is still an envelope,
    and must not trip the legacy warning.
    """
    current = baseline.get("current")
    if isinstance(current, dict) and "workloads" in current:
        return current
    if "workloads" in baseline:
        print(
            f"bench: warning — {baseline_path} uses the legacy flat "
            "schema (no baseline/current/jobs envelope); reading its "
            "top level as the reference run",
            file=sys.stderr,
        )
        return baseline
    raise ValueError(
        f"{baseline_path}: not a bench report — neither an envelope "
        "with a 'current' run nor a legacy flat report (no 'workloads' "
        "section found)"
    )


def compare(report: Dict, baseline_path: str, tolerance: float) -> int:
    """Regression gate: fail when the fresh run is slower than the
    checked-in numbers by more than ``tolerance`` (a fraction).

    The reference is scaled by the progen seed count so ``--quick`` runs
    can be compared against a full-length baseline.  Four checks run:

    * end-to-end wall-clock, gated at ``tolerance``;
    * each pipeline stage, gated at ``2 * tolerance`` (stage-level
      numbers are noisier than their sum, so a single-stage regression
      must be larger to fail the gate on its own — but it is always
      *reported*, so a slowdown hidden by a speedup elsewhere is
      visible in the log);
    * the run invariants (message counts and simulated times), which
      must be bit-identical — an optimization PR may move wall-clock
      only, never observable behaviour;
    * when both sides carry a ``throughput`` section: aggregate
      sessions/sec at ``tolerance``, per-workload p50/p99 latency at
      ``2 * tolerance``, and the throughput invariants (per-session
      oracle observables) bit-identical.

    Baselines in the normalized schema have top-level ``baseline`` /
    ``current`` / ``jobs`` keys; legacy flat files (every section at the
    top level, e.g. BENCH_PR5.json) are still accepted with a warning.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    reference = _reference_run(baseline, baseline_path)
    ref_seeds = reference.get("progen_seeds", DEFAULT_SEEDS)
    sweep_scale = report["progen_seeds"] / ref_seeds
    failed = 0

    measured = report["end_to_end_seconds"]
    ref_workloads = sum(
        w["seconds"]["total"] for w in reference["workloads"].values()
    )
    scaled_ref = (
        ref_workloads + reference["progen"]["seconds"]["total"] * sweep_scale
    )
    ratio = measured / scaled_ref if scaled_ref else float("inf")
    print(
        f"bench: end-to-end {measured:.3f}s vs baseline "
        f"{scaled_ref:.3f}s (x{ratio:.2f}, tolerance x{1 + tolerance:.2f})"
    )
    if ratio > 1 + tolerance:
        print(
            "bench: REGRESSION — wall-clock exceeded the baseline "
            f"by {100 * (ratio - 1):.0f}%",
            file=sys.stderr,
        )
        failed = 1

    stage_tolerance = 2 * tolerance
    stages = _stage_totals(report, 1.0)
    ref_stages = _stage_totals(reference, sweep_scale)
    for stage in STAGES:
        ref_value = ref_stages[stage]
        stage_ratio = (
            stages[stage] / ref_value if ref_value else float("inf")
        )
        verdict = ""
        if stage_ratio > 1 + stage_tolerance:
            verdict = "  REGRESSION"
            failed = 1
        print(
            f"bench:   {stage:<9} {stages[stage]:.3f}s vs "
            f"{ref_value:.3f}s (x{stage_ratio:.2f}){verdict}"
        )
        if verdict:
            print(
                f"bench: REGRESSION — {stage} stage exceeded the baseline "
                f"by {100 * (stage_ratio - 1):.0f}% "
                f"(stage tolerance x{1 + stage_tolerance:.2f})",
                file=sys.stderr,
            )

    ref_invariants = reference.get("invariants")
    if ref_invariants is not None and ref_invariants != report["invariants"]:
        print(
            "bench: INVARIANT DRIFT — message counts / simulated times "
            "changed vs the baseline:",
            file=sys.stderr,
        )
        for name in sorted(set(ref_invariants) | set(report["invariants"])):
            expected = ref_invariants.get(name)
            got = report["invariants"].get(name)
            if expected != got:
                print(
                    f"bench:   {name}: {expected} -> {got}", file=sys.stderr
                )
        failed = 1

    failed |= _compare_throughput(report, reference, tolerance)
    return failed


def _compare_throughput(report: Dict, reference: Dict, tolerance: float) -> int:
    """The throughput gates (no-op unless both runs measured throughput)."""
    measured = report.get("throughput")
    ref = reference.get("throughput")
    if measured is None or ref is None:
        return 0
    failed = 0

    rate = measured["aggregate"]["sessions_per_sec"]
    ref_rate = ref["aggregate"]["sessions_per_sec"]
    ratio = ref_rate / rate if rate else float("inf")
    print(
        f"bench: throughput {rate:.0f} sessions/s vs baseline "
        f"{ref_rate:.0f}/s (x{ratio:.2f}, tolerance x{1 + tolerance:.2f})"
    )
    if ratio > 1 + tolerance:
        print(
            "bench: REGRESSION — aggregate sessions/sec fell "
            f"{100 * (ratio - 1):.0f}% below the baseline",
            file=sys.stderr,
        )
        failed = 1

    latency_tolerance = 2 * tolerance
    for name in sorted(ref.get("workloads", {})):
        if name not in measured.get("workloads", {}):
            continue
        for quantile in ("p50", "p99"):
            got = measured["workloads"][name]["latency"][quantile]
            want = ref["workloads"][name]["latency"][quantile]
            q_ratio = got / want if want else float("inf")
            verdict = ""
            if q_ratio > 1 + latency_tolerance:
                verdict = "  REGRESSION"
                failed = 1
            print(
                f"bench:   {name:<9} {quantile} {got * 1e3:.3f}ms vs "
                f"{want * 1e3:.3f}ms (x{q_ratio:.2f}){verdict}"
            )

    ref_inv = ref.get("invariants")
    if ref_inv is not None and ref_inv != measured.get("invariants"):
        print(
            "bench: THROUGHPUT INVARIANT DRIFT — per-session oracle "
            "observables changed vs the baseline",
            file=sys.stderr,
        )
        failed = 1
    return failed


def main(
    seeds: int = DEFAULT_SEEDS,
    out: Optional[str] = None,
    baseline: Optional[str] = None,
    tolerance: float = 0.25,
    jobs: int = 1,
    throughput_sessions: Optional[int] = None,
    profile: bool = False,
) -> int:
    report = run_bench(seeds=seeds, jobs=jobs)
    if throughput_sessions is not None:
        from .throughput import run_throughput

        report["throughput"] = run_throughput(
            sessions=throughput_sessions, jobs=jobs
        )
    if profile:
        # Separate pass: the wrappers cost per-call overhead, so they
        # are never armed while the timing numbers above are recorded.
        from .profile import format_breakdown, profile_execution

        report["profile"] = profile_execution(
            seeds=min(seeds, QUICK_SEEDS // 2)
        )
        print(format_breakdown(report["profile"]))
    # Normalized bench JSON schema: every written report carries the
    # same top-level envelope — ``baseline`` (what this run was gated
    # against, or null), ``current`` (this run), ``jobs``.  compare()
    # still accepts legacy flat files (pre-envelope baselines) with a
    # warning.
    envelope = {
        "baseline": {"path": baseline} if baseline else None,
        "current": report,
        "jobs": jobs,
    }
    text = json.dumps(envelope, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
        print(f"bench: wrote {out}")
    else:
        print(text)
    print(f"bench: end-to-end {report['end_to_end_seconds']:.3f}s")
    throughput = report.get("throughput")
    if throughput:
        aggregate = throughput["aggregate"]
        print(
            f"bench: throughput {aggregate['sessions_per_sec']:.0f} "
            f"sessions/s over {aggregate['sessions']} sessions "
            f"(x{aggregate['speedup_vs_naive']:.2f} vs per-run "
            "reconstruction)"
        )
    split_tiers = {
        name: entry
        for name, entry in report.get("cache", {}).items()
        if name.startswith("split.")
    }
    if split_tiers:
        summary = ", ".join(
            f"{name.split('.', 1)[1]} {entry['hits']}/{entry['hits'] + entry['misses']}"
            for name, entry in sorted(split_tiers.items())
        )
        print(f"bench: split cache hits {summary} "
              f"(REPRO_SPLIT_CACHE=0 disables, "
              f"REPRO_SPLIT_CACHE_DIR enables the disk tier)")
    if baseline:
        return compare(report, baseline, tolerance)
    return 0
