"""Serve-mode observability: per-request latency and error counters.

The gateway records one sample per execution request — workload name,
wall-clock latency, and the structured error code (or ``None`` for
success).  ``snapshot`` folds the samples into a nearest-rank
percentile summary — ``p50``/``p99``/``p999``/``mean`` per workload —
plus global counters by outcome code.

Thread-safety: the gateway handles requests on worker threads (the
blocking ``Session.run`` runs off the event loop), so ``record`` takes
a lock.  Snapshotting is cheap — serve runs are seconds to minutes,
not unbounded — and samples are kept raw so percentiles are exact.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Optional


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list (q in 0..1):
    the smallest sample with at least ``q`` of the samples at or below
    it, i.e. index ``ceil(q * n) - 1``; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    count = len(sorted_values)
    rank = math.ceil(q * count) - 1
    return sorted_values[max(0, min(count - 1, rank))]


class ServeStats:
    """Latency and outcome accounting for one gateway lifetime."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        #: outcome code -> count ("ok", "rate-limit", "quarantine", ...).
        self.outcomes: Dict[str, int] = {}
        #: workload -> wall-clock latencies of successful runs (seconds).
        self.latencies: Dict[str, List[float]] = {}
        self.connections = 0

    def record(
        self,
        workload: str,
        wall_seconds: float,
        code: Optional[str] = None,
    ) -> None:
        """One finished request: ``code=None`` means success."""
        outcome = code or "ok"
        with self._lock:
            self.requests += 1
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            if code is None:
                self.latencies.setdefault(workload, []).append(wall_seconds)
            else:
                self.errors += 1

    def note_connection(self) -> None:
        with self._lock:
            self.connections += 1

    @staticmethod
    def _summary(latencies: List[float]) -> Dict[str, float]:
        ordered = sorted(latencies)
        count = len(ordered)
        return {
            "count": count,
            "p50": round(percentile(ordered, 0.50), 9),
            "p99": round(percentile(ordered, 0.99), 9),
            "p999": round(percentile(ordered, 0.999), 9),
            "mean": round(sum(ordered) / count, 9) if count else 0.0,
        }

    def snapshot(self) -> Dict[str, Any]:
        """The serve report: counters plus per-workload latency summary."""
        with self._lock:
            per_workload = {
                name: self._summary(samples)
                for name, samples in sorted(self.latencies.items())
            }
            all_samples = [
                s for samples in self.latencies.values() for s in samples
            ]
            return {
                "connections": self.connections,
                "requests": self.requests,
                "errors": self.errors,
                "outcomes": dict(sorted(self.outcomes.items())),
                "latency": self._summary(all_samples),
                "latency_by_workload": per_workload,
            }
