"""Low-overhead hot-path profiler for the message engine.

``repro bench --profile`` answers *where a message's time goes*: the
per-stage timings in :mod:`.bench` say execution dominates, but not
whether the cost is dispatch bookkeeping, HMAC token verification,
label checks, trace/accounting construction, or frame/field store
access.  This module attributes wall-clock inside the execute stage to
those categories with a counter/sampler hybrid:

* **Counters** — a handful of hot-path methods are wrapped with
  ``perf_counter`` pairs.  Wrappers nest (``handle`` calls
  ``run_chain`` calls ``mint``), so each records *exclusive* time: a
  wrapper subtracts its children's elapsed time before crediting its
  own category, and the category sums are therefore disjoint — they
  add up to (at most) the measured wall clock, never double-count.
* **Sampler** (optional) — a daemon thread polls the profiler's
  wrapper stack at ~1 kHz and counts which category is on top.  The
  sample histogram cross-checks the counter attribution without the
  per-call overhead being part of what it measures.  (Caveat: the
  sampler thread can only run when the main thread yields the GIL, so
  samples skew toward categories with C-level calls — HMAC digests in
  ``token`` above all.  Treat samples qualitatively; ``seconds`` is
  the authoritative attribution.)

The wrappers are installed by monkey-patching the runtime classes and
removed afterwards, so profiling is strictly opt-in: a normal bench or
test run never pays for it (the hot path has zero profiling hooks).
That opt-in cost is also why the profiled pass is *separate* from the
timing pass in ``bench --profile`` — the timing numbers are recorded
unwrapped, then the same workloads re-run wrapped for attribution.

Categories:

``dispatch``
    :meth:`TrustedHost.handle` minus everything below it — request
    validation, dedup, dispatch-table lookup, reply bookkeeping.
``execute``
    :meth:`TrustedHost.run_chain` minus its children — the compiled
    fragment bodies themselves.
``token``
    :class:`TokenFactory` mint / verify / seal / verify_seal — all
    HMAC work (the batched-verify memo shrinks exactly this slice).
``label``
    ``flows_to`` on the label classes — information-flow checks.
``trace``
    :meth:`SimNetwork._account` and :meth:`SimNetwork.flow` — message
    accounting, log/trace event construction.
``store``
    Frame variable and field/array access on the host.
``other``
    Wall clock not covered by any wrapper (queue churn, scheduler,
    Python interpreter overhead between hooks).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Attribution categories, in report order.
CATEGORIES = ("dispatch", "execute", "token", "label", "trace", "store")

#: Sampler period in seconds (~1 kHz; coarse is fine — samples only
#: cross-check the counter attribution).
SAMPLE_PERIOD = 0.001


class Profiler:
    """Exclusive-time wrapper profiler over the runtime hot path.

    Use as a context manager around the code to attribute::

        profiler = Profiler()
        with profiler:
            DistributedExecutor(split).run()
        report = profiler.breakdown()

    Not thread-safe for the *profiled* code (the runtime is
    single-threaded per simulation); the sampler thread only reads the
    top of the wrapper stack, where a torn read costs one misattributed
    sample at worst.
    """

    def __init__(self, sample: bool = True) -> None:
        self.seconds: Dict[str, float] = {cat: 0.0 for cat in CATEGORIES}
        self.calls: Dict[str, int] = {cat: 0 for cat in CATEGORIES}
        self.samples: Dict[str, int] = {cat: 0 for cat in CATEGORIES}
        self.messages = 0
        self.wall_seconds = 0.0
        self._sample = sample
        #: wrapper stack: ``[category, child_seconds]`` per active call.
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[type, str, Callable]] = []
        self._sampler: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._wall_start: Optional[float] = None

    # -- wrapping ----------------------------------------------------------

    def _wrap(
        self, category: str, func: Callable, counts_message: bool = False
    ) -> Callable:
        perf = time.perf_counter
        stack = self._stack
        seconds = self.seconds
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [category, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                seconds[category] += elapsed - frame[1]
                calls[category] += 1
                if stack:
                    stack[-1][1] += elapsed
                if counts_message:
                    self.messages += 1

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def _patch(
        self, cls: type, name: str, category: str, counts_message: bool = False
    ) -> None:
        # Patch the class that actually defines the method (e.g.
        # SimNetwork inherits _account/flow from Transport), so every
        # backend sharing the base is profiled and uninstall restores
        # the right slot.
        for owner in cls.__mro__:
            if name in owner.__dict__:
                cls = owner
                break
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, self._wrap(category, original, counts_message))

    def install(self) -> None:
        from ..labels import labels as label_mod
        from ..runtime.host import TrustedHost
        from ..runtime.network import SimNetwork
        from ..runtime.tokens import TokenFactory

        self._patch(TrustedHost, "handle", "dispatch", counts_message=True)
        self._patch(TrustedHost, "run_chain", "execute")
        for name in ("mint", "verify", "seal", "verify_seal"):
            self._patch(TokenFactory, name, "token")
        for cls in (
            label_mod.ConfLabel, label_mod.IntegLabel, label_mod.Label
        ):
            self._patch(cls, "flows_to", "label")
        self._patch(SimNetwork, "_account", "trace")
        self._patch(SimNetwork, "flow", "trace")
        for name in (
            "var", "set_var", "read_field", "write_field",
            "read_element", "write_element",
        ):
            self._patch(TrustedHost, name, "store")
        if self._sample:
            self._stop.clear()
            self._sampler = threading.Thread(
                target=self._sample_loop, daemon=True
            )
            self._sampler.start()
        self._wall_start = time.perf_counter()

    def uninstall(self) -> None:
        if self._wall_start is not None:
            self.wall_seconds += time.perf_counter() - self._wall_start
            self._wall_start = None
        if self._sampler is not None:
            self._stop.set()
            self._sampler.join(timeout=1.0)
            self._sampler = None
        while self._patches:
            cls, name, original = self._patches.pop()
            setattr(cls, name, original)

    def __enter__(self) -> "Profiler":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def _sample_loop(self) -> None:
        stack = self._stack
        samples = self.samples
        while not self._stop.wait(SAMPLE_PERIOD):
            if stack:
                try:
                    samples[stack[-1][0]] += 1
                except (IndexError, KeyError):
                    # Raced a push/pop: one lost sample, by design.
                    pass

    # -- reporting ---------------------------------------------------------

    def breakdown(self) -> Dict[str, Any]:
        """The attribution report embedded into the bench JSON.

        ``seconds`` (exclusive, per category) plus ``other_seconds``
        sum to ``wall_seconds`` by construction, which is what the CI
        profile smoke asserts.
        """
        measured = sum(self.seconds.values())
        other = max(0.0, self.wall_seconds - measured)
        per_message = (
            self.wall_seconds / self.messages if self.messages else 0.0
        )
        return {
            "wall_seconds": self.wall_seconds,
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "samples": dict(self.samples),
            "other_seconds": other,
            "messages": self.messages,
            "per_message_seconds": per_message,
        }


def profile_execution(seeds: int = 25, quiet: bool = False) -> Dict[str, Any]:
    """The ``bench --profile`` pass: re-run the Table 1 workloads plus
    ``seeds`` progen programs with the profiler installed, attributing
    the execute stage's wall clock.

    Splits are prepared *before* the profiler is armed, so frontend
    time never pollutes the per-message attribution; the profiled
    region is exactly the ``DistributedExecutor.run`` calls.
    """
    import sys

    from .. import progen
    from ..runtime import DistributedExecutor
    from ..splitter import split_source
    from ..workloads import listcompare, ot, tax, work

    sources = [
        (module.source(), module.config())
        for module in (listcompare, ot, tax, work)
    ]
    sources.extend(
        (progen.generate_program(seed), progen.config())
        for seed in range(seeds)
    )
    splits = [
        split_source(source, config).split for source, config in sources
    ]
    if not quiet:
        print(
            f"bench: profiling execution over {len(splits)} programs ...",
            file=sys.stderr,
        )
    profiler = Profiler()
    with profiler:
        for split in splits:
            DistributedExecutor(split).run()
    report = profiler.breakdown()
    report["programs"] = len(splits)
    return report


def format_breakdown(report: Dict[str, Any]) -> str:
    """Human-readable one-block summary of a profile report."""
    lines = [
        f"profile: {report['messages']} messages over "
        f"{report.get('programs', '?')} programs, "
        f"{report['wall_seconds']:.3f}s wall "
        f"({report['per_message_seconds'] * 1e6:.1f}us/message)"
    ]
    total = report["wall_seconds"] or 1.0
    rows = sorted(
        report["seconds"].items(), key=lambda kv: kv[1], reverse=True
    )
    for category, value in rows:
        share = 100.0 * value / total
        lines.append(
            f"profile:   {category:<9} {value:.3f}s ({share:5.1f}%)  "
            f"{report['calls'][category]} calls, "
            f"{report['samples'][category]} samples"
        )
    other = report["other_seconds"]
    lines.append(
        f"profile:   {'other':<9} {other:.3f}s "
        f"({100.0 * other / total:5.1f}%)"
    )
    return "\n".join(lines)
