"""Seeded fault-injection sweeps: the "never a wrong answer" check.

Every fault driver — the random-schedule :func:`sweep`, the
deterministic :func:`crash_point_sweep`, the durable tier's
:func:`storage_fault_sweep` and the SIGKILL harness
(:func:`repro.runtime.storage.harness.kill_and_rehydrate`) — judges
its runs against one **oracle**, the :func:`fingerprint` of the split's
fault-free run (field values, observables, ICS depths, audit log and
flow log), with one :func:`verdict`.  A run either

* **completes** with the oracle's field values and ICS depths, an
  empty audit log, and no recorded message or flow-log entry above the
  receiving host's confidentiality clearance — an absolute check, the
  Section 3.2 assurance property, with no exemption for what the
  fault-free run itself does; a run that must equal the fault-free run
  (a rehydrated one) also matches the whole fingerprint; or
* **fails closed** with an explicit
  :class:`~repro.runtime.network.DeliveryTimeoutError`.

Anything else — a wrong field value, a label above the receiver's
clearance, an unexpected exception — is a failure.  Each driver adds
only its own checks on top (the crash point fired, a volatile crash
logged a recovery, a ``degraded`` event appears exactly when the tier
was detached, tampering was detected) and reports one
:class:`FaultOutcome` per run in one :class:`FaultReport`.  The CLI
(``python -m repro faultsweep``) and the differential test harness both
drive this engine.

``sweep`` and ``crash_point_sweep`` take a ``storage`` mode: ``memory``
(the default) runs every schedule without a durable tier, ``sqlite``
runs each one over its own :class:`~repro.runtime.storage.SessionStorage`
in a temporary directory, so protocol faults also exercise the durable
write-through path.  The fault-free oracle always runs without one.
"""

from __future__ import annotations

import contextlib
import random
import shutil
import tempfile
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .. import parallel
from ..splitter.fragments import SplitProgram
from ..trust import KeyRegistry
from .checkpoint import CheckpointTamperError
from .executor import ExecutionResult
from .faults import CrashPointInjector, FaultInjector, FaultPolicy
from .network import DeliveryTimeoutError, Message
from .session import RuntimeImage, Session
from .storage import SessionStorage, StorageUnavailableError, rehydrate_session
from .storage.faultsim import (
    TAMPER_KINDS,
    StorageFaultInjector,
    StorageFaultPolicy,
    tamper,
)
from .trace import record_messages, recorded_run

#: The ``storage`` modes of :func:`sweep` and :func:`crash_point_sweep`.
STORAGE_MODES = ("memory", "sqlite")


def _check_storage_mode(storage: str) -> None:
    if storage not in STORAGE_MODES:
        raise ValueError(
            f"unknown storage mode {storage!r}; expected one of "
            f"{', '.join(STORAGE_MODES)}"
        )


@contextlib.contextmanager
def _storage_tier(storage: str) -> Iterator[Optional[SessionStorage]]:
    """The durable tier for one schedule or crash point: none under
    ``memory``; under ``sqlite`` a fresh ``SessionStorage`` in a
    temporary directory, closed and removed afterwards."""
    if storage == "memory":
        yield None
        return
    directory = tempfile.mkdtemp(prefix="repro-sweep-")
    tier = SessionStorage(directory)
    try:
        yield tier
    finally:
        tier.close()
        shutil.rmtree(directory, ignore_errors=True)


def split_for_sweep(source: str, config) -> SplitProgram:
    """Partition ``source`` for a sweep, through the whole-pipeline
    split cache.

    A sweep driver that re-splits the same (source, config) pair in
    one process gets the split from the memory tier instead of
    re-running the splitter.  The rehydrated split is observably
    identical to a fresh compile (pinned by
    ``tests/splitter/test_split_cache.py``), so sweep verdicts cannot
    depend on how the split was obtained.
    """
    from ..splitter.partition import split_source

    return split_source(source, config).split


def random_policy(rng: random.Random) -> FaultPolicy:
    """Draw one fault schedule's knobs; spans mild to fairly hostile."""
    policy = FaultPolicy(
        drop_prob=rng.uniform(0.0, 0.15),
        duplicate_prob=rng.uniform(0.0, 0.15),
        reorder_prob=rng.uniform(0.0, 0.3),
        jitter_max=rng.uniform(0.0, 1e-3),
        crash_prob=rng.uniform(0.0, 0.02),
        crash_downtime=rng.uniform(1e-4, 4e-3),
        max_crashes=3,
    )
    # Drawn last so every pre-existing seed keeps its exact fault
    # schedule: half the schedules now crash with volatile state
    # (checkpoint + WAL recovery), half with the legacy durable state.
    if rng.random() < 0.5:
        policy.crash_mode = "volatile"
    return policy


class FaultOutcome:
    """One driver run and its verdict."""

    __slots__ = ("key", "name", "status", "detail", "fault_counts",
                 "degraded", "tampered")

    def __init__(
        self,
        key: Any,
        name: str,
        status: str,
        detail: str = "",
        fault_counts: Optional[Dict[str, int]] = None,
        degraded: bool = False,
        tampered: str = "",
    ) -> None:
        #: what determines the run: a seed, a ``(host, kind,
        #: occurrence)`` crash point, or a kill trigger.
        self.key = key
        #: how a failure line names the run.
        self.name = name
        #: "ok" | "timeout" | "failure"
        self.status = status
        self.detail = detail
        self.fault_counts = fault_counts or {}
        #: whether the live run lost its durable tier mid-flight.
        self.degraded = degraded
        #: the post-mortem tamper kind applied ("" = none).
        self.tampered = tampered

    @classmethod
    def from_problems(
        cls, key: Any, name: str, problems: List[str], **extra
    ) -> "FaultOutcome":
        """A finished run's outcome: ok unless a check failed."""
        if problems:
            return cls(key, name, "failure", "; ".join(problems), **extra)
        return cls(key, name, "ok", **extra)

    def __repr__(self) -> str:
        return f"FaultOutcome({self.name}, {self.status})"


class FaultReport:
    """Aggregate of one sweep: its oracle and every run's outcome, in
    input order (independent of ``jobs``)."""

    def __init__(self, kind: str, oracle: Dict[str, Any], name: str = "") -> None:
        #: "schedules" | "crash points" | "storage schedules"
        self.kind = kind
        self.oracle = oracle
        self.tag = f"{name} " if name else ""
        self.outcomes: List[FaultOutcome] = []

    @property
    def failures(self) -> List[str]:
        return [
            f"{self.tag}{o.name}: {o.detail}"
            for o in self.outcomes if o.status == "failure"
        ]

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def timeouts(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "timeout")

    @property
    def degradations(self) -> int:
        return sum(1 for o in self.outcomes if o.degraded)

    def summary(self) -> str:
        total, failed = len(self.outcomes), len(self.failures)
        if self.kind == "storage schedules":
            tampers = sum(1 for o in self.outcomes if o.tampered)
            line = (
                f"{total} storage schedules: {self.completed} ok "
                f"({self.degradations} degraded gracefully, {tampers} "
                f"tamper checks failed closed), {failed} FAILED"
            )
        else:
            verb = "completed" if self.kind == "schedules" else "recovered"
            line = (
                f"{total} {self.kind}: {self.completed} {verb} with the "
                f"fault-free result, {self.timeouts} failed closed "
                f"(timeout), {failed} FAILED"
            )
            if self.kind == "schedules":
                faults = sum(
                    sum(o.fault_counts.values()) for o in self.outcomes
                )
                line += f"; {faults} injected fault events"
        return "\n".join([line] + [f"  FAIL {f}" for f in self.failures])


# ----------------------------------------------------------------------
# The oracle and the verdict
# ----------------------------------------------------------------------


def fingerprint(split: SplitProgram, outcome: ExecutionResult) -> Dict[str, Any]:
    """Everything observable about a finished run: field values,
    observables (message counts, simulated time, ICS depths), the audit
    log and the flow log."""
    return {
        "fields": {
            key: outcome.field_value(*key, default=None)
            for key in sorted(split.fields)
        },
        "observables": outcome.observables(),
        "audits": list(outcome.network.audit_log),
        "flows": [tuple(flow) for flow in outcome.network.flow_log],
    }


def oracle(
    split: SplitProgram, opt_level: int = 1, cost_model=None
) -> Tuple[Dict[str, Any], List[Message]]:
    """The fault-free run's fingerprint — what every driver's runs are
    judged against — and its message sequence."""
    outcome, messages = recorded_run(
        split, opt_level=opt_level, cost_model=cost_model
    )
    return fingerprint(split, outcome), messages


def assurance_problems(
    split: SplitProgram, outcome: ExecutionResult, messages: List[Message]
) -> List[str]:
    """Label violations among everything the network saw delivered.

    Checks both the per-message instrumentation (each transmitted
    message in ``messages``, the run's recorded sequence, against the
    destination's confidentiality clearance) and the flow log (each
    labeled value that became visible to a host).
    """
    config = split.config
    problems: List[str] = []
    for message in messages:
        descriptor = config.host(message.dst)
        for label in message.data_labels:
            if not label.conf.flows_to(descriptor.conf):
                problems.append(
                    f"{message.kind} {message.src}->{message.dst} carried "
                    f"{label} above C_{message.dst}"
                )
    for label, host in outcome.network.flow_log:
        descriptor = config.host(host)
        if not label.conf.flows_to(descriptor.conf):
            problems.append(f"data labeled {label} became visible to {host}")
    return problems


def verdict(
    split: SplitProgram,
    expected: Dict[str, Any],
    outcome: ExecutionResult,
    messages: List[Message],
    exact: bool = False,
) -> List[str]:
    """What is wrong with a finished run, judged against the oracle
    fingerprint ``expected``: wrong field values or ICS depths, a
    non-empty audit log, or data above a receiver's clearance.  With
    ``exact`` the run must also match the whole fingerprint.  Empty
    means never a wrong answer."""
    run = fingerprint(split, outcome)
    problems: List[str] = []
    for key, want in expected["fields"].items():
        got = run["fields"][key]
        if got != want:
            problems.append(
                f"field {key[0]}.{key[1]} = {got!r}, expected {want!r}"
            )
    depths = run["observables"]["ics_depths"]
    for host, want in expected["observables"]["ics_depths"].items():
        got = depths[host]
        if got != want:
            problems.append(f"{host} ICS depth {got} != fault-free {want}")
    if run["audits"]:
        problems.append(f"audit log not empty: {run['audits']}")
    problems.extend(assurance_problems(split, outcome, messages))
    if exact:
        for part in ("observables", "flows"):
            if run[part] != expected[part]:
                problems.append(f"{part} diverge from the fault-free run")
    return problems


def _faulty_run(
    key: Any,
    name: str,
    faults: FaultInjector,
    token_rng: random.Random,
    checks: Callable[[ExecutionResult], List[str]] = lambda outcome: [],
) -> FaultOutcome:
    """One run under ``faults`` with the fork-shared split, oracle,
    opt level and storage mode, judged by :func:`verdict` plus the
    driver's own ``checks(outcome)``."""
    shared = parallel.state()
    split = shared["split"]
    try:
        with _storage_tier(shared["storage"]) as tier:
            outcome, messages = recorded_run(
                split, opt_level=shared["opt_level"], faults=faults,
                token_rng=token_rng, storage=tier,
            )
    except DeliveryTimeoutError as error:
        return FaultOutcome(
            key, name, "timeout", str(error), {"crashes": faults.crashes}
        )
    except Exception as error:  # noqa: BLE001 — any other escape is a bug
        return FaultOutcome(key, name, "failure", f"unexpected {error!r}")
    problems = verdict(split, shared["oracle"], outcome, messages)
    problems.extend(checks(outcome))
    return FaultOutcome.from_problems(
        key, name, problems, fault_counts=dict(outcome.network.fault_counts)
    )


# ----------------------------------------------------------------------
# Random fault schedules
# ----------------------------------------------------------------------


def _run_schedule(seed: int) -> FaultOutcome:
    """One seeded fault schedule (a :func:`parallel.fork_map` task)."""
    policy = parallel.state()["policy_factory"](random.Random(seed))
    return _faulty_run(
        seed, f"seed={seed} {policy}", FaultInjector(policy, seed=seed),
        random.Random(seed ^ 0x5EED),
    )


def sweep(
    split: SplitProgram,
    schedules: int = 50,
    base_seed: int = 0,
    opt_level: int = 1,
    policy_factory: Callable[[random.Random], FaultPolicy] = random_policy,
    name: str = "",
    jobs: int = 1,
    storage: str = "memory",
) -> FaultReport:
    """Run ``schedules`` seeded fault schedules against ``split``, each
    over the durable tier ``storage`` names (see the module docstring).

    With ``jobs > 1`` the schedules run in a shared-nothing pool of
    forked workers; every schedule is seeded independently, so the
    report is identical to a serial run regardless of ``jobs``.  The
    split program (and with it every split-cache and label-cache
    entry its construction populated) is built in the parent before the
    pool forks, so workers inherit warm caches by memory copy.
    """
    _check_storage_mode(storage)
    expected, _ = oracle(split, opt_level)
    report = FaultReport("schedules", expected, name)
    report.outcomes = parallel.fork_map(
        _run_schedule,
        [base_seed + index for index in range(schedules)],
        jobs,
        shared={
            "split": split,
            "oracle": expected,
            "opt_level": opt_level,
            "policy_factory": policy_factory,
            "storage": storage,
        },
    )
    return report


# ----------------------------------------------------------------------
# Crash-point sweep: crash every host at every message-kind boundary
# ----------------------------------------------------------------------


def _pick_occurrences(total: int, per_point: Optional[int]) -> List[int]:
    """Up to ``per_point`` receipt indices in [0, total), evenly spaced
    and always including the first and last receipt; None means all."""
    if per_point is None or per_point >= total:
        return list(range(total))
    if per_point <= 1:
        return [0]
    step = (total - 1) / (per_point - 1)
    return sorted({round(i * step) for i in range(per_point)})


def _run_crash_point(point: Tuple[str, str, int]) -> FaultOutcome:
    """One deterministic crash point (a :func:`parallel.fork_map`
    task): it must fire and, when volatile, log a recovery."""
    shared = parallel.state()
    dst, kind, occurrence = point
    injector = CrashPointInjector(
        dst, kind, occurrence,
        crash_downtime=shared["crash_downtime"],
        crash_mode=shared["crash_mode"],
    )

    def checks(outcome: ExecutionResult) -> List[str]:
        if not injector.fired:
            return ["crash point never reached"]
        if injector.policy.crash_mode == "volatile" and not any(
            event[0] == "recover" for event in outcome.network.fault_events
        ):
            return ["no recovery event after a volatile crash"]
        return []

    return _faulty_run(
        point, f"{dst}/{kind}@{occurrence}", injector,
        random.Random(shared["token_seed"]), checks,
    )


def crash_point_sweep(
    split: SplitProgram,
    opt_level: int = 1,
    per_point: Optional[int] = 3,
    crash_mode: str = "volatile",
    crash_downtime: float = 2e-3,
    name: str = "",
    token_seed: int = 0x5EED,
    jobs: int = 1,
    storage: str = "memory",
) -> FaultReport:
    """Crash each host at each message-kind receipt boundary, recover,
    and check the run still ends with the fault-free answer.  Each
    point runs over the durable tier ``storage`` names (see the module
    docstring).

    The boundaries are enumerated from the oracle run's message
    sequence: every remote ``(dst host, kind)`` pair, sampled at up to
    ``per_point`` receipt indices (``None`` = every single receipt).
    Because :class:`~repro.runtime.faults.CrashPointInjector` injects no
    other fault, the pre-crash prefix of each run matches the oracle
    exactly, so every enumerated point is guaranteed to fire.

    With ``jobs > 1`` the crash points run in a shared-nothing pool of
    forked workers; each point is fully determined by its
    ``(host, kind, occurrence)`` triple, so the report is identical to
    a serial run regardless of ``jobs``.
    """
    _check_storage_mode(storage)
    expected, messages = oracle(split, opt_level)
    receipt_counts = Counter(
        (m.dst, m.kind) for m in messages if m.src != m.dst
    )
    points = [
        (dst, kind, occurrence)
        for (dst, kind), total in sorted(receipt_counts.items())
        for occurrence in _pick_occurrences(total, per_point)
    ]
    report = FaultReport("crash points", expected, name)
    report.outcomes = parallel.fork_map(
        _run_crash_point, points, jobs,
        shared={
            "split": split,
            "oracle": expected,
            "opt_level": opt_level,
            "crash_mode": crash_mode,
            "crash_downtime": crash_downtime,
            "token_seed": token_seed,
            "storage": storage,
        },
    )
    return report


# ----------------------------------------------------------------------
# Storage fault sweep: the durable tier under injected storage failures
# ----------------------------------------------------------------------


def rehydrated_run(
    split: SplitProgram,
    directory: str,
    expected: Dict[str, Any],
    opt_level: int = 1,
    cost_model=None,
) -> List[str]:
    """Rehydrate the session a dead process left in ``directory``, run
    the rest of it at the dead run's ``opt_level`` and ``cost_model``,
    and judge it: it must equal the fault-free run.  A tier that fails
    verification raises, as
    :func:`~repro.runtime.storage.rehydrate_session` does."""
    session = rehydrate_session(split, directory, cost_model, opt_level)
    try:
        messages = record_messages(session.network)
        return verdict(split, expected, session.run(), messages, exact=True)
    finally:
        session.storage.close()


def _run_storage_schedule(seed: int) -> FaultOutcome:
    """One seeded storage fault schedule (a :func:`parallel.fork_map`
    task); see :func:`storage_fault_sweep`."""
    shared = parallel.state()
    split, expected = shared["split"], shared["oracle"]
    rng = random.Random(seed ^ 0x570AA6E)
    policy = StorageFaultPolicy(
        busy_prob=rng.uniform(0.0, 0.3),
        diskfull_after=rng.randrange(5, 80) if rng.random() < 0.4 else None,
    )
    directory = tempfile.mkdtemp(prefix="repro-storage-sweep-")
    storage = SessionStorage(directory)
    problems: List[str] = []
    degraded, tampered = False, ""
    try:
        StorageFaultInjector(policy, seed=seed).install(storage)
        session = Session(
            shared["image"], opt_level=shared["opt_level"], storage=storage
        )
        messages = record_messages(session.network)
        try:
            outcome = session.run()
        except Exception as error:  # noqa: BLE001 — any escape is a bug
            problems.append(f"live run raised {error!r}")
            outcome = None
        if outcome is not None:
            problems.extend(verdict(split, expected, outcome, messages))
            degraded = not storage.available
            event = any(
                e[0] == "degraded" for e in session.network.fault_events
            )
            if degraded and not event:
                problems.append("storage degraded without a recorded event")
            if event and not degraded:
                problems.append(
                    "degraded event recorded but tier still attached"
                )
        if outcome is not None and not degraded:
            # Post-mortem: tamper half the surviving directories.
            storage.fault_hook = None
            storage.close()
            if rng.random() < 0.5:
                tampered = TAMPER_KINDS[rng.randrange(len(TAMPER_KINDS))]
                try:
                    tamper(directory, tampered)
                except RuntimeError:
                    # No rows of the targeted kind (e.g. an empty WAL
                    # right after a checkpoint): tamper the checkpoint
                    # instead, which always exists.
                    tampered = "corrupt-page"
                    tamper(directory, tampered)
            try:
                problems.extend(rehydrated_run(
                    split, directory, expected, shared["opt_level"]
                ))
                if tampered:
                    problems.append(f"tamper {tampered} was not detected")
            except (CheckpointTamperError, StorageUnavailableError):
                if not tampered:
                    problems.append("untampered directory failed rehydration")
            except Exception as error:  # noqa: BLE001
                problems.append(f"rehydration raised unexpected {error!r}")
    finally:
        storage.close()
        shutil.rmtree(directory, ignore_errors=True)
    return FaultOutcome.from_problems(
        seed, f"seed={seed}", problems, degraded=degraded, tampered=tampered
    )


def storage_fault_sweep(
    split: SplitProgram,
    schedules: int = 25,
    base_seed: int = 0,
    opt_level: int = 1,
    name: str = "",
) -> FaultReport:
    """Run seeded storage-fault schedules against the SQLite tier.

    Each schedule runs the workload on a SQLite-backed session with a
    seeded :class:`~repro.runtime.storage.faultsim.StorageFaultInjector`
    (locked/busy databases exercising the bounded retry path, disk-full
    exercising graceful degradation).  The live run must pass the
    :func:`verdict` — the in-memory state is authoritative, so a dying
    disk may cost durability, never correctness — and a degradation
    must leave a recorded ``degraded`` trace event.  When the tier
    survives, the schedule then attacks the directory post-mortem with
    a seeded tamper kind and requires rehydration to fail closed (or,
    untampered, to reproduce the oracle's whole fingerprint).
    """
    expected, _ = oracle(split, opt_level)
    report = FaultReport("storage schedules", expected, name)
    report.outcomes = parallel.fork_map(
        _run_storage_schedule,
        [base_seed + index for index in range(schedules)],
        1,
        shared={
            "split": split,
            "oracle": expected,
            "opt_level": opt_level,
            "image": RuntimeImage(split, KeyRegistry()),
        },
    )
    return report
