"""Fault injection for the simulated network.

The paper's runtime assumes reliable, in-order SSL channels (Section
3.1).  This module drops that assumption in a controlled way: a
:class:`FaultInjector` — driven entirely by a seeded RNG, so every fault
schedule is reproducible from its seed — decides, per delivery attempt,
whether a message is lost, duplicated, reordered, delayed, or whether
the destination host crashes on receipt.  The reliable-delivery layer
in :mod:`repro.runtime.network` (sequence numbers, ack/retry with
exponential backoff, receiver-side idempotency) masks these faults or
fails closed with :class:`~repro.runtime.network.DeliveryTimeoutError`.

Crashes are fail-stop and come in two state models (``crash_mode``):

* ``"durable"`` — the original model: a crashed host loses messages in
  flight but keeps its fields, frames, ICS slice, and
  duplicate-suppression table across the restart, as if every mutation
  hit stable storage synchronously.
* ``"volatile"`` — the realistic model: a crash wipes all of that, and
  the restarted host must rebuild its state from its
  :class:`~repro.runtime.checkpoint.DurableStore` (sealed checkpoint +
  write-ahead-log replay) and announce its recovery to the other hosts.

Besides the probabilistic :class:`FaultInjector`, the deterministic
:class:`CrashPointInjector` crashes one chosen host at one chosen
message-receipt boundary — the building block of the crash-point sweep
(:func:`repro.runtime.faultsweep.crash_point_sweep`), which proves
recovery works at *every* boundary, not just the ones a random schedule
happens to hit.  Byzantine behaviour is a different adversary, already
modelled by :mod:`repro.runtime.attacks`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional


class FaultPolicy:
    """Knobs for the fault injector.  All probabilities are per event.

    * ``drop_prob`` — chance each transmitted copy (request, reply, or
      control message) is lost in transit;
    * ``duplicate_prob`` — chance a delivered message arrives twice;
    * ``reorder_prob`` — chance a control message is inserted out of
      order into the destination's inbox;
    * ``jitter_max`` — extra one-way delay, uniform in [0, jitter_max];
    * ``crash_prob`` — chance the destination host fail-stops on
      receipt (the message is lost);
    * ``crash_downtime`` — simulated seconds before the crashed host
      restarts;
    * ``max_crashes`` — total crash budget across the run (``None`` for
      unlimited), which keeps schedules from livelocking a run;
    * ``crashable_hosts`` — restrict crashes to these hosts (``None``
      means any host may crash);
    * ``crash_mode`` — ``"durable"`` (state survives the restart) or
      ``"volatile"`` (a crash wipes the host; it recovers from its
      sealed checkpoint + WAL and announces the recovery).
    """

    def __init__(
        self,
        drop_prob: float = 0.0,
        duplicate_prob: float = 0.0,
        reorder_prob: float = 0.0,
        jitter_max: float = 0.0,
        crash_prob: float = 0.0,
        crash_downtime: float = 2e-3,
        max_crashes: Optional[int] = None,
        crashable_hosts: Optional[Iterable[str]] = None,
        crash_mode: str = "durable",
    ) -> None:
        for name, p in (
            ("drop_prob", drop_prob),
            ("duplicate_prob", duplicate_prob),
            ("reorder_prob", reorder_prob),
            ("crash_prob", crash_prob),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.drop_prob = drop_prob
        self.duplicate_prob = duplicate_prob
        self.reorder_prob = reorder_prob
        self.jitter_max = jitter_max
        self.crash_prob = crash_prob
        self.crash_downtime = crash_downtime
        self.max_crashes = max_crashes
        self.crashable_hosts = (
            frozenset(crashable_hosts) if crashable_hosts is not None else None
        )
        if crash_mode not in ("durable", "volatile"):
            raise ValueError(
                f"crash_mode must be 'durable' or 'volatile', got {crash_mode!r}"
            )
        self.crash_mode = crash_mode

    def __repr__(self) -> str:
        return (
            f"FaultPolicy(drop={self.drop_prob:.3f}, "
            f"dup={self.duplicate_prob:.3f}, "
            f"reorder={self.reorder_prob:.3f}, "
            f"jitter={self.jitter_max:.2e}, "
            f"crash={self.crash_prob:.3f}, "
            f"mode={self.crash_mode})"
        )


class RetryPolicy:
    """Ack/retry parameters of the reliable-delivery layer.

    The sender retransmits after ``base_timeout`` simulated seconds,
    doubling (``backoff``) on every further attempt but never waiting
    longer than ``max_timeout`` per attempt, and gives up — failing
    closed — after ``max_retries`` retransmissions *or* once the total
    time spent waiting on one message exceeds ``deadline`` (``None``
    disables the deadline).  Both bounds guarantee a permanently-dead
    destination yields a
    :class:`~repro.runtime.network.DeliveryTimeoutError` in bounded
    simulated time instead of unbounded exponential doubling.
    """

    def __init__(
        self,
        base_timeout: float = 2e-3,
        backoff: float = 2.0,
        max_retries: int = 12,
        max_timeout: float = 0.5,
        deadline: Optional[float] = None,
    ) -> None:
        if base_timeout <= 0:
            raise ValueError("base_timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if max_timeout < base_timeout:
            raise ValueError("max_timeout must be >= base_timeout")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive when set")
        self.base_timeout = base_timeout
        self.backoff = backoff
        self.max_retries = max_retries
        #: cap on a single retransmission timer (truncated exponential
        #: backoff).
        self.max_timeout = max_timeout
        #: total simulated time one message may spend waiting on timers
        #: before the sender fails closed.
        self.deadline = deadline

    def timeout(self, attempt: int) -> float:
        """Retransmission timer after the ``attempt``-th failed send."""
        return min(
            self.base_timeout * (self.backoff ** attempt), self.max_timeout
        )

    def past_deadline(self, waited: float) -> bool:
        """Has ``waited`` (total timer time for one message) run out?"""
        return self.deadline is not None and waited >= self.deadline


class FaultInjector:
    """Seeded source of fault decisions; owns the crash/restart state."""

    def __init__(
        self, policy: Optional[FaultPolicy] = None, seed: int = 0
    ) -> None:
        self.policy = policy or FaultPolicy()
        self.seed = seed
        self.rng = random.Random(seed)
        #: host -> simulated time at which it comes back up.
        self.down_until: Dict[str, float] = {}
        self.crashes = 0

    # -- per-delivery decisions ----------------------------------------------

    def should_drop(self) -> bool:
        p = self.policy.drop_prob
        return bool(p) and self.rng.random() < p

    def should_duplicate(self) -> bool:
        p = self.policy.duplicate_prob
        return bool(p) and self.rng.random() < p

    def jitter(self) -> float:
        j = self.policy.jitter_max
        return self.rng.uniform(0.0, j) if j else 0.0

    def reorder_slot(self, queue_len: int) -> Optional[int]:
        """Index to insert a control message at, or None to append."""
        p = self.policy.reorder_prob
        if queue_len and p and self.rng.random() < p:
            return self.rng.randrange(queue_len + 1)
        return None

    # -- crash / restart -----------------------------------------------------

    def maybe_crash(
        self, host: str, clock: float, kind: Optional[str] = None
    ) -> bool:
        """Roll for a fail-stop of ``host`` at time ``clock``.

        ``kind`` is the message kind being received — ignored by the
        probabilistic injector, but the hook that lets
        :class:`CrashPointInjector` target one exact receipt boundary.
        """
        policy = self.policy
        if not policy.crash_prob:
            return False
        if policy.max_crashes is not None and self.crashes >= policy.max_crashes:
            return False
        if (
            policy.crashable_hosts is not None
            and host not in policy.crashable_hosts
        ):
            return False
        if self.rng.random() >= policy.crash_prob:
            return False
        self.crashes += 1
        self.down_until[host] = clock + policy.crash_downtime
        return True

    def is_down(self, host: str, clock: float) -> bool:
        until = self.down_until.get(host)
        return until is not None and clock < until

    def check_restart(self, host: str, clock: float) -> bool:
        """True exactly once per crash, when the downtime has elapsed."""
        until = self.down_until.get(host)
        if until is not None and clock >= until:
            del self.down_until[host]
            return True
        return False


class CrashPointInjector(FaultInjector):
    """Deterministically crash one host at one message-receipt boundary.

    Fires exactly once: at the ``occurrence``-th time (0-based) ``host``
    receives a message of kind ``kind``.  No other fault is ever
    injected, so the execution prefix before the crash is bit-identical
    to the fault-free run — which is what makes enumerating every
    ``(host, kind, occurrence)`` boundary from a fault-free reference
    log sound.  Defaults to the volatile crash mode, the one that
    actually exercises checkpoint/WAL recovery.
    """

    def __init__(
        self,
        host: str,
        kind: str,
        occurrence: int = 0,
        crash_downtime: float = 2e-3,
        crash_mode: str = "volatile",
    ) -> None:
        super().__init__(
            FaultPolicy(
                crash_prob=1.0,
                crash_downtime=crash_downtime,
                max_crashes=1,
                crashable_hosts=(host,),
                crash_mode=crash_mode,
            ),
            seed=0,
        )
        self.target_host = host
        self.target_kind = kind
        self.occurrence = occurrence
        #: receipts of (target_host, target_kind) observed so far.
        self.receipts = 0
        #: whether the crash point was actually reached.
        self.fired = False

    def maybe_crash(
        self, host: str, clock: float, kind: Optional[str] = None
    ) -> bool:
        if self.fired or host != self.target_host or kind != self.target_kind:
            return False
        receipt = self.receipts
        self.receipts += 1
        if receipt != self.occurrence:
            return False
        self.fired = True
        self.crashes += 1
        self.down_until[host] = clock + self.policy.crash_downtime
        return True
