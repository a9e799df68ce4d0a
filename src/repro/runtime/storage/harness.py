"""Kill-and-rehydrate harness: real process death, not simulated.

The crash sweeps prove the *protocol* recovers from volatile crashes,
but the crashing host never actually leaves the process — its Python
heap survives.  This harness closes that gap:

1. build the fault sweeps' **oracle**
   (:func:`repro.runtime.faultsweep.oracle`), the fingerprint of the
   fault-free, storage-free run — field values, observables, ICS
   depths, the audit log, the label-flow log;
2. ``os.fork()`` a worker that runs the same workload against a
   SQLite-backed :class:`SessionStorage` and SIGKILLs *itself* at a
   chosen trigger (after N committed boundaries, or mid-transaction
   after N WAL appends) — no cleanup handlers run, the heap is gone;
3. in the parent, :func:`~.sqlite_backend.rehydrate_session` from the
   dead worker's directory, run the resumed session to completion, and
   judge it with the sweeps' one
   :func:`~repro.runtime.faultsweep.verdict`, which for a rehydrated
   run requires the oracle's whole fingerprint.

Bit-identical fingerprints are the whole claim of the durable tier:
process death at any boundary loses no observable behavior.
"""

from __future__ import annotations

import os
import signal
import tempfile
from typing import Optional, Tuple

from ..faultsweep import FaultOutcome, oracle, rehydrated_run
from .sqlite_backend import SessionStorage

#: worker exit codes (anything else means the child died unexpectedly).
WORKER_COMPLETED = 7
WORKER_FAILED = 13


def _run_worker(
    split,
    directory: str,
    kill_after_boundaries: Optional[int],
    kill_after_appends: Optional[int],
    cost_model,
    opt_level: int,
) -> None:
    """Forked-child body: run until the trigger, then SIGKILL ourselves.

    Exits via ``os._exit`` on every path — a forked child must never
    unwind into the parent's interpreter machinery (atexit handlers,
    pytest internals)."""
    try:
        from ...trust import KeyRegistry
        from ..session import RuntimeImage, Session

        storage = SessionStorage(directory)

        def die(*_ignored) -> None:
            os.kill(os.getpid(), signal.SIGKILL)

        if kill_after_boundaries is not None:
            fired = [0]

            def on_boundary(boundary: int) -> None:
                fired[0] += 1
                if fired[0] >= kill_after_boundaries:
                    die()

            storage.boundary_hook = on_boundary
        if kill_after_appends is not None:
            appended = [0]

            def on_append(host: str, epoch: int, index: int) -> None:
                appended[0] += 1
                if appended[0] >= kill_after_appends:
                    die()

            storage.wal_hook = on_append
        image = RuntimeImage(split, KeyRegistry())
        session = Session(
            image, cost_model=cost_model, opt_level=opt_level,
            storage=storage,
        )
        session.run()
    except BaseException:
        os._exit(WORKER_FAILED)
    # Trigger never fired: the workload finished before the kill point.
    os._exit(WORKER_COMPLETED)


def kill_and_rehydrate(
    split,
    kill_after_boundaries: Optional[int] = None,
    kill_after_appends: Optional[int] = None,
    cost_model=None,
    opt_level: int = 1,
    directory: Optional[str] = None,
) -> Tuple[FaultOutcome, int]:
    """SIGKILL a forked worker mid-run, rehydrate, finish, judge.

    Returns ``(outcome, child_exit)``: the rehydrated run's
    :class:`~repro.runtime.faultsweep.FaultOutcome` ("ok" when it
    matches the oracle's whole fingerprint), and the worker's exit —
    the negative signal number (``-SIGKILL``) when the kill landed, or
    :data:`WORKER_COMPLETED` when the workload outran the trigger (the
    caller decides whether that is acceptable for its kill point).
    """
    if kill_after_boundaries is None and kill_after_appends is None:
        raise ValueError("pick a kill trigger")
    if kill_after_boundaries is not None:
        key = ("boundary", kill_after_boundaries)
    else:
        key = ("append", kill_after_appends)
    expected, _ = oracle(split, opt_level, cost_model)
    own_dir = directory is None
    if own_dir:
        directory = tempfile.mkdtemp(prefix="repro-kill-")
    try:
        pid = os.fork()
        if pid == 0:
            _run_worker(
                split, directory, kill_after_boundaries,
                kill_after_appends, cost_model, opt_level,
            )
            os._exit(WORKER_FAILED)  # unreachable
        _, status = os.waitpid(pid, 0)
        if os.WIFSIGNALED(status):
            child_exit = -os.WTERMSIG(status)
        else:
            child_exit = os.WEXITSTATUS(status)
        problems = rehydrated_run(
            split, directory, expected, opt_level, cost_model
        )
        name = f"SIGKILL after {key[0]} {key[1]}"
        return FaultOutcome.from_problems(key, name, problems), child_exit
    finally:
        if own_dir:
            import shutil

            shutil.rmtree(directory, ignore_errors=True)
