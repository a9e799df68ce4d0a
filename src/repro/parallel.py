"""Shared-nothing parallel workers for the fault-sweep drivers.

The sweeps this repo runs are embarrassingly parallel: every fault
schedule and crash point is an independent simulation with no shared
mutable state.  The one obstacle to ``multiprocessing`` is that a
:class:`~repro.splitter.fragments.SplitProgram` holds compiled fragment
closures, which do not pickle.  :func:`fork_map` therefore uses the
``fork`` start method and hands workers their heavyweight inputs
through a module-level state dict that the fork inherits by memory
copy — only the small per-item arguments (a seed, a crash-point
triple) and the plain-data results cross the pickle boundary.  Forking
after the parent has built that state also means every process-wide
cache it populated (label-lattice memos, the split cache, memoized
:class:`~repro.runtime.session.RuntimeImage` artifacts hanging off a
split) is inherited warm by every worker.

Work is split into balanced, *interleaved* chunks: chunk sizes never
differ by more than one item (no oversized last chunk on non-divisible
inputs), and item ``i`` lands in chunk ``i % parts`` so any cost
gradient across the input order is spread across workers instead of
concentrated in one chunk.  With several chunks per worker pulled
dynamically from a task queue, a slow chunk overlaps the fast ones.
Results are always reassembled in input order, so aggregation in the
caller is deterministic and independent of the worker count.
"""

from __future__ import annotations

import multiprocessing
import queue as _queue
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Fork-inherited worker state.  Populated by :func:`fork_map` in the
#: parent immediately before the workers fork, read by worker tasks via
#: :func:`state`, and cleared in the parent once the fork is done.
_STATE: Dict[str, Any] = {}

#: Whether a :func:`fork_map` call currently owns ``_STATE``.  The
#: module-level dict is process-global, so a nested or concurrent call
#: would silently clobber the outer call's worker state; it fails fast
#: instead.
_ACTIVE = False

#: How many chunks each worker gets by default.  Oversubscribing the
#: queue lets a worker that drew cheap chunks pull more work while a
#: slow chunk is still running elsewhere.
_CHUNKS_PER_WORKER = 4


def state() -> Dict[str, Any]:
    """The fork-inherited state dict, as seen from a worker task."""
    return _STATE


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def chunk_plan(count: int, parts: int) -> List[List[int]]:
    """Split indices ``0..count-1`` into ``parts`` balanced, interleaved
    chunks.

    Sizes differ by at most one (``chunk_plan(10, 4)`` gives chunks of
    3/3/2/2, never 3/3/3/1), and item ``i`` goes to chunk ``i % parts``
    so consecutive items — which tend to have correlated cost — land on
    different workers.  Empty chunks are never returned.
    """
    parts = max(1, min(parts, count))
    chunks: List[List[int]] = [[] for _ in range(parts)]
    for index in range(count):
        chunks[index % parts].append(index)
    return [chunk for chunk in chunks if chunk]


def _worker_main(tasks: Any, results: Any) -> None:
    """Worker loop: pull ``(seq, func, items)``, push ``(seq, out, err)``."""
    while True:
        task = tasks.get()
        if task is None:
            return
        seq, func, items = task
        try:
            out = [func(item) for item in items]
        except BaseException as exc:  # propagate to the parent, keep serving
            try:
                results.put((seq, None, exc))
            except Exception:
                results.put(
                    (seq, None, RuntimeError(traceback.format_exc()))
                )
        else:
            results.put((seq, out, None))


def _stop(procs: List[Any], tasks: Any, results: Any, clean: bool) -> None:
    """Shut the workers down: sentinels after a clean run, otherwise
    terminate whatever is still running."""
    if clean:
        for _ in procs:
            tasks.put(None)
    for proc in procs:
        proc.join(timeout=None if clean else 0.1)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
    if not clean:
        # Unread tasks may still sit in the feeder's buffer; nobody
        # will drain the pipe now, so do not wait on it.
        tasks.cancel_join_thread()
    for chan in (tasks, results):
        chan.close()
        chan.join_thread()


def fork_map(
    func: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: Optional[int],
    shared: Optional[Dict[str, Any]] = None,
) -> Optional[List[Any]]:
    """Map ``func`` over ``items`` with a pool of forked workers.

    Returns the results in input order, or ``None`` when the parallel
    path is unavailable (``jobs <= 1``, a single item, or no ``fork``)
    — the caller then runs its serial loop.  ``func`` must be a
    module-level function; anything unpicklable it needs goes in
    ``shared`` (bound at fork time) and is read back with
    :func:`state`.  A worker's exception is re-raised in the parent.

    ``fork_map`` is not re-entrant: the fork-inherited state dict is
    process-global, so a nested call (from a worker task, or from
    concurrently driven sweeps in one process) raises ``RuntimeError``
    rather than silently corrupting the outer call's worker state.
    """
    global _ACTIVE
    work = list(items)
    if jobs is None or jobs <= 1 or len(work) <= 1:
        return None
    if not fork_available():
        return None
    if _ACTIVE:
        raise RuntimeError(
            "nested fork_map call: the fork-inherited state dict is "
            "process-global and already in use"
        )
    _ACTIVE = True
    jobs = min(jobs, len(work))
    chunks = chunk_plan(len(work), jobs * _CHUNKS_PER_WORKER)
    ctx = multiprocessing.get_context("fork")
    tasks, results = ctx.Queue(), ctx.Queue()
    procs: List[Any] = []
    slots: List[Optional[List[Any]]] = [None] * len(chunks)
    clean = False
    try:
        _STATE.update(shared or {})
        try:
            for _ in range(jobs):
                proc = ctx.Process(
                    target=_worker_main, args=(tasks, results), daemon=True
                )
                proc.start()
                procs.append(proc)
        finally:
            # Workers inherited the populated dict at fork; the parent's
            # copy is cleared so a crash mid-map cannot leak state.
            _STATE.clear()
        for seq, chunk in enumerate(chunks):
            tasks.put((seq, func, [work[i] for i in chunk]))
        pending = len(chunks)
        while pending:
            try:
                seq, out, err = results.get(timeout=1.0)
            except _queue.Empty:
                if not any(proc.is_alive() for proc in procs):
                    raise RuntimeError(
                        "fork_map: all workers exited with tasks pending"
                    )
                continue
            if err is not None:
                # Fail fast: drop the remaining tasks and re-raise the
                # worker's exception in the parent, like Pool.map would.
                raise err
            slots[seq] = out
            pending -= 1
        clean = True
    finally:
        try:
            _stop(procs, tasks, results, clean)
        finally:
            _ACTIVE = False
    ordered: List[Any] = [None] * len(work)
    for chunk, out in zip(chunks, slots):
        for index, value in zip(chunk, out):  # type: ignore[arg-type]
            ordered[index] = value
    return ordered
