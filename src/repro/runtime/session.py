"""Many-session execution: shared runtime images and pooled sessions.

The paper's deployment model is *compile once, run many times*: a
partitioned program is published and then executed over and over by
mutually distrusting principals.  PR5/PR6 content-addressed the whole
compile pipeline, so by the time a request arrives the split artifact
is a cache hit — execution was the last stage still paying full setup
cost per run.  This module splits the runtime's state along the same
immutable/mutable line the compile caches use:

* :class:`RuntimeImage` — everything about a (split, key registry)
  pair that no run ever mutates, built once and shared by every
  session: a memo-free view of the
  :class:`~repro.splitter.fragments.SplitProgram`
  (:meth:`~repro.splitter.fragments.SplitProgram.shared_view`), the
  compiled fragment cache, the per-host key material (HMAC keys
  derived exactly once per registry — the reuse contract of
  :func:`~repro.runtime.executor.run_split_program`), per-host entry
  tables and invoker ACLs, initial field values, and the precomputed
  results of the per-variable forward integrity checks (Figure 6's
  ``I_src ⊑ I(L_var)`` is static per split, so sessions answer it with
  a set lookup instead of a lattice operation).

* :class:`Session` — everything one run mutates: the simulated
  network (clock, counts, logs, control queue, quarantine set), and
  per-host frames, field/array stores, ICS slices, token factories,
  idempotency tables, deferred forwards, and checkpoint WALs.  Each
  session's simulated clock and trace are fully isolated; interleaving
  sessions cannot change any session's observables.

* :class:`SessionPool` — recycles sessions by **reset-in-place**:
  :meth:`Session.reset` clears the mutable state rather than
  reconstructing hosts and network, so the steady-state cost of a
  pooled run is the run itself.

* :class:`MultiSessionDriver` — interleaves many concurrent sessions
  over one shared image, one control message at a time, measuring
  per-session wall-clock latency.  The isolation tests and the pinned
  run invariants (``tests/workloads/test_invariants.py``) drive it.

``Session(image, transport="tcp")`` is a
:class:`~repro.runtime.transport.tcp.TcpSession`: the same driver over
forked host processes, giving the same :class:`ExecutionResult`.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..labels import Label
from ..splitter.fragments import Fragment, SplitProgram
from ..trust import KeyRegistry
from .compiler import BodyFn, Linkage
from .faults import FaultInjector
from .host import HaltSignal, TrustedHost
from .network import CostModel, SimNetwork
from .values import FrameID

_MAX_STEPS = 2_000_000

#: ``Session.reset(storage=_KEEP)``: recycle the attached storage.
_KEEP = object()

#: Default for ExecutionResult accessors: raise on a missing name.
_RAISE = object()


class ExecutionResult:
    """Everything observable about one distributed run, over either
    transport."""

    def __init__(
        self,
        network: SimNetwork,
        hosts: Dict[str, TrustedHost],
        main_frame: FrameID,
    ) -> None:
        self.network = network
        self.hosts = hosts
        self.main_frame = main_frame

    @property
    def elapsed(self) -> float:
        return self.network.clock

    @property
    def counts(self) -> Dict[str, int]:
        return self.network.table_counts()

    @property
    def audits(self):
        return self.network.audit_log

    def field_value(
        self,
        cls: str,
        field: str,
        oid: Optional[int] = None,
        default: Any = _RAISE,
    ) -> Any:
        """The stored value of a field (from whichever host holds it).

        Raises :class:`KeyError` when no host stores the field; pass
        ``default=`` to get a fallback value instead.
        """
        for host in self.hosts.values():
            key = (cls, field, oid)
            if key in host.field_store:
                return host.field_store[key]
        if default is not _RAISE:
            return default
        raise KeyError(f"field {cls}.{field} not found on any host")

    def var_value(self, frame: FrameID, var: str, default: Any = _RAISE) -> Any:
        """The value of a frame variable (from any host's copy).

        Raises :class:`KeyError` when no host's frame copy binds the
        variable — a silent ``None`` here has historically masked typos
        in test assertions.  Pass ``default=`` to get a fallback value
        instead.
        """
        for host in self.hosts.values():
            frame_copy = host.frames.get(frame)
            if frame_copy is not None and var in frame_copy:
                return frame_copy[var]
        if default is not _RAISE:
            return default
        raise KeyError(f"variable {var!r} not bound in any copy of {frame!r}")

    def main_var(self, var: str, default: Any = _RAISE) -> Any:
        return self.var_value(self.main_frame, var, default)

    def observables(self) -> Dict[str, Any]:
        """The invariant surface one run exposes: message counts,
        simulated time, and per-host ICS depths — the facts the pinned
        run invariants hold bit-identical to the single-run oracle."""
        return {
            "messages": self.network.table_counts(),
            "simulated_seconds": round(self.network.clock, 6),
            "ics_depths": {
                name: host.stack.depth
                for name, host in sorted(self.hosts.items())
            },
        }


class HostImage:
    """One host's slice of a :class:`RuntimeImage` — the per-host
    artifacts that no session mutates."""

    __slots__ = (
        "name",
        "entries",
        "entry_acl",
        "entry_table",
        "field_defaults",
        "forward_denied",
        "constant_denied",
        "compiled",
        "linkage",
        "descriptors",
    )

    def __init__(
        self,
        name: str,
        split: SplitProgram,
        forward_denied: Dict[str, FrozenSet[Tuple[Tuple[str, str], str]]],
        constant_denied: FrozenSet[str],
        compiled: Dict[str, BodyFn],
        linkage: Linkage,
    ) -> None:
        self.name = name
        #: the image-wide compiled fragment cache (shared across hosts).
        self.compiled = compiled
        #: the image-wide facts the generated code is built from.
        self.linkage = linkage
        #: every configured host by name (a request from any other
        #: sender is rejected).
        self.descriptors = {d.name: d for d in split.config.hosts}
        #: entries this host serves.
        self.entries: Dict[str, Fragment] = {
            f.entry: f for f in split.fragments_on(name)
        }
        #: per-entry invoker ACLs (Figure 6's ``I_i ⊑ I_e``).
        self.entry_acl: Dict[str, FrozenSet[str]] = {
            entry: split.entry_invokers(entry) for entry in self.entries
        }
        #: per-entry dispatch table: entry -> (fragment, invoker ACL),
        #: so the sync/rgoto hot path validates with one dict probe.
        self.entry_table: Dict[str, Tuple[Fragment, FrozenSet[str]]] = {
            entry: (fragment, self.entry_acl[entry])
            for entry, fragment in self.entries.items()
        }
        #: initial values of statically placed fields; sessions start
        #: from a plain copy of this dict.
        self.field_defaults: Dict[Tuple[str, str, Optional[int]], Any] = {
            (p.cls, p.field, None): p.default_value()
            for p in split.fields_on(name)
        }
        #: shared (image-wide) forward integrity-check results.
        self.forward_denied = forward_denied
        self.constant_denied = constant_denied


class RuntimeImage:
    """The immutable per-(split, registry) runtime artifacts.

    Built once, shared by arbitrarily many sessions (and by every
    :func:`~repro.runtime.executor.run_split_program` over the same
    split): nothing in here is ever mutated by a run.  Sharing is also
    the key-reuse contract — the registry's HMAC keys are derived once
    per image, not once per run.
    """

    __slots__ = (
        "split",
        "registry",
        "compiled",
        "host_images",
        "main_method_key",
        "__weakref__",
    )

    def __init__(
        self, split: SplitProgram, registry: Optional[KeyRegistry] = None
    ) -> None:
        #: ``split`` without its memos, so a split that memoizes this
        #: image is not reachable from it (no reference cycle).
        self.split = split = split.shared_view()
        self.registry = registry or KeyRegistry()
        #: entry -> the compiled function of its component, shared
        #: across hosts and sessions.  Filled lazily by
        #: ``TrustedHost.run_chain`` on a component's first entry, so a
        #: fragment altered between image build and execution is
        #: compiled as altered.
        self.compiled: Dict[str, BodyFn] = {}
        linkage = Linkage(split)
        # Derive every host key now, so no session pays for it.
        for descriptor in split.config.hosts:
            self.registry.register(f"host:{descriptor.name}")
        forward_denied, constant_denied = self._precompute_forward_checks(split)
        self.host_images: Dict[str, HostImage] = {
            descriptor.name: HostImage(
                descriptor.name,
                split,
                forward_denied,
                constant_denied,
                self.compiled,
                linkage,
            )
            for descriptor in split.config.hosts
        }
        #: the main method's key, or None for a program with no main
        #: (sessions over such a split can be constructed, not started).
        self.main_method_key = (
            split.fragments[split.main_entry].method_key
            if split.main_entry is not None
            else None
        )

    @staticmethod
    def _precompute_forward_checks(
        split: SplitProgram,
    ) -> Tuple[
        Dict[str, FrozenSet[Tuple[Tuple[str, str], str]]], FrozenSet[str]
    ]:
        """The forward integrity checks, evaluated once per image.

        A ``forward`` applies ``I_src ⊑ I(L_var)`` per variable; both
        sides are static per split, so the denied (src, method, var)
        combinations are a fixed set.  Honest runs never hit a denial —
        the common case is an empty set per sender.
        """
        hierarchy = split.config.hierarchy
        forward_denied: Dict[str, FrozenSet[Tuple[Tuple[str, str], str]]] = {}
        constant_integ = Label.constant().integ
        constant_denied = frozenset(
            descriptor.name
            for descriptor in split.config.hosts
            if not descriptor.integ.flows_to(constant_integ, hierarchy)
        )
        for descriptor in split.config.hosts:
            denied = []
            for method_key, plan in split.methods.items():
                for var, label in plan.var_labels.items():
                    if not descriptor.integ.flows_to(label.integ, hierarchy):
                        denied.append((method_key, var))
            forward_denied[descriptor.name] = frozenset(denied)
        return forward_denied, constant_denied

    @classmethod
    def for_split(
        cls, split: SplitProgram, registry: Optional[KeyRegistry] = None
    ) -> "RuntimeImage":
        """The shared image of ``split``, memoized on the split object.

        With ``registry=None`` (the common case) every caller gets the
        same image and therefore the same derived key material.  An
        explicit registry yields a fresh image bound to it on every
        call: nothing keeps it, so a rotated-out registry and its keys
        die with their last caller's reference.
        """
        if registry is not None:
            return cls(split, registry)
        image = split._image
        if image is None:
            image = split._image = cls(split)
        return image


class Session:
    """One run's mutable state over a shared :class:`RuntimeImage`.

    Drives the same control loop the executor always ran, but exposes
    it step-wise (:meth:`start` / :meth:`step`) so a driver can
    interleave many concurrent sessions, and supports
    :meth:`reset`-in-place so a pool can recycle it without
    reconstructing hosts or network.
    """

    #: the backend this session runs over.
    transport = "sim"
    #: the network type a session builds for its hosts.
    network_type = SimNetwork

    def __new__(cls, *args, transport=None, **kwargs):
        if transport is None or transport == cls.transport:
            return super().__new__(cls)
        if transport == "tcp" and cls is Session:
            from .transport.tcp import TcpSession

            return super().__new__(TcpSession)
        raise ValueError(f"unknown transport {transport!r} for {cls.__name__}")

    def __init__(
        self,
        image: RuntimeImage,
        cost_model: Optional[CostModel] = None,
        opt_level: int = 1,
        faults: Optional[FaultInjector] = None,
        token_rng=None,
        quarantine: bool = False,
        storage=None,
        transport: str = "sim",
    ) -> None:
        self.image = image
        self.split = image.split
        self.registry = image.registry
        self.network = self.network_type(cost_model, faults=faults)
        #: opt in to the quarantine layer: a rejected remote request
        #: raises SecurityAbort and blacklists the offender instead of
        #: being silently ignored.
        self.network.quarantine_enabled = quarantine
        #: the optional durable tier (a :class:`~repro.runtime.storage.
        #: sqlite_backend.SessionStorage`); ``None`` runs without one.
        self.storage = storage
        self._token_rng = token_rng
        self.hosts: Dict[str, TrustedHost] = {}
        for descriptor in self.split.config.hosts:
            self.hosts[descriptor.name] = TrustedHost(
                descriptor.name,
                self.split,
                self.network,
                self.registry,
                opt_level=opt_level,
                token_rng=token_rng,
                image=image.host_images[descriptor.name],
            )
        self._main_frame: Optional[FrameID] = None
        self._started = False
        self._halted = False
        self._steps = 0
        if self.storage is not None:
            self._attach_storage()

    def _attach_storage(self) -> None:
        """Wire every host's durable store to the session's persistent
        tier and publish boundary 1 (base checkpoints + empty journal)."""
        storage = self.storage
        storage.on_degrade = self._note_degraded
        if not storage.available:
            self._note_degraded(
                storage.degraded_reason or "storage unavailable"
            )
            return
        for name in self.hosts:
            storage.record_key(name, self.registry.key_of(f"host:{name}"))
        storage.record_digest(self.split.digest)
        storage.begin()
        for host in self.hosts.values():
            host.attach_storage(storage)
        storage.save_boundary(self)

    def _note_degraded(self, reason: str) -> None:
        """The durable tier failed: detach it and keep running
        fail-closed on the authoritative in-memory state.  Recorded in
        the trace so a deployment can see it lost durability."""
        self.network._emit("degraded", None, None, reason)
        for host in self.hosts.values():
            host.detach_storage()

    # -- lifecycle -----------------------------------------------------------

    def reset(
        self,
        cost_model: Optional[CostModel] = None,
        opt_level: int = 1,
        faults: Optional[FaultInjector] = None,
        token_rng=None,
        quarantine: bool = False,
        storage=_KEEP,
        transport: Optional[str] = None,
    ) -> "Session":
        """Reset-in-place back to a fresh session over the same image.

        Clears every piece of mutable state — network accounting and
        queues, host frames/fields/arrays/ICS/dedup tables, durable
        stores, trace listeners — without reconstructing any object, so
        a pooled run's steady-state cost is the run itself.  Parameters
        mirror ``__init__`` and default to a fault-free session.

        ``storage`` defaults to recycling the attached durable tier in
        place (its persisted rows are wound back to a fresh lifetime);
        pass ``None`` to detach it, or a new ``SessionStorage`` to swap
        tiers.  ``transport`` may only name the session's own.
        """
        if transport is not None and transport != self.transport:
            raise ValueError(
                f"a {self.transport} session cannot reset to {transport!r}"
            )
        if storage is _KEEP:
            storage = self.storage
        if storage is not self.storage:
            # Swapping tiers: sever the old one before anything writes.
            if self.storage is not None:
                self.storage.close()
            for host in self.hosts.values():
                host.detach_storage()
        self.storage = storage
        self._token_rng = token_rng
        usable = storage is not None and storage.available
        if usable:
            storage.begin()
            storage.reset_for_recycle()
        self.network.reset(faults=faults)
        if cost_model is not None:
            self.network.cost = cost_model
        self.network.quarantine_enabled = quarantine
        for host in self.hosts.values():
            # Hosts whose durable store still points at `storage`
            # recycle their persisted rows in place here.
            host.reset(opt_level=opt_level, token_rng=token_rng)
        self._main_frame = None
        self._started = False
        self._halted = False
        self._steps = 0
        if storage is None:
            for host in self.hosts.values():
                host.detach_storage()
            return self
        storage.on_degrade = self._note_degraded
        if usable and storage.available:
            for name in self.hosts:
                storage.record_key(
                    name, self.registry.key_of(f"host:{name}")
                )
            storage.record_digest(self.split.digest)
            for host in self.hosts.values():
                if host.durable is None or host.durable.backend is None:
                    host.attach_storage(storage)
            storage.save_boundary(self)
        elif not storage.available:
            self._note_degraded(
                storage.degraded_reason or "storage unavailable"
            )
        return self

    @property
    def halted(self) -> bool:
        return self._halted

    def start(self) -> bool:
        """Mint the root capability and run the main chain until control
        first leaves the main host; returns True when that already
        completed the program."""
        main_frame = self._begin()
        storage = self.storage
        if storage is not None and storage.available:
            storage.begin()
        self._halted = self.hosts[self.split.main_host].run_main(main_frame)
        if storage is not None and storage.available:
            storage.save_boundary(self)
        return self._halted

    def _begin(self) -> FrameID:
        """Guard a start and mint the main activation's frame."""
        if self._started:
            raise RuntimeError("session already started; reset() first")
        if self.split.main_entry is None or self.image.main_method_key is None:
            raise RuntimeError("the split program has no main entry")
        self._started = True
        self._main_frame = FrameID(self.image.main_method_key)
        return self._main_frame

    def step(self) -> bool:
        """Deliver one pending control message; returns True when the
        program has halted."""
        return self._deliver(1)

    def run(self) -> ExecutionResult:
        """Execute the program to completion."""
        if not self._started:
            self.start()
        self._deliver(None)
        return self.result()

    def _deliver(self, count: Optional[int]) -> bool:
        """The delivery loop: hand pending control messages to their
        hosts, ``count`` of them or (``None``) until the program halts;
        returns True when it has halted.  Each delivery is one storage
        boundary."""
        storage = self.storage
        # The control queue itself: what ``pop_control`` would pop.
        queue = self.network._queue
        hosts = self.hosts
        delivered = 0
        while not self._halted and delivered != count:
            if storage is not None and storage.available:
                storage.begin()
            if not queue:
                raise RuntimeError(
                    "distributed execution stalled: no control message "
                    "pending and the program has not halted"
                )
            message = queue.popleft()
            try:
                hosts[message.dst].handle(message)
            except HaltSignal:
                self._halted = True
            delivered += 1
            self._steps += 1
            if self._steps > _MAX_STEPS:
                raise RuntimeError("execution exceeded the step budget")
            if storage is not None and storage.available:
                storage.save_boundary(self)
        return self._halted

    def result(self) -> ExecutionResult:
        if self._main_frame is None:
            raise RuntimeError("session never started")
        return ExecutionResult(self.network, self.hosts, self._main_frame)

    def observables(self) -> Dict[str, Any]:
        """:meth:`ExecutionResult.observables` of this session so far."""
        return ExecutionResult(
            self.network, self.hosts, self._main_frame
        ).observables()


class SessionPool:
    """A free-list of reusable sessions over one shared image.

    ``acquire`` hands out a reset session (creating one only when the
    free list is empty); ``release`` resets it in place and returns it
    to the list.  Sessions are uniform: every acquisition sees the
    options the pool was built with.  Pools are meant for the
    deterministic fault-free serving path; attaching a shared
    ``FaultInjector`` is allowed but its RNG state deliberately carries
    across sessions (schedules stay seed-reproducible end to end).
    """

    def __init__(self, image: RuntimeImage, size: int = 0, **session_opts) -> None:
        self.image = image
        self._opts = session_opts
        self._free: List[Session] = [
            Session(image, **session_opts) for _ in range(size)
        ]
        #: sessions ever constructed / resets performed (observability).
        self.created = size
        self.resets = 0

    def acquire(self) -> Session:
        if self._free:
            return self._free.pop()
        self.created += 1
        return Session(self.image, **self._opts)

    def release(self, session: Session) -> None:
        if session.image is not self.image:
            raise ValueError("session from a different image")
        session.reset(**self._opts)
        self.resets += 1
        self._free.append(session)

    def __len__(self) -> int:
        return len(self._free)


class MultiSessionDriver:
    """Interleaves many concurrent sessions over shared images.

    Keeps up to ``concurrency`` sessions in flight, delivering one
    control message to each in round-robin order — the single-threaded
    analogue of a server multiplexing requests — and records each
    session's wall-clock latency and invariant observables.  Every
    session's simulated clock, trace, and state are isolated in its own
    :class:`Session`, so interleaving is observably identical to
    running the sessions back to back.

    ``image`` may be a single :class:`RuntimeImage` or a list of them:
    with several images the driver serves a *mixed* program set — a
    multi-program gateway — launching sessions round-robin across the
    images.  Each image gets its own :class:`SessionPool`, so recycled
    state (frames, dedup tables, quarantine sets) can never migrate
    between programs: a session is only ever reset back into the pool
    of the image that built it.
    """

    def __init__(
        self,
        image,
        concurrency: int = 32,
        pool: Optional[SessionPool] = None,
        **session_opts,
    ) -> None:
        self.concurrency = max(1, concurrency)
        images = list(image) if isinstance(image, (list, tuple)) else [image]
        if pool is not None:
            self.pools = [pool]
            self.images = [pool.image]
        else:
            size = max(1, min(self.concurrency, 8) // len(images))
            self.pools = [
                SessionPool(img, size=size, **session_opts) for img in images
            ]
            self.images = images
        #: back-compat alias: the first (often only) pool.
        self.pool = self.pools[0]

    def run_many(
        self,
        count: int,
        observer: Optional[Callable[[Session], Any]] = None,
    ) -> List[Dict[str, Any]]:
        """Drive ``count`` sessions to completion; returns one record
        per session (in completion order): its wall-clock ``latency``
        plus :meth:`Session.observables`.  With a mixed image set the
        launches rotate across the images (session ``i`` comes from
        image ``i % len(images)``).  ``observer`` (if given) runs on
        each completed session *before* it is recycled — the hook the
        harness uses to check invariants against the solo oracle; use
        ``session.image`` to tell the programs apart.

        The cyclic garbage collector is paused for the duration of the
        drive (a standard serving-loop optimization: session recycling
        churns almost exclusively acyclic, refcounted objects, and a
        mid-drive gen-2 sweep is a latency spike for whichever session
        it lands on).  Cycles created during a drive are bounded by the
        drive and collected at the next normal threshold after GC is
        re-enabled.
        """
        perf = time.perf_counter
        pools = self.pools
        pause_gc = gc.isenabled()
        active: List[Tuple[Session, float, SessionPool]] = []
        records: List[Dict[str, Any]] = []
        launched = 0

        def finish(session: Session, started_at: float, pool: SessionPool) -> None:
            record = session.observables()
            record["latency"] = perf() - started_at
            if observer is not None:
                observer(session)
            records.append(record)
            pool.release(session)

        if pause_gc:
            gc.disable()
        try:
            while launched < count or active:
                while launched < count and len(active) < self.concurrency:
                    pool = pools[launched % len(pools)]
                    session = pool.acquire()
                    started_at = perf()
                    launched += 1
                    if session.start():
                        finish(session, started_at, pool)
                    else:
                        active.append((session, started_at, pool))
                # One delivery per in-flight session, oldest first.
                still_running: List[Tuple[Session, float, SessionPool]] = []
                for session, started_at, pool in active:
                    if session.step():
                        finish(session, started_at, pool)
                    else:
                        still_running.append((session, started_at, pool))
                active = still_running
        finally:
            if pause_gc:
                gc.enable()
        return records
