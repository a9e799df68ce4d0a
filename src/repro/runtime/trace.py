"""Execution tracing: an event log of a distributed run.

Attach a :class:`Tracer` to a simulated :class:`Session` and every
fragment execution and control transfer is recorded — enough to replay
the Figure 4 walkthrough ("T sync's e2 ... passes t1 to e5 on B via
rgoto; there, Bob's host computes n and returns control via lgoto")
as a checked sequence of events.

Under fault injection the timeline also carries the reliability layer's
events: ``drop``, ``retry``, ``duplicate``, ``reorder``, ``crash``,
``restart``, and ``timeout``, interleaved with the messages whose
delivery they perturbed.  The crash-recovery subsystem adds
``checkpoint`` (a host sealed its durable state), ``recover`` (a
restarted host replayed its checkpoint + WAL and announced itself), and
``quarantine`` (a detected protocol violation blacklisted the
offender).

The tracer and :func:`record_messages` (the bare message sequence the
assurance checks read) are both subscribers of the network's one event
hook, :meth:`~repro.runtime.transport.base.Transport.on_event`; a run
with neither attached records nothing.
"""

from __future__ import annotations

from typing import List, Optional

from .session import RuntimeImage, Session
from .network import Message, Transport


class TraceEvent:
    """One observed event: a control message or a fragment execution."""

    __slots__ = ("kind", "src", "dst", "entry", "detail")

    def __init__(
        self,
        kind: str,
        src: Optional[str],
        dst: Optional[str],
        entry: Optional[str] = None,
        detail: str = "",
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.entry = entry
        self.detail = detail

    def __repr__(self) -> str:
        route = f"{self.src}->{self.dst}" if self.src else self.dst
        entry = f" {self.entry}" if self.entry else ""
        return f"{self.kind} {route}{entry}"


class Tracer:
    """Subscribes to a network's event hook to record an event timeline."""

    def __init__(self, executor: Session) -> None:
        self.events: List[TraceEvent] = []
        executor.network.on_event(self._on_event)

    def _on_event(self, kind, src, dst, detail) -> None:
        if isinstance(detail, Message):
            payload = detail.payload
            entry = payload.get("entry") if isinstance(payload, dict) else None
            self.events.append(TraceEvent(kind, src, dst, entry))
        else:
            self.events.append(TraceEvent(kind, src, dst, detail=detail))

    # -- queries ------------------------------------------------------------

    def kinds(self) -> List[str]:
        return [event.kind for event in self.events]

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def sequence(self) -> List[str]:
        """Compact textual form, e.g. ``rgoto A->B`` lines."""
        return [repr(event) for event in self.events]

    def first_index(self, kind: str, src: str = None, dst: str = None) -> int:
        for index, event in enumerate(self.events):
            if event.kind != kind:
                continue
            if src is not None and event.src != src:
                continue
            if dst is not None and event.dst != dst:
                continue
            return index
        return -1


def record_messages(network: Transport) -> List[Message]:
    """Subscribe to ``network``'s event hook; the returned list fills,
    in order, with every message the network accounts from then on —
    what the security-assurance checks and the crash-point enumeration
    read.  Attach it before the run: a network keeps no messages of its
    own, and a reset drops the subscription."""
    messages: List[Message] = []

    def on_event(kind, src, dst, detail) -> None:
        if isinstance(detail, Message):
            messages.append(detail)

    network.on_event(on_event)
    return messages


def traced_run(split, opt_level: int = 1, faults=None):
    """Run a split program with tracing; returns (outcome, tracer)."""
    executor = Session(
        RuntimeImage.for_split(split), opt_level=opt_level, faults=faults
    )
    tracer = Tracer(executor)
    outcome = executor.run()
    return outcome, tracer


def recorded_run(split, **session_opts):
    """Run a split program with :func:`record_messages` attached;
    returns (outcome, messages).  ``session_opts`` are
    :class:`~repro.runtime.session.Session`'s keyword arguments."""
    executor = Session(RuntimeImage.for_split(split), **session_opts)
    messages = record_messages(executor.network)
    return executor.run(), messages
