"""The single-run entry point: execute a SplitProgram over its hosts.

Good hosts preserve the source program's sequential execution (Section
3.2): there is a single thread of control, embodied by the rgoto/lgoto
message queue.  Execution starts at the main method's entry, holding
the root capability ``t0`` (as host T does in Figure 4); consuming
``t0`` ends the program.

:func:`run_split_program` is one :class:`~repro.runtime.session.
Session` over the split's memoized :class:`RuntimeImage` (compiled
fragments, derived key material, entry ACLs, initial field values,
precomputed label checks), so repeated runs of the same split share
those artifacts.  A caller that needs the hosts or network of a run, a
different transport or a serving loop builds the session itself:
``Session(RuntimeImage.for_split(split), ...)`` or a
:class:`~repro.runtime.session.SessionPool`.
"""

from __future__ import annotations

from typing import Optional

from ..splitter.fragments import SplitProgram
from .faults import FaultInjector
from .network import CostModel
from .session import ExecutionResult, RuntimeImage, Session

__all__ = ["ExecutionResult", "run_split_program"]


def run_split_program(
    split: SplitProgram,
    cost_model: Optional[CostModel] = None,
    opt_level: int = 1,
    faults: Optional[FaultInjector] = None,
    token_rng=None,
    quarantine: bool = False,
    storage=None,
) -> ExecutionResult:
    """Execute a split program on simulated hosts and return the result.

    With ``faults`` set, the run either completes with the fault-free
    result or raises :class:`~repro.runtime.network.DeliveryTimeoutError`
    (fail closed) — never a wrong answer.  With ``quarantine`` set, a
    detected protocol violation raises
    :class:`~repro.runtime.network.SecurityAbort` instead of stalling.

    **Key-reuse contract.** Every call over the same split shares that
    split's memoized :class:`RuntimeImage`, including its
    :class:`~repro.trust.KeyRegistry`: per-host HMAC keys are derived
    once per image, not once per call.  This is safe because keys never
    appear in any observable — tokens are minted fresh per session
    (nonces come from ``token_rng``/``os.urandom``), and nothing
    outlives the session that minted it.  A caller that *wants*
    distinct key material (e.g. to model key rotation) builds its
    session over ``RuntimeImage.for_split(split, registry)``, which
    returns a new image each call and memoizes none: once the caller
    drops it, the old registry and its keys are freed.
    """
    return Session(
        RuntimeImage.for_split(split), cost_model=cost_model,
        opt_level=opt_level, faults=faults, token_rng=token_rng,
        quarantine=quarantine, storage=storage,
    ).run()
