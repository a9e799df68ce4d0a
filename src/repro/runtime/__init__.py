"""The distributed runtime (Section 5): hosts, tokens, ICS, network.

Compiling and running a split loads only the session, host, network
and compiler modules.  The attack suite, the durable store, the fault
sweeps and the SQLite tier are exported lazily (:mod:`repro._lazy`)
and load on first use.
"""

from .. import _lazy
from .compiler import ForeignFragmentError
from .executor import ExecutionResult, run_split_program
from .faults import CrashPointInjector, FaultInjector, FaultPolicy, RetryPolicy
from .host import HaltSignal, TrustedHost
from .ics import LocalStack
from .session import (
    MultiSessionDriver,
    RuntimeImage,
    Session,
    SessionPool,
)
from .network import (
    CostModel,
    DeliveryTimeoutError,
    Message,
    SecurityAbort,
    SimNetwork,
)
from .singlehost import SingleHostInterpreter, run_single_host
from .tokens import Token, TokenFactory, forged_token
from .values import FrameID, ObjectRef, ReturnInfo

__getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "attacks": ("Adversary", "AttackReport"),
        "checkpoint": ("Checkpoint", "CheckpointTamperError", "DurableStore"),
        "faultsweep": (
            "FaultOutcome",
            "FaultReport",
            "crash_point_sweep",
            "random_policy",
            "sweep",
        ),
        "storage.base": (
            "StorageError",
            "StorageUnavailableError",
            "TransientStorageError",
        ),
        "storage.sqlite_backend": ("SessionStorage", "rehydrate_session"),
    },
)

__all__ = [
    "Adversary",
    "AttackReport",
    "Checkpoint",
    "CheckpointTamperError",
    "DurableStore",
    "ForeignFragmentError",
    "ExecutionResult",
    "run_split_program",
    "CrashPointInjector",
    "FaultInjector",
    "FaultPolicy",
    "RetryPolicy",
    "FaultOutcome",
    "FaultReport",
    "crash_point_sweep",
    "random_policy",
    "sweep",
    "HaltSignal",
    "TrustedHost",
    "LocalStack",
    "MultiSessionDriver",
    "RuntimeImage",
    "Session",
    "SessionPool",
    "CostModel",
    "DeliveryTimeoutError",
    "Message",
    "SecurityAbort",
    "SimNetwork",
    "SingleHostInterpreter",
    "run_single_host",
    "SessionStorage",
    "StorageError",
    "StorageUnavailableError",
    "TransientStorageError",
    "rehydrate_session",
    "Token",
    "TokenFactory",
    "forged_token",
    "FrameID",
    "ObjectRef",
    "ReturnInfo",
]
