"""repro — Secure Program Partitioning (Jif/split, SOSP 2001) in Python.

A reproduction of Zdancewic, Zheng, Nystrom & Myers, "Untrusted Hosts
and Confidentiality: Secure Program Partitioning", SOSP 2001.

Public API tour:

* :mod:`repro.labels` — the decentralized label model.
* :mod:`repro.lang` — the mini-Jif security-typed language.
* :mod:`repro.trust` — signed trust declarations and host descriptors.
* :mod:`repro.splitter` — the program splitter (the paper's contribution).
* :mod:`repro.runtime` — the distributed runtime and attack simulations.
* :mod:`repro.workloads` — the paper's benchmark programs.
* :mod:`repro.reporting` — regenerates Table 1 and Figure 4.
"""

from . import _lazy
from .labels import Label, Principal, principals
from .lang import check_source
from .splitter import SplitError, split_source
from .trust import HostDescriptor, TrustConfiguration, example_hosts
from .runtime import (
    CostModel,
    RuntimeImage,
    Session,
    run_single_host,
    run_split_program,
)

# The attack suite loads on first use: compiling and running a split
# never needs it.
__getattr__, __dir__ = _lazy.exports(
    globals(), {"runtime.attacks": ("Adversary",)}
)

__version__ = "1.0.0"

__all__ = [
    "Label",
    "Principal",
    "principals",
    "check_source",
    "SplitError",
    "split_source",
    "HostDescriptor",
    "TrustConfiguration",
    "example_hosts",
    "Adversary",
    "CostModel",
    "RuntimeImage",
    "Session",
    "run_single_host",
    "run_split_program",
    "__version__",
]
