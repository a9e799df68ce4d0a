"""The Section 7.1 benchmark workloads: List, OT, Tax, Work, and the
hand-coded RMI baselines OT-h and Tax-h."""

from .. import _lazy
from . import listcompare, medical, ot, tax, work
from .base import (
    WorkloadResult,
    annotation_ratio,
    count_lines,
    run_workload,
    verify_against_oracle,
)

# The hand-coded RMI baselines run only for Table 1's OT-h and Tax-h
# rows; they load on first use.
__getattr__, __dir__ = _lazy.exports(
    globals(),
    {"handcoded": ("HandcodedResult", "run_ot_handcoded", "run_tax_handcoded")},
)

__all__ = [
    "listcompare",
    "medical",
    "ot",
    "tax",
    "work",
    "WorkloadResult",
    "annotation_ratio",
    "count_lines",
    "run_workload",
    "verify_against_oracle",
    "HandcodedResult",
    "run_ot_handcoded",
    "run_tax_handcoded",
]
