"""The program splitter: the paper's core contribution (Sections 4-6)."""

from . import ir
from .fragments import (
    EdgeAction,
    Fragment,
    FieldPlacement,
    MethodPlan,
    OpAssignVar,
    OpForward,
    OpSetField,
    SplitProgram,
    TermBranch,
    TermCall,
    TermHalt,
    TermJump,
    TermReturn,
)
from .lower import lower_program
from .mincut import Assignment
from .optimizer import assign_hosts
from .partition import SplitResult, split_program, split_source
from .selection import (
    CandidateSets,
    SplitError,
    compute_candidates,
    field_candidates,
    statement_candidates,
)
from .transfers import translate
from .validate import ValidationError, validate_split

__all__ = [
    "ir",
    "EdgeAction",
    "Fragment",
    "FieldPlacement",
    "MethodPlan",
    "OpAssignVar",
    "OpForward",
    "OpSetField",
    "SplitProgram",
    "TermBranch",
    "TermCall",
    "TermHalt",
    "TermJump",
    "TermReturn",
    "lower_program",
    "Assignment",
    "assign_hosts",
    "SplitResult",
    "split_program",
    "split_source",
    "CandidateSets",
    "SplitError",
    "compute_candidates",
    "field_candidates",
    "statement_candidates",
    "translate",
    "ValidationError",
    "validate_split",
]
