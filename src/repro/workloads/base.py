"""Common machinery for the Section 7.1 benchmark workloads.

Workload sources are plain strings rebuilt by each ``source()`` call,
so the Table 1 report, the fault sweeps, and the oracle checks all
construct byte-identical programs many times over; the split cache
(``repro.splitter.cache``) keys on the source digest and serves every
rebuild after the first from memory.  ``WorkloadResult.source_digest``
exposes that content address for correlation with cache stats.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..runtime import CostModel, run_single_host, run_split_program
from ..runtime.executor import ExecutionResult
from ..splitter import SplitResult, split_source
from ..splitter.cache import digest as source_digest
from ..trust import TrustConfiguration


class WorkloadResult:
    """One benchmark run: the split, the execution, and the metrics."""

    def __init__(
        self,
        name: str,
        source: str,
        split_result: SplitResult,
        execution: ExecutionResult,
    ) -> None:
        self.name = name
        self.source = source
        self.split_result = split_result
        self.execution = execution

    @property
    def counts(self) -> Dict[str, int]:
        return self.execution.counts

    @property
    def elapsed(self) -> float:
        return self.execution.elapsed

    @property
    def source_digest(self) -> str:
        """Content address of the source (the split cache's key)."""
        return source_digest(self.source)

    @property
    def lines(self) -> int:
        return count_lines(self.source)

    @property
    def annotation_ratio(self) -> float:
        return annotation_ratio(self.source)

    def __repr__(self) -> str:
        return f"WorkloadResult({self.name}: {self.counts})"


def count_lines(source: str) -> int:
    """Non-blank, non-comment source lines (the paper's Lines row)."""
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


def annotation_ratio(source: str) -> float:
    """Fraction of the source text inside security annotations.

    Counts label literals, authority clauses, and declassify/endorse
    keywords — the paper reports annotations as 11–25 % of source text.
    """
    total = sum(len(line.strip()) for line in source.splitlines())
    if total == 0:
        return 0.0
    annotated = 0
    index = 0
    text = source
    while index < len(text):
        ch = text[index]
        if ch == "{" and _looks_like_label(text, index):
            end = text.index("}", index)
            annotated += end - index + 1
            index = end + 1
            continue
        for keyword in ("authority", "declassify", "endorse", "where"):
            if text.startswith(keyword, index):
                annotated += len(keyword)
                index += len(keyword)
                break
        else:
            index += 1
    return annotated / total


def _looks_like_label(text: str, index: int) -> bool:
    """A ``{`` opens a label iff a ``:`` appears before any ``;``, ``}``
    nesting, or newline-brace structure — good enough for our sources."""
    end = text.find("}", index)
    if end == -1:
        return False
    body = text[index + 1 : end]
    if "{" in body:
        return False
    return ":" in body and "(" not in body and "=" not in body


def run_workload(
    name: str,
    source: str,
    config: TrustConfiguration,
    opt_level: int = 1,
    cost_model: Optional[CostModel] = None,
) -> WorkloadResult:
    """Split and execute one workload."""
    split_result = split_source(source, config)
    execution = run_split_program(
        split_result.split, cost_model=cost_model, opt_level=opt_level
    )
    return WorkloadResult(name, source, split_result, execution)


def verify_against_oracle(
    result: WorkloadResult, field: tuple, expected=None
):
    """Check a field of the distributed run against the single-host run."""
    oracle = run_single_host(result.source)
    oracle_value = oracle.fields.get(field + (None,))
    distributed_value = result.execution.field_value(*field)
    assert distributed_value == oracle_value, (
        f"{result.name}: distributed {field} = {distributed_value}, "
        f"single-host = {oracle_value}"
    )
    if expected is not None:
        assert distributed_value == expected
    return distributed_value
