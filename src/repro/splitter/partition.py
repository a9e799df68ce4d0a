"""The splitter driver: source program + trust configuration → SplitProgram.

This is the top of the Section 6 pipeline::

    check → lower → candidates (Section 4) → host assignment (Section 6)
          → fragment translation (Section 5.5) → data forwarding (5.2)
          → ACL generation (5.1) → SplitProgram

The resulting :class:`SplitProgram` is what the distributed runtime
executes; it embeds a one-way hash of the splitter inputs (Section 8) so
subprograms produced under different assumptions refuse to interoperate.

**Whole-pipeline cache.**  The splitter is a pure function of
(source, trust configuration), so results are memoized end to
end in :mod:`.cache`: a repeated ``split_source`` call rehydrates a
fresh, observably identical :class:`SplitProgram` from the encoded
split instead of re-running the pipeline.  Cache hits return a
:class:`SplitResult` whose intermediate artifacts (checked program, IR,
candidates, assignment) are rebuilt lazily on first access — the
runtime only ever needs the split itself, so sweeps never pay for
intermediates they do not inspect.  Only source text is cached: a
:class:`CheckedProgram` input always runs the full pipeline.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from ..lang.typecheck import CheckedProgram, check_source
from ..trust import TrustConfiguration
from . import cache as split_cache
from . import ir
from .forwarding import insert_forwards
from .fragments import FieldPlacement, MethodPlan, SplitProgram
from .lower import lower_program
from .mincut import Assignment
from .optimizer import assign_hosts
from .selection import CandidateSets, SplitError, compute_candidates
from .serialize import SplitEncodeError, encode_split
from .transfers import translate


class SplitResult:
    """The split program plus the intermediate artifacts, for inspection
    and reporting (e.g. regenerating the Figure 4 control-flow graph).

    When the split was served from the whole-pipeline cache
    (``cached`` is True) the intermediates are not materialized up
    front; the first access to ``checked`` / ``program`` /
    ``candidates`` / ``assignment`` re-runs the uncached pipeline —
    which, by splitter determinism, reproduces exactly the artifacts
    the cached split was built from."""

    def __init__(
        self,
        split: SplitProgram,
        checked: Optional[CheckedProgram] = None,
        program: Optional[ir.IRProgram] = None,
        candidates: Optional[CandidateSets] = None,
        assignment: Optional[Assignment] = None,
        recompute: Optional[Callable[[], "SplitResult"]] = None,
    ) -> None:
        self.split = split
        #: True when the split came from the cache rather than a fresh
        #: pipeline run (diagnostics and tests; observables identical).
        self.cached = recompute is not None
        self._checked = checked
        self._program = program
        self._candidates = candidates
        self._assignment = assignment
        self._recompute = recompute

    def _materialize(self) -> None:
        if self._recompute is not None:
            fresh = self._recompute()
            self._checked = fresh._checked
            self._program = fresh._program
            self._candidates = fresh._candidates
            self._assignment = fresh._assignment
            self._recompute = None

    @property
    def checked(self) -> CheckedProgram:
        self._materialize()
        return self._checked

    @property
    def program(self) -> ir.IRProgram:
        self._materialize()
        return self._program

    @property
    def candidates(self) -> CandidateSets:
        self._materialize()
        return self._candidates

    @property
    def assignment(self) -> Assignment:
        self._materialize()
        return self._assignment


def _split_uncached(
    source: Union[str, CheckedProgram],
    config: TrustConfiguration,
) -> SplitResult:
    """One full pipeline run, no cache consulted on either side."""
    if isinstance(source, str):
        checked = check_source(source, config.hierarchy)
        program_text = source
    else:
        checked = source
        program_text = repr(checked.program)
    program = lower_program(checked)
    if program.main_key is None:
        raise SplitError("program has no main method to start from")
    candidates = compute_candidates(checked, program, config)
    assignment = assign_hosts(checked, program, config, candidates)
    fragments, entries = translate(program, assignment, config)
    insert_forwards(fragments, entries, program)

    split = SplitProgram(config, config.digest(program_text))
    split.fragments = fragments
    for key, info in checked.fields.items():
        host = assignment.fields[key]
        readers = frozenset(
            descriptor.name
            for descriptor in config.hosts
            if info.label.conf.flows_to(descriptor.conf, config.hierarchy)
        )
        writers = frozenset(
            descriptor.name
            for descriptor in config.hosts
            if descriptor.integ.flows_to(info.label.integ, config.hierarchy)
        )
        split.fields[key] = FieldPlacement(
            key[0],
            key[1],
            info.base,
            host,
            info.label,
            info.loc_label,
            readers,
            writers,
            info.init_value,
        )
    for key, method in program.methods.items():
        split.methods[key] = MethodPlan(
            key[0],
            key[1],
            entries[key],
            method.params,
            method.var_bases,
            method.locals,
            method.return_base,
        )
    split.main_entry = entries[program.main_key]
    # Defense in depth: abstractly interpret the fragment graph to prove
    # the sync/lgoto pairs keep the ICS a stack and every transfer obeys
    # Section 5.5 (see splitter/validate.py).  Cached rehydrations skip
    # this: the cache only holds splits this process validated here.
    from .validate import validate_split

    validate_split(split)
    return SplitResult(split, checked, program, candidates, assignment)


def split_program(
    source: Union[str, CheckedProgram],
    config: TrustConfiguration,
) -> SplitResult:
    """Partition a mini-Jif program for the given trust configuration.

    Host assignment is :func:`repro.splitter.optimizer.assign_hosts`.
    Served from the whole-pipeline cache when the same (source text,
    trust configuration) pair has been split before.
    """
    if not isinstance(source, str):
        return _split_uncached(source, config)
    key = split_cache.split_key(source, config)
    split = split_cache.lookup(key, config)
    if split is not None:
        return SplitResult(
            split, recompute=lambda: _split_uncached(source, config)
        )
    result = _split_uncached(source, config)
    try:
        split_cache.store(key, encode_split(result.split))
    except SplitEncodeError:
        pass
    return result


def split_source(source: str, config: TrustConfiguration) -> SplitResult:
    """Convenience wrapper returning the full :class:`SplitResult`."""
    return split_program(source, config)
