"""Static security constraints on host selection (Section 4).

For a field ``f`` with label ``L_f`` and read-channel bound ``Loc_f``::

    C(L_f) ⊔ Loc_f ⊑ C_h      and      I_h ⊑ I(L_f)

For a statement ``S`` with ``L_in = ⊔ used``, ``L_out = ⊓ defined``::

    C(L_in) ⊑ C_h             and      I_h ⊑ I(L_out)

and, when ``S`` allocates an array whose elements carry ``L``
(``x = new T[n]``; the elements live on the allocating host, like a
field's value on its host), additionally ``C(L) ⊑ C_h``.  When ``S``
performs a declassification/endorsement with authority
``P`` (Section 4.3), additionally ``I_h ⊑ I_P`` — a downgrade must run
on a host every authorizing principal trusts.

When a field or statement has no candidate host, the splitter
"conservatively rejects the program as being insecure" with a
diagnostic that pinpoints the unsatisfiable constraint, exactly as the
paper describes for the naive oblivious-transfer read channel.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..labels import C, I, IntegLabel
from ..lang.typecheck import CheckedProgram, FieldInfo
from ..trust import HostDescriptor, TrustConfiguration
from . import ir


class SplitError(Exception):
    """The program cannot be partitioned securely onto the known hosts."""


def field_candidates(
    info: FieldInfo, config: TrustConfiguration
) -> Tuple[HostDescriptor, ...]:
    """Hosts that may store field ``info`` (Sections 4.1–4.2)."""
    required_conf = C(info.label).join(info.loc_label)
    required_integ = I(info.label)
    return config.eligible_hosts(required_conf, required_integ)


def _allocates_array(stmt: ir.IRStmt) -> bool:
    return isinstance(stmt, ir.AssignVar) and isinstance(stmt.expr, ir.NewArr)


def statement_candidates(
    stmt: ir.IRStmt, config: TrustConfiguration
) -> Tuple[HostDescriptor, ...]:
    """Hosts that may execute statement ``stmt`` (Sections 4.1 and 4.3)."""
    info = stmt.info
    required_conf = C(info.l_in)
    required_integ = (
        I(info.l_out) if info.l_out is not None else IntegLabel.untrusted()
    )
    # An allocated array's elements live on the allocating host
    # (``ir.NewArr``), so that host must be able to store them, as a
    # field's host must (Section 4.1): C(L) ⊑ C_h, not just I_h ⊑ I(L).
    if _allocates_array(stmt):
        required_conf = required_conf.join(C(stmt.expr.label))
    # The call protocol makes the caller sync its own continuation entry
    # (Section 5.5 requires I_i ⊑ I_e' for sync, and the continuation
    # carries the call site's pc integrity), so a call may only be placed
    # on a host trusted to re-create that program point.
    #
    # Note that a *downgrade* statement is NOT further constrained here:
    # its host already sees the pre-declassify data (the C(L_in) check),
    # and the decision to reach it is protected by I_P inside the entry
    # label I_e (Section 5.5) — this is what lets the Figure 2 program
    # copy tmp1/tmp2 to the low-integrity host S (Section 4.2).
    if isinstance(stmt, ir.CallStmt):
        required_integ = required_integ.meet(I(info.pc))
    return config.eligible_hosts(required_conf, required_integ)


def _describe_field_failure(
    info: FieldInfo, config: TrustConfiguration
) -> str:
    required_conf = C(info.label).join(info.loc_label)
    lines = [
        f"no host can store field {info.cls}.{info.name} "
        f"(label {info.label}, Loc = {{{info.loc_label}}})"
    ]
    for host in config.hosts:
        problems = []
        if not required_conf.flows_to(host.conf):
            if not C(info.label).flows_to(host.conf):
                problems.append(
                    f"confidentiality {{{C(info.label)}}} ⋢ {{{host.conf}}}"
                )
            else:
                problems.append(
                    f"read channel: Loc {{{info.loc_label}}} ⋢ "
                    f"{{{host.conf}}} (Section 4.2)"
                )
        if not host.integ.flows_to(I(info.label)):
            problems.append(
                f"integrity {{{host.integ}}} ⋢ {{{I(info.label)}}}"
            )
        lines.append(f"  host {host.name}: " + "; ".join(problems))
    return "\n".join(lines)


def _describe_statement_failure(
    stmt: ir.IRStmt, config: TrustConfiguration
) -> str:
    info = stmt.info
    lines = [
        f"no host can execute statement at {info.pos} "
        f"({type(stmt).__name__}, L_in = {info.l_in})"
    ]
    required_integ = (
        I(info.l_out) if info.l_out is not None else IntegLabel.untrusted()
    )
    for host in config.hosts:
        problems = []
        if not C(info.l_in).flows_to(host.conf):
            problems.append(
                f"uses data {{{C(info.l_in)}}} ⋢ {{{host.conf}}}"
            )
        if not host.integ.flows_to(required_integ):
            problems.append(
                f"writes need {{{required_integ}}}, host gives "
                f"{{{host.integ}}}"
            )
        if _allocates_array(stmt) and not C(stmt.expr.label).flows_to(
            host.conf
        ):
            problems.append(
                f"allocates array elements {{{C(stmt.expr.label)}}} ⋢ "
                f"{{{host.conf}}} (Section 4.1)"
            )
        if isinstance(stmt, ir.CallStmt) and not host.integ.flows_to(
            I(info.pc)
        ):
            problems.append(
                f"a call here must sync a continuation at pc integrity "
                f"{{{I(info.pc)}}} (Section 5.5)"
            )
        lines.append(f"  host {host.name}: " + "; ".join(problems))
    return "\n".join(lines)


class CandidateSets:
    """Candidate hosts for every field and statement of a program."""

    def __init__(self) -> None:
        # Values are the shared tuples the TrustConfiguration's
        # eligibility cache hands out — never mutate them in place.
        self.fields: Dict[Tuple[str, str], Tuple[HostDescriptor, ...]] = {}
        self.statements: Dict[int, Tuple[HostDescriptor, ...]] = {}

    def field_hosts(self, key: Tuple[str, str]) -> List[str]:
        return [h.name for h in self.fields[key]]

    def statement_hosts(self, stmt: ir.IRStmt) -> List[str]:
        return [h.name for h in self.statements[stmt.info.uid]]


def compute_candidates(
    checked: CheckedProgram,
    program: ir.IRProgram,
    config: TrustConfiguration,
) -> CandidateSets:
    """Compute candidates, raising :class:`SplitError` when any are empty."""
    sets = CandidateSets()
    for key, info in checked.fields.items():
        candidates = field_candidates(info, config)
        if not candidates:
            raise SplitError(_describe_field_failure(info, config))
        sets.fields[key] = candidates
    for method in program.methods.values():
        for stmt in ir.walk_stmts(method.body):
            candidates = statement_candidates(stmt, config)
            if not candidates:
                raise SplitError(_describe_statement_failure(stmt, config))
            sets.statements[stmt.info.uid] = candidates
    return sets
