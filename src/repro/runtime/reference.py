"""Tree-walking reference interpreter for fragment bodies and plans.

Production hosts run every fragment, and every plan that leaves it,
inside the one function generated for its local-jump component by
:mod:`.compiler` (:meth:`~repro.runtime.host.TrustedHost.run_chain`).
This module keeps the original interpreter — one ``isinstance``
dispatch per IR node on every step, and the edge plans, calls and
returns walked action by action — as free functions over a host, so the
differential tests in ``tests/runtime/test_compiled_differential.py``
can swap :func:`run_chain` in for the compiled loop and hold the two
bit-identical (message counts, simulated time, audits, frames, fields).

Nothing in the runtime calls into this module.  Keep it that way: this
is the oracle, and it must not share the compiled-fragment cache it is
checking, nor the generated protocol code.  Operation accounting
matches the compiled loop exactly: one simulated op per IR op plus one
for the terminator.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..labels import Label
from ..splitter import ir
from ..splitter.fragments import (
    EdgeAction,
    Fragment,
    OpAssignVar,
    OpForward,
    OpSetElem,
    OpSetField,
    TermBranch,
    TermCall,
    TermHalt,
    TermJump,
    TermReturn,
)
from .compiler import ForeignFragmentError
from .host import HaltSignal, TrustedHost
from .network import Message
from .tokens import Token
from .values import FrameID, ObjectRef


class ExecutionState:
    """The moving point of control: (entry, frame, token)."""

    __slots__ = ("entry", "frame", "token")

    def __init__(self, entry: str, frame: FrameID, token: Optional[Token]) -> None:
        self.entry = entry
        self.frame = frame
        self.token = token


def run_chain(
    host: TrustedHost, entry: str, frame: FrameID, token: Optional[Token]
) -> None:
    """Interpret fragments on ``host`` until control leaves it; a
    drop-in replacement for :meth:`TrustedHost.run_chain`."""
    state = ExecutionState(entry, frame, token)
    while True:
        fragment = host.split.fragments[state.entry]
        if fragment.host != host.name:
            raise ForeignFragmentError(host.name, state.entry, fragment.host)
        host.network.charge_ops(len(fragment.ops) + 1)
        for op in fragment.ops:
            run_op(host, op, state)
        next_state = run_terminator(host, fragment, state)
        if next_state is None:
            return
        state = next_state


def run_op(host: TrustedHost, op, state: ExecutionState) -> None:
    if isinstance(op, OpAssignVar):
        host.set_var(state.frame, op.var, eval_expr(host, op.expr, state.frame))
    elif isinstance(op, OpSetField):
        value = eval_expr(host, op.expr, state.frame)
        oid = None
        if op.obj is not None:
            ref = eval_expr(host, op.obj, state.frame)
            if ref is None:
                raise RuntimeError("null dereference in field write")
            oid = ref.oid
        host.write_field(op.cls, op.field, oid, value)
    elif isinstance(op, OpSetElem):
        ref = eval_expr(host, op.array, state.frame)
        index = eval_expr(host, op.index, state.frame)
        value = eval_expr(host, op.expr, state.frame)
        host.write_element(ref, index, value)
    elif isinstance(op, OpForward):
        value = host.var(state.frame, op.var)
        plan = host.split.methods[state.frame.method_key]
        label = plan.var_labels.get(op.var, Label.constant())
        slot = (state.frame.fid, op.var)
        for target in op.hosts:
            if target == host.name:
                continue
            host.defer_forward(target, slot, value, label, state.frame)
        if host.opt_level == 0:
            host.flush_forwards(piggyback_for=None)
    else:
        raise AssertionError(f"unknown op {op!r}")


def run_terminator(
    host: TrustedHost, fragment: Fragment, state: ExecutionState
) -> Optional[ExecutionState]:
    terminator = fragment.terminator
    if isinstance(terminator, TermJump):
        return run_plan(host, terminator.plan, state)
    if isinstance(terminator, TermBranch):
        cond = eval_expr(host, terminator.cond, state.frame)
        plan = terminator.plan_true if cond else terminator.plan_false
        return run_plan(host, plan, state)
    if isinstance(terminator, TermCall):
        return run_call(host, terminator, state)
    if isinstance(terminator, TermReturn):
        return run_return(host, terminator, state)
    if isinstance(terminator, TermHalt):
        raise HaltSignal()
    raise AssertionError(f"unknown terminator {terminator!r}")


def run_call(
    host: TrustedHost, terminator: TermCall, state: ExecutionState
) -> Optional[ExecutionState]:
    # Evaluate arguments in the caller's frame.
    arg_values = {
        param: eval_expr(host, expr, state.frame)
        for param, expr in terminator.args
    }
    return finish_call(host, terminator, state, arg_values)


def run_return(
    host: TrustedHost, terminator: TermReturn, state: ExecutionState
) -> Optional[ExecutionState]:
    value = (
        eval_expr(host, terminator.expr, state.frame)
        if terminator.expr is not None
        else None
    )
    return finish_return(host, state, value)


def run_plan(
    host: TrustedHost, plan: List[EdgeAction], state: ExecutionState
) -> Optional[ExecutionState]:
    token = state.token
    for action in plan:
        if action.kind == "local":
            state.entry = action.entry
            state.token = token
            return state
        if action.kind == "sync":
            token = host._do_sync(action.entry, state.frame, token)
            if token is None:
                return None
        elif action.kind == "rgoto":
            do_rgoto(host, action.entry, state.frame, token)
            return None
        elif action.kind == "lgoto":
            do_lgoto(host, token)
            return None
        elif action.kind == "halt":
            raise HaltSignal()
    return None


def do_rgoto(
    host: TrustedHost, entry: str, frame: FrameID, token: Optional[Token],
    extra_vars: Optional[Dict[FrameID, Dict[str, Any]]] = None,
) -> None:
    target_host = host.split.entry_host(entry)
    piggyback = host.flush_forwards(piggyback_for=target_host)
    vars_payload = piggyback or {}
    if extra_vars:
        for fid, values in extra_vars.items():
            vars_payload.setdefault(fid, {}).update(values)
    message = Message(
        "rgoto",
        host.name,
        target_host,
        {
            "entry": entry,
            "frame": frame,
            "token": token,
            "vars": vars_payload,
            "digest": host.split.digest,
        },
    )
    host.network.post(message)


def do_lgoto(
    host: TrustedHost, token: Optional[Token],
    extra_vars: Optional[Dict[FrameID, Dict[str, Any]]] = None,
) -> None:
    if token is None:
        raise HaltSignal()
    piggyback = host.flush_forwards(piggyback_for=token.host)
    vars_payload = piggyback or {}
    if extra_vars:
        for fid, values in extra_vars.items():
            vars_payload.setdefault(fid, {}).update(values)
    message = Message(
        "lgoto",
        host.name,
        token.host,
        {
            "token": token,
            "vars": vars_payload,
            "digest": host.split.digest,
        },
    )
    host.network.post(message)


def finish_call(
    host: TrustedHost,
    terminator: TermCall,
    state: ExecutionState,
    arg_values: Dict[str, Any],
) -> Optional[ExecutionState]:
    # Sync the continuation on this host (a local ICS push).
    cont_token = host._do_sync(terminator.cont_entry, state.frame, state.token)
    if cont_token is None:
        return None
    callee_frame = FrameID(terminator.callee_key)
    callee_host = host.split.entry_host(terminator.callee_entry)
    plan = host.split.methods[terminator.callee_key]
    # Route each argument directly to the hosts that read the
    # parameter — not to hosts that merely run other callee code.
    rgoto_payload: Dict[str, Any] = {}
    for param, value in arg_values.items():
        label = plan.var_labels.get(param, Label.constant())
        for target in terminator.arg_hosts.get(param, ()):
            if target == host.name:
                host.set_var(callee_frame, param, value)
            elif target == callee_host:
                rgoto_payload[param] = value
                host.network.flow(label, target)
            else:
                host.defer_forward(
                    target, (callee_frame.fid, param), value, label,
                    callee_frame,
                )
    if callee_host == host.name:
        for param, value in rgoto_payload.items():
            host.set_var(callee_frame, param, value)
        return ExecutionState(terminator.callee_entry, callee_frame, cont_token)
    do_rgoto(
        host,
        terminator.callee_entry,
        callee_frame,
        cont_token,
        extra_vars={callee_frame: rgoto_payload} if rgoto_payload else None,
    )
    return None


def finish_return(
    host: TrustedHost, state: ExecutionState, value: Any
) -> Optional[ExecutionState]:
    token = state.token
    if token is None:
        raise HaltSignal()
    # The whole return route is static per continuation entry: the
    # capability names the caller's host and frame, the split program
    # names the result variable and the hosts that consume it.  A
    # returned null is a value like any other.
    result_var, result_hosts = host.split.cont_result(token.entry)
    retval_payload: Optional[Dict[FrameID, Dict[str, Any]]] = None
    if result_var is not None:
        plan = host.split.methods[token.frame.method_key]
        label = plan.var_labels.get(result_var, Label.constant())
        for target in result_hosts:
            if target == host.name:
                host.set_var(token.frame, result_var, value)
            elif host.opt_level >= 2 and target == token.host:
                # Piggyback the return value on the lgoto (the paper's
                # proposed optimization).
                retval_payload = {token.frame: {result_var: value}}
                host.network.flow(label, target)
                host.network.note_eliminated(1)
            else:
                host.network.flow(label, target)
                host.network.request(
                    Message(
                        "forward",
                        host.name,
                        target,
                        {
                            "vars": {token.frame: {result_var: value}},
                            "digest": host.split.digest,
                        },
                        data_labels=[label],
                    )
                )
    if token.host == host.name:
        # A local return: pop our own stack directly; deferred forwards
        # keep riding until control actually leaves.
        popped = host.stack.pop_if_top(token)
        if popped is None:
            host.network.audit(host.name, "local lgoto with stale token")
            return None
        if host.durable is not None:
            host.durable.log("pop")
        (previous,) = popped
        if previous is None:
            raise HaltSignal()
        return ExecutionState(token.entry, token.frame, previous)
    do_lgoto(host, token, extra_vars=retval_payload)
    return None


def eval_expr(host: TrustedHost, expr: ir.IRExpr, frame: FrameID) -> Any:
    if isinstance(expr, ir.Const):
        return expr.value
    if isinstance(expr, ir.VarUse):
        return host.var(frame, expr.name)
    if isinstance(expr, ir.FieldUse):
        oid = None
        if expr.obj is not None:
            ref = eval_expr(host, expr.obj, frame)
            if ref is None:
                raise RuntimeError("null dereference in field read")
            oid = ref.oid
        return host.read_field(expr.cls, expr.field, oid)
    if isinstance(expr, ir.BinOp):
        return eval_binop(host, expr, frame)
    if isinstance(expr, ir.UnOp):
        operand = eval_expr(host, expr.operand, frame)
        return (not operand) if expr.op == "!" else (-operand)
    if isinstance(expr, ir.NewObj):
        return ObjectRef(expr.cls)
    if isinstance(expr, ir.NewArr):
        length = eval_expr(host, expr.length, frame)
        return host.alloc_array(length, expr.label)
    if isinstance(expr, ir.ArrayUse):
        ref = eval_expr(host, expr.array, frame)
        index = eval_expr(host, expr.index, frame)
        return host.read_element(ref, index)
    if isinstance(expr, ir.ArrayLen):
        ref = eval_expr(host, expr.array, frame)
        if ref is None:
            raise RuntimeError("null dereference in array length")
        return ref.length
    if isinstance(expr, ir.DowngradeExpr):
        # declassify/endorse have no run-time cost (Section 2.2).
        return eval_expr(host, expr.inner, frame)
    raise AssertionError(f"unknown expression {expr!r}")


def eval_binop(host: TrustedHost, expr: ir.BinOp, frame: FrameID) -> Any:
    op = expr.op
    left = eval_expr(host, expr.left, frame)
    if op == "&&":
        return bool(left) and bool(eval_expr(host, expr.right, frame))
    if op == "||":
        return bool(left) or bool(eval_expr(host, expr.right, frame))
    right = eval_expr(host, expr.right, frame)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return java_div(left, right)
    if op == "%":
        return left - java_div(left, right) * right
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise AssertionError(f"unknown operator {op!r}")


def java_div(left: int, right: int) -> int:
    # Java semantics: truncate toward zero.
    quotient = abs(left) // abs(right)
    return quotient if (left >= 0) == (right >= 0) else -quotient
