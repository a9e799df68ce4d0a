"""Tree-walking reference interpreter for fragment bodies.

Production hosts run every fragment inside the one function generated
for its local-jump component by :mod:`.compiler`
(:meth:`~repro.runtime.host.TrustedHost.run_chain`).
This module keeps the original interpreter — one ``isinstance``
dispatch per IR node on every step — as free functions over a host, so
the differential tests in ``tests/runtime/test_compiled_differential.py``
can swap :func:`run_chain` in for the compiled loop and hold the two
bit-identical (message counts, simulated time, audits, frames, fields).

Nothing in the runtime calls into this module.  Keep it that way: this
is the oracle, and it must not share the compiled-fragment cache it is
checking.  Operation accounting matches the compiled loop exactly: one
simulated op per IR op plus one for the terminator.
"""

from __future__ import annotations

from typing import Any, Optional

from ..labels import Label
from ..splitter import ir
from ..splitter.fragments import (
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
from .host import ExecutionState, HaltSignal, TrustedHost
from .values import FrameID, ObjectRef


def run_chain(host: TrustedHost, state: ExecutionState) -> None:
    """Interpret fragments on ``host`` until control leaves it; a
    drop-in replacement for :meth:`TrustedHost.run_chain`."""
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
        return host._run_plan(terminator.plan, state)
    if isinstance(terminator, TermBranch):
        cond = eval_expr(host, terminator.cond, state.frame)
        plan = terminator.plan_true if cond else terminator.plan_false
        return host._run_plan(plan, state)
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
    return host._finish_call(terminator, state, arg_values)


def run_return(
    host: TrustedHost, terminator: TermReturn, state: ExecutionState
) -> Optional[ExecutionState]:
    value = (
        eval_expr(host, terminator.expr, state.frame)
        if terminator.expr is not None
        else None
    )
    return host._finish_return(state, value)


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
