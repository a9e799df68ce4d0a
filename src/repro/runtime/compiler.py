"""Fragment compilation: one generated Python function per fragment.

Fragment bodies are straight-line and immutable once the splitter has
produced them, so a fragment — its ops and its terminator — is turned
into the source text of one Python function ``body(host, state)`` that
returns the next :class:`~repro.runtime.host.ExecutionState` or
``None``.  Every IR node becomes the Python expression that evaluates
it, so nothing is dispatched per step and a fragment costs one call.
:meth:`~repro.runtime.host.TrustedHost.run_chain` compiles each
fragment on its first entry into the image-wide
:attr:`~repro.runtime.session.RuntimeImage.compiled` dict; the function
takes the executing host as a parameter, so every host and session of
the image shares it.

The generated code does exactly what the tree-walking oracle in
:mod:`.reference` does, in the same order:

* Frame variables are read from and written to the frame dict ``S``
  directly.  A read of a variable not yet in the frame falls back to
  ``host.var`` for its declared default, and every write keeps its
  ``host.durable`` WAL record.
* The frame is fetched lazily, at the first variable access, so a
  fragment that fails before touching its frame does not create it.
* ``S`` is fetched again after anything that can reach the network:
  any field or array access (which of them are remote is the host's
  business) and a forward.  A volatile crash and its recovery replace
  ``host.frames``, and the next access must see the replacement.
* An edge plan that starts with a local jump sets ``state.entry`` in
  place; any other plan goes through ``host._run_plan``.
* Java ``/`` and ``%`` truncate toward zero.
* An operand nested deeper than :data:`_MAX_INLINE_DEPTH` is computed
  by preceding statements that store its operands in temporaries, level
  by level, so a long operator chain stays within CPython's limit on
  nested brackets.

Anything that is not a literal (edge plans, labels, the call
terminator, the helpers below) reaches the code through the function's
globals.  The function is built with :class:`types.FunctionType`, so it
is not reachable from its own globals and a dropped image frees its
compiled fragments by refcount.  Each code object's filename is
``<fragment ENTRY>``, so tracebacks and profiles name the fragment.

``tests/runtime/test_compiled_differential.py`` holds the generated
code bit-identical to :mod:`.reference`.  Each fragment charges
``len(fragment.ops) + 1`` simulated ops, exactly as the oracle does, so
message counts and simulated times match.
"""

from __future__ import annotations

import builtins
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..labels import Label
from ..splitter import ir
from ..splitter.fragments import (
    EdgePlan,
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
from .values import ObjectRef

#: ``body(host, state) -> Optional[ExecutionState]``
BodyFn = Callable[[Any, Any], Any]

# ----------------------------------------------------------------------
# Helpers the generated code calls
# ----------------------------------------------------------------------


def _null(what: str):
    raise RuntimeError(f"null dereference in {what}")


def _forward(host, fid, var: str, targets: Tuple[str, ...]) -> None:
    value = host.var(fid, var)
    plan = host.split.methods[fid.method_key]
    label = plan.var_labels.get(var, Label.constant())
    slot = (fid.fid, var)
    for target in targets:
        if target == host.name:
            continue
        host.defer_forward(target, slot, value, label, fid)
    if host.opt_level == 0:
        host.flush_forwards(piggyback_for=None)


_HELPERS = {
    "__builtins__": builtins,
    "ObjectRef": ObjectRef,
    "_null": _null,
    "_forward": _forward,
}

#: Operators whose Python and Java semantics agree on ints.
_OPERATORS = frozenset(("+", "-", "*", "==", "!=", "<", "<=", ">", ">="))

#: Fetch (and lazily create) the current frame's variable dict.
_FETCH = "host.frames.get(fid) or host.frame(fid)"

#: IR nesting beyond which an operand is computed by statements.  Each
#: IR level adds at most three brackets to its inline source, and
#: CPython's tokenizer rejects more than 200 nested brackets.
_MAX_INLINE_DEPTH = 60


def _depth(expr: ir.IRExpr) -> int:
    return 1 + max(map(_depth, ir.children(expr)), default=0)


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------


class _Generator:
    """Emits one fragment's ``body`` source, tracking in evaluation
    order whether ``S`` is known to hold the current frame dict."""

    def __init__(self, fragment: Fragment) -> None:
        self.fragment = fragment
        self.lines: List[str] = [
            "def body(host, state):",
            "    fid = state.frame",
        ]
        self.namespace: Dict[str, Any] = dict(_HELPERS)
        #: True while ``S`` is the frame dict and nothing since its
        #: fetch could have replaced ``host.frames``.
        self.fresh = False
        self.temps = 0
        self.indent = 1

    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * (self.indent + depth) + line)

    def bind(self, value: Any) -> str:
        name = f"_g{len(self.namespace) - len(_HELPERS)}"
        self.namespace[name] = value
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def frame_expr(self) -> str:
        if self.fresh:
            return "S"
        self.fresh = True
        return f"(S := {_FETCH})"

    def frame_stmt(self) -> None:
        if not self.fresh:
            self.emit(f"S = {_FETCH}")
            self.fresh = True

    # -- expressions -----------------------------------------------------

    def operands(self, *exprs: ir.IRExpr) -> List[str]:
        """Python source for one statement's operands, which it
        evaluates left to right.  If any operand is too deep to inline,
        every operand is computed by preceding statements, in order."""
        if max(map(_depth, exprs), default=0) <= _MAX_INLINE_DEPTH:
            return [self.expr(expr) for expr in exprs]
        return [self.spill(expr) for expr in exprs]

    def spill(self, expr: ir.IRExpr) -> str:
        """Emit statements that store ``expr``'s value in a temporary,
        inline if it is shallow enough; return the temporary."""
        t = self.temp()
        if _depth(expr) <= _MAX_INLINE_DEPTH:
            self.emit(f"{t} = {self.expr(expr)}")
        elif isinstance(expr, ir.BinOp) and expr.op in ("&&", "||"):
            self.emit(f"{t} = bool({self.spill(expr.left)})")
            self.emit(f"if {'' if expr.op == '&&' else 'not '}{t}:")
            fresh_after_left = self.fresh
            self.indent += 1
            self.emit(f"{t} = bool({self.spill(expr.right)})")
            self.indent -= 1
            self.fresh = fresh_after_left and self.fresh
        else:
            self.emit(f"{t} = {self.expr(expr, self.spill)}")
        return t

    def expr(
        self,
        expr: ir.IRExpr,
        sub: Optional[Callable[[ir.IRExpr], str]] = None,
    ) -> str:
        """Python source that evaluates ``expr``, with ``sub`` giving
        the source of its operands (by default, inline)."""
        sub = sub or self.expr
        if isinstance(expr, ir.Const):
            value = expr.value
            if value is None or type(value) in (bool, int, str):
                return repr(value)
            return self.bind(value)
        if isinstance(expr, ir.VarUse):
            name = repr(expr.name)
            frame = self.frame_expr()
            return (
                f"(S[{name}] if {name} in {frame} "
                f"else host.var(fid, {name}))"
            )
        if isinstance(expr, ir.FieldUse):
            oid = "None"
            if expr.obj is not None:
                oid = self.deref(sub(expr.obj), "oid", "field read")
            self.fresh = False
            return f"host.read_field({expr.cls!r}, {expr.field!r}, {oid})"
        if isinstance(expr, ir.BinOp):
            return self.binop(expr, sub)
        if isinstance(expr, ir.UnOp):
            operand = sub(expr.operand)
            return f"(not {operand})" if expr.op == "!" else f"(-{operand})"
        if isinstance(expr, ir.NewObj):
            return f"ObjectRef({expr.cls!r})"
        if isinstance(expr, ir.NewArr):
            # Routed through the host so the allocation is WAL-logged
            # when a durable store is attached (crash recovery).
            length = sub(expr.length)
            return f"host.alloc_array({length}, {self.bind(expr.label)})"
        if isinstance(expr, ir.ArrayUse):
            array = sub(expr.array)
            index = sub(expr.index)
            self.fresh = False
            return f"host.read_element({array}, {index})"
        if isinstance(expr, ir.ArrayLen):
            return self.deref(sub(expr.array), "length", "array length")
        if isinstance(expr, ir.DowngradeExpr):
            # declassify/endorse have no run-time cost (Section 2.2).
            return sub(expr.inner)
        raise AssertionError(f"unknown expression {expr!r}")

    def deref(self, ref: str, attr: str, what: str) -> str:
        t = self.temp()
        return (
            f"({t}.{attr} if ({t} := {ref}) is not None "
            f"else _null({what!r}))"
        )

    def binop(
        self, expr: ir.BinOp, sub: Callable[[ir.IRExpr], str]
    ) -> str:
        op = expr.op
        left = sub(expr.left)
        if op in ("&&", "||"):
            # The right operand may not run: S is fresh afterwards only
            # if it is fresh on both paths.
            fresh_after_left = self.fresh
            right = sub(expr.right)
            self.fresh = fresh_after_left and self.fresh
            word = "and" if op == "&&" else "or"
            return f"(bool({left}) {word} bool({right}))"
        right = sub(expr.right)
        if op in ("/", "%"):
            # Java truncates toward zero where Python floors: the two
            # differ when the quotient is negative and inexact.  The
            # remainder is derived from the quotient, as Java defines it.
            a, b, q = self.temp(), self.temp(), self.temp()
            floor = f"({q} := ({a} := {left}) // ({b} := {right}))"
            inexact = f"{floor} < 0 and {q} * {b} != {a}"
            if op == "/":
                return f"({q} + 1 if {inexact} else {q})"
            return f"({a} - ({q} + 1) * {b} if {inexact} else {a} - {q} * {b})"
        if op not in _OPERATORS:
            raise AssertionError(f"unknown operator {op!r}")
        return f"({left} {op} {right})"

    # -- ops -------------------------------------------------------------

    def op(self, op) -> None:
        if isinstance(op, OpAssignVar):
            (value,) = self.operands(op.expr)
            self.emit(f"v = {value}")
            self.frame_stmt()
            name = repr(op.var)
            self.emit(f"S[{name}] = v")
            self.emit(
                "if host.durable is not None: "
                f"host.durable.log('var', fid, {name}, v)"
            )
        elif isinstance(op, OpSetField):
            (value,) = self.operands(op.expr)
            target = f"{op.cls!r}, {op.field!r}"
            if op.obj is None:
                self.emit(f"host.write_field({target}, None, {value})")
            else:
                self.emit(f"v = {value}")
                (ref,) = self.operands(op.obj)
                self.emit(f"r = {ref}")
                self.emit("if r is None: _null('field write')")
                self.emit(f"host.write_field({target}, r.oid, v)")
            self.fresh = False
        elif isinstance(op, OpSetElem):
            args = ", ".join(self.operands(op.array, op.index, op.expr))
            self.emit(f"host.write_element({args})")
            self.fresh = False
        elif isinstance(op, OpForward):
            targets = repr(tuple(op.hosts))
            self.emit(f"_forward(host, fid, {op.var!r}, {targets})")
            self.fresh = False
        else:
            raise AssertionError(f"unknown op {op!r}")

    # -- terminators -----------------------------------------------------

    def plan(self, plan: EdgePlan, depth: int = 0) -> None:
        if plan and plan[0].kind == "local":
            self.emit(f"state.entry = {plan[0].entry!r}", depth)
            self.emit("return state", depth)
        else:
            plan_name = self.bind(plan)
            self.emit(f"return host._run_plan({plan_name}, state)", depth)

    def terminator(self, terminator) -> None:
        if isinstance(terminator, TermJump):
            self.plan(terminator.plan)
        elif isinstance(terminator, TermBranch):
            (cond,) = self.operands(terminator.cond)
            self.emit(f"if {cond}:")
            self.plan(terminator.plan_true, 1)
            self.plan(terminator.plan_false)
        elif isinstance(terminator, TermCall):
            params = [param for param, _ in terminator.args]
            values = self.operands(*(expr for _, expr in terminator.args))
            args = ", ".join(
                f"{param!r}: {value}" for param, value in zip(params, values)
            )
            call = self.bind(terminator)
            self.emit(f"return host._finish_call({call}, state, {{{args}}})")
        elif isinstance(terminator, TermReturn):
            value = "None"
            if terminator.expr is not None:
                (value,) = self.operands(terminator.expr)
            self.emit(f"return host._finish_return(state, {value})")
        elif isinstance(terminator, TermHalt):
            from .host import HaltSignal

            self.namespace["HaltSignal"] = HaltSignal
            self.emit("raise HaltSignal()")
        else:
            raise AssertionError(f"unknown terminator {terminator!r}")

    def source(self) -> str:
        for op in self.fragment.ops:
            self.op(op)
        self.terminator(self.fragment.terminator)
        return "\n".join(self.lines) + "\n"


def generate(fragment: Fragment) -> Tuple[str, Dict[str, Any]]:
    """The source of ``fragment``'s ``body`` and the globals it runs in."""
    generator = _Generator(fragment)
    return generator.source(), generator.namespace


def compile_body(fragment: Fragment) -> BodyFn:
    """Compile ``fragment`` to its ``body(host, state)`` function."""
    source, namespace = generate(fragment)
    module = compile(source, f"<fragment {fragment.entry}>", "exec")
    (code,) = [c for c in module.co_consts if isinstance(c, types.CodeType)]
    return types.FunctionType(code, namespace, "body")


class CompiledFragment:
    """A fragment compiled to one function, ready for ``run_chain``."""

    __slots__ = ("host", "charge", "body")

    def __init__(self, fragment: Fragment) -> None:
        self.host = fragment.host
        #: one simulated op per IR op plus one for the terminator.
        self.charge = len(fragment.ops) + 1
        self.body: BodyFn = compile_body(fragment)
