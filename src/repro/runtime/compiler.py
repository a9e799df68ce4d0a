"""Fragment compilation: one generated Python function per component.

Only ``sync``/``rgoto``/``lgoto`` cross hosts (Fig. 3).  A local jump
between two fragments on one host is ordinary control flow, so the
fragments of a host that are linked by *fused* jumps — edge plans of
the form ``[sync…, local X]`` — form one **component**
(:func:`component`), and a component is turned into the source text of
one Python function ``body(host, state)``.  The function dispatches on
``state.entry`` once and then loops: every member fragment is one block
of the loop, a fused jump is ``e = <block>; continue``, and the
function returns the next :class:`~repro.runtime.host.ExecutionState`
or ``None`` only when control leaves the component.  A fragment with no
fused jump to or from it is a one-block component.  Every IR node
becomes the Python expression that evaluates it, so nothing is
dispatched per step.

:meth:`~repro.runtime.host.TrustedHost.run_chain` compiles a component
the first time any of its members is entered and registers the function
under every member entry in the image-wide
:attr:`~repro.runtime.session.RuntimeImage.compiled` dict; the function
takes the executing host as a parameter, so every host and session of
the image shares it.  :func:`component` checks at compile time that the
entered fragment and every fused jump target are placed on the
compiling host and raises :class:`ForeignFragmentError` otherwise, so
the check holds under ``python -O`` and costs nothing per jump.

The generated code does exactly what the tree-walking oracle in
:mod:`.reference` does, in the same order:

* Each block first charges ``len(fragment.ops) + 1`` simulated ops,
  with the float operation ``Transport.charge_ops`` performs, so
  simulated times match bit for bit.
* Frame variables are read from and written to the frame dict ``S``
  directly.  A read of a variable not yet in the frame falls back to
  ``host.var`` for its declared default, and every write keeps its
  ``host.durable`` WAL record.
* The frame is fetched lazily, at the first variable access, so a
  fragment that fails before touching its frame does not create it.
* ``S`` is fetched again after anything that can reach the network:
  any field or array access (which of them are remote is the host's
  business), a forward and a fused ``sync``.  A volatile crash and its
  recovery replace ``host.frames``, and the next access must see the
  replacement.
* Freshness carries across a fused jump (the frame never changes inside
  a component): a block whose every incoming jump has a fresh ``S``
  only checks that ``S`` was fetched at all (``S`` is ``None`` on entry
  to the function), and a block with a stale incoming jump fetches
  again at its first access.
* A fused ``sync`` goes through ``host._do_sync`` inline; every other
  plan goes through ``host._run_plan``, and calls and returns through
  ``host._finish_call``/``host._finish_return``.
* Java ``/`` and ``%`` truncate toward zero.
* An operand nested deeper than :data:`_MAX_INLINE_DEPTH` is computed
  by preceding statements that store its operands in temporaries, level
  by level, so a long operator chain stays within CPython's limit on
  nested brackets.

Anything that is not a literal (edge plans, labels, the call
terminator, the entry index, the helpers below) reaches the code
through the function's globals.  The function is built with
:class:`types.FunctionType`, so it is not reachable from its own
globals and a dropped image frees its compiled components by refcount.
Each code object's filename is ``<fragments ENTRY ...>``, naming the
component's members, so tracebacks and profiles name the fragments.

``tests/runtime/test_compiled_differential.py`` holds the generated
code bit-identical to :mod:`.reference`.
"""

from __future__ import annotations

import builtins
import types
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..labels import Label
from ..splitter import ir
from ..splitter.fragments import (
    EdgePlan,
    Fragment,
    OpAssignVar,
    OpForward,
    OpSetElem,
    OpSetField,
    SplitProgram,
    TermBranch,
    TermCall,
    TermHalt,
    TermJump,
    TermReturn,
)
from .values import ObjectRef

#: ``body(host, state) -> Optional[ExecutionState]``
BodyFn = Callable[[Any, Any], Any]


class ForeignFragmentError(RuntimeError):
    """A host was asked to run a fragment placed on another host.

    Raised when a component is compiled (and by the reference
    interpreter on entry), so the run fails closed even with
    assertions stripped."""

    def __init__(self, host: str, entry: str, owner: str) -> None:
        super().__init__(
            f"{host} asked to run {entry}, which is placed on {owner}"
        )
        self.host = host
        self.entry = entry
        self.owner = owner


# ----------------------------------------------------------------------
# Components
# ----------------------------------------------------------------------


def _fused_target(plan: EdgePlan) -> Optional[str]:
    """The entry ``plan`` jumps to locally after its syncs, or ``None``
    if control leaves through anything else first."""
    for action in plan:
        if action.kind == "local":
            return action.entry
        if action.kind != "sync":
            return None
    return None


def _plans(fragment: Fragment) -> Tuple[EdgePlan, ...]:
    terminator = fragment.terminator
    if isinstance(terminator, TermJump):
        return (terminator.plan,)
    if isinstance(terminator, TermBranch):
        return (terminator.plan_true, terminator.plan_false)
    return ()


def component(split: SplitProgram, host: str, entry: str) -> List[Fragment]:
    """The fragments on ``host`` linked to ``entry`` by fused jumps in
    either direction, in split order.

    Raises :class:`ForeignFragmentError` if ``entry`` or the target of
    a fused jump out of the component is placed on another host."""
    fragments = split.fragments
    owner = fragments[entry].host
    if owner != host:
        raise ForeignFragmentError(host, entry, owner)
    on_host = split.fragments_on(host)
    links: Dict[str, List[str]] = {}
    for fragment in on_host:
        for plan in _plans(fragment):
            target = _fused_target(plan)
            if target is None:
                continue
            links.setdefault(fragment.entry, []).append(target)
            if fragments[target].host == host:
                links.setdefault(target, []).append(fragment.entry)
    members = {entry}
    todo = [entry]
    while todo:
        for target in links.get(todo.pop(), ()):
            if target in members:
                continue
            owner = fragments[target].host
            if owner != host:
                raise ForeignFragmentError(host, target, owner)
            members.add(target)
            todo.append(target)
    return [fragment for fragment in on_host if fragment.entry in members]


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

#: What the generator knows about ``S`` at a point of the code, ordered
#: so that the state after two paths meet is their minimum: it may be
#: anything, it is ``None`` or the current frame dict, or it is the
#: current frame dict.
_STALE, _MAYBE, _FRESH = 0, 1, 2

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
    """Emits one component's ``body`` source, tracking in evaluation
    order what is known about ``S`` (:data:`_FRESH`, :data:`_MAYBE`,
    :data:`_STALE`)."""

    def __init__(self, fragments: Sequence[Fragment]) -> None:
        self.fragments = list(fragments)
        self.index = {f.entry: i for i, f in enumerate(self.fragments)}
        self.namespace: Dict[str, Any] = dict(_HELPERS)
        self.bound: Dict[int, str] = {}
        #: the current block's lines, without the dispatch indentation.
        self.lines: List[str] = []
        self.fresh = _STALE
        #: (target block, state of ``S``) of the current block's jumps.
        self.jumps: List[Tuple[int, int]] = []
        self.temps = 0
        self.indent = 0

    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * (self.indent + depth) + line)

    def bind(self, value: Any) -> str:
        name = self.bound.get(id(value))
        if name is None:
            name = self.bound[id(value)] = f"_g{len(self.bound)}"
            self.namespace[name] = value
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def frame_expr(self) -> str:
        fresh, self.fresh = self.fresh, _FRESH
        if fresh == _FRESH:
            return "S"
        if fresh == _MAYBE:
            return f"(S if S is not None else (S := {_FETCH}))"
        return f"(S := {_FETCH})"

    def frame_stmt(self) -> None:
        if self.fresh == _MAYBE:
            self.emit(f"if S is None: S = {_FETCH}")
        elif self.fresh == _STALE:
            self.emit(f"S = {_FETCH}")
        self.fresh = _FRESH

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
            self.fresh = min(fresh_after_left, self.fresh)
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
            self.fresh = _STALE
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
            self.fresh = _STALE
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
            # The right operand may not run: afterwards S is known only
            # as well as on the worse of the two paths.
            fresh_after_left = self.fresh
            right = sub(expr.right)
            self.fresh = min(fresh_after_left, self.fresh)
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
            self.fresh = _STALE
        elif isinstance(op, OpSetElem):
            args = ", ".join(self.operands(op.array, op.index, op.expr))
            self.emit(f"host.write_element({args})")
            self.fresh = _STALE
        elif isinstance(op, OpForward):
            targets = repr(tuple(op.hosts))
            self.emit(f"_forward(host, fid, {op.var!r}, {targets})")
            self.fresh = _STALE
        else:
            raise AssertionError(f"unknown op {op!r}")

    # -- terminators -----------------------------------------------------

    def plan(self, plan: EdgePlan, depth: int = 0) -> None:
        target = _fused_target(plan)
        if target is None:
            plan_name = self.bind(plan)
            self.emit(f"return host._run_plan({plan_name}, state)", depth)
            return
        # Exactly host._run_plan's steps up to the local jump: each sync
        # chains the token, a rejected one ends the chain.
        token = "state.token"
        for action in plan:
            if action.kind == "local":
                break
            sync = f"host._do_sync({action.entry!r}, fid, {token})"
            self.emit(f"tok = {sync}", depth)
            self.emit("if tok is None: return None", depth)
            token = "tok"
            self.fresh = _STALE
        if token != "state.token":
            self.emit(f"state.token = {token}", depth)
        block = self.index[target]
        self.jumps.append((block, self.fresh))
        self.emit(f"e = {block}", depth)
        self.emit("continue", depth)

    def terminator(self, terminator) -> None:
        if isinstance(terminator, TermJump):
            self.plan(terminator.plan)
        elif isinstance(terminator, TermBranch):
            (cond,) = self.operands(terminator.cond)
            self.emit(f"if {cond}:")
            fresh = self.fresh
            self.plan(terminator.plan_true, 1)
            self.fresh = fresh
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

    # -- blocks and dispatch ---------------------------------------------

    def block(self, fragment: Fragment, fresh: int) -> List[str]:
        """One member's block, entered with ``S`` known as ``fresh``;
        its jumps are left in :attr:`jumps`."""
        self.lines, self.jumps = [], []
        self.fresh, self.temps = fresh, 0
        self.emit(f"N.clock += {len(fragment.ops) + 1} * N.cost.op_cost")
        for op in fragment.ops:
            self.op(op)
        self.terminator(fragment.terminator)
        return self.lines

    def blocks(self) -> List[List[str]]:
        """Every member's block.  A block is entered with ``S`` at best
        :data:`_MAYBE` (``None`` on entry to the function), and at worst
        as stale as at any jump into it; a block whose entry state drops
        is generated again, at most once."""
        entry_state = [_MAYBE] * len(self.fragments)
        code: List[List[str]] = [[] for _ in self.fragments]
        todo = list(range(len(self.fragments)))
        while todo:
            i = todo.pop(0)
            code[i] = self.block(self.fragments[i], entry_state[i])
            for target, fresh in self.jumps:
                if fresh < entry_state[target]:
                    entry_state[target] = fresh
                    if target not in todo:
                        todo.append(target)
        return code

    def source(self) -> str:
        code = self.blocks()
        lines = [
            "def body(host, state):",
            "    fid = state.frame",
            "    N = host.network",
            "    S = None",
        ]
        if len(code) > 1:
            self.namespace["_index"] = self.index
            lines.append("    e = _index[state.entry]")
        lines.append("    while True:")

        def dispatch(lo: int, hi: int, depth: int) -> None:
            # Every block ends in continue, return or raise, so the
            # right half needs no else.
            if hi - lo == 1:
                pad = "    " * depth
                lines.extend(pad + line for line in code[lo])
                return
            mid = (lo + hi) // 2
            lines.append("    " * depth + f"if e < {mid}:")
            dispatch(lo, mid, depth + 1)
            dispatch(mid, hi, depth)

        dispatch(0, len(code), 2)
        return "\n".join(lines) + "\n"


def generate(fragments: Sequence[Fragment]) -> Tuple[str, Dict[str, Any]]:
    """The source of the ``body`` of the component ``fragments`` (see
    :func:`component`) and the globals it runs in."""
    generator = _Generator(fragments)
    return generator.source(), generator.namespace


def compile_component(fragments: Sequence[Fragment]) -> BodyFn:
    """Compile the component ``fragments`` to its ``body(host, state)``
    function."""
    source, namespace = generate(fragments)
    entries = " ".join(fragment.entry for fragment in fragments)
    module = compile(source, f"<fragments {entries}>", "exec")
    (code,) = [c for c in module.co_consts if isinstance(c, types.CodeType)]
    return types.FunctionType(code, namespace, "body")
