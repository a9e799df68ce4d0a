"""Fragment compilation: one generated Python function per component.

Only ``sync``/``rgoto``/``lgoto`` cross hosts (Fig. 3).  A local jump
between two fragments on one host is ordinary control flow, so the
fragments of a host that are linked by *fused* jumps — edge plans of
the form ``[sync…, local X]`` — form one **component**
(:func:`component`), and a component is turned into the source text of
one Python function ``body(host, entry, fid, token)``.  The function
dispatches on ``entry`` once and then loops over its blocks, and it
returns the next ``(entry, frame, token)`` (a call or return that stays
on the host) or ``None`` only when control leaves the component.  A
fragment with no fused jump to or from it is a one-block component.
Every IR node becomes the Python expression that evaluates it, so
nothing is dispatched per step.

* A member with exactly one incoming fused jump, from another member,
  that nothing outside the component enters is generated in place at
  that jump; every other member is a block of the dispatch loop, and a
  fused jump to it is ``e = <block>`` followed by ``continue``.
* A block that one of its in-place members jumps back to is an inner
  ``while True:`` loop: the jump back is ``continue``, and every other
  fused jump out of it is ``e = <block>; break`` to the dispatcher.  So
  a local loop whose body is a chain of such members runs as a Python
  loop.

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

* Each member first charges ``len(fragment.ops) + 1`` simulated ops,
  with the float operation ``Transport.charge_ops`` performs, so
  simulated times match bit for bit (``1 * C`` is written ``C``, which
  is the same float).  ``N.cost.op_cost`` and ``host.durable`` are read
  once per invocation.
* Frame variables live in the frame dict ``S``.  A read of a variable
  not yet in the frame falls back to ``host.var`` for its declared
  default, and every write stores to ``S`` and keeps its
  ``host.durable`` WAL record.  A variable read or written while ``S``
  is fresh is also held in a Python local, and later reads use the
  local until ``S`` goes stale.
* The frame is fetched lazily, at the first variable access, so a
  fragment that fails before touching its frame does not create it.
* ``S`` is fetched again, and every held local dropped, after anything
  that can reach the network: a field access whose field is placed on
  another host, any array element access (which arrays are remote is
  only known at run time), a sync, a call or a return.  A volatile crash
  and its recovery replace ``host.frames``, and a re-forward may write
  the frame, so the next access must see either.  A forward only defers
  at opt levels 1-2 and keeps both; at opt level 0 it flushes, and that
  branch fetches ``S`` again and reloads every held local.
* Freshness and held locals carry across a fused jump: a member
  generated in place starts in the state of its one jump, and a block
  entered only by jumps starts as fresh, and holding as many locals, as
  its worst incoming jump.  A block that a message, call or return can
  enter (:attr:`Linkage.entered`, computed once per image) starts at
  best with ``S`` possibly unfetched (``S`` is ``None`` on entry to the
  function) and no locals.  Should a message enter any other member
  anyway (the entry table admits every fragment of the host), it
  dispatches to one shared leaf that runs the component compiled, on
  first use, with that member entered (:class:`_Reentry`).
* A loop block entered with ``S`` fresh, whose jumps back also leave
  ``S`` fresh, loads each variable those jumps hold into its local once,
  before its ``while True:``, so no iteration reads the slot again
  (Work's inner loop reads ``acc`` once per round, not per step).  A
  loop whose body may reach the network, or that a message can enter,
  loads nothing ahead.
* Every plan is generated in place.  A fused ``sync`` goes through
  ``host._do_sync``, and a rejected one ends the chain.  An ``rgoto``
  to its static target host or an ``lgoto`` to the token's host builds
  its :class:`~repro.runtime.network.Message` and sends it through
  ``N.post``, so faults, quarantine and the TCP backend still apply;
  deferred forwards are flushed first (and piggybacked) only while
  ``host.forwards_pending`` says one may be waiting.  A ``halt``
  raises :class:`~repro.runtime.host.HaltSignal`.
* A call syncs its continuation, then routes each argument statically:
  into the callee frame here, onto the callee's ``rgoto``, or into a
  deferred forward.  A return routes its value (``null`` included) by
  the static route of the call site its token names
  (:attr:`Linkage.returns`), then pops the local ICS or ``lgoto``\\ s.
* Java ``/`` and ``%`` truncate toward zero.  By a positive integer
  literal that is one Python ``//`` or ``%`` for a non-negative
  dividend and the same operation on the negated dividend, negated, for
  a negative one; any other divisor derives the truncated quotient from
  the floored one.
* A field placed on the executing host (placement is per ``(cls,
  field)``, for static and object fields alike) is read and written in
  ``host.field_store`` directly, with the write's ``host.durable`` WAL
  record; ``host.read_field`` runs only to give an absent key its
  default.  A field placed elsewhere goes through ``host.read_field``/
  ``host.write_field``, which send the ``getField``/``setField``.
* An operand nested deeper than :data:`_MAX_INLINE_DEPTH` is computed
  by preceding statements that store its operands in temporaries, level
  by level, so a long operator chain stays within CPython's limit on
  nested brackets.

Anything that is not a literal (labels, route tables, the entry index,
the runtime classes) reaches the code through the function's globals.
The function is built with :class:`types.FunctionType`, so it is not
reachable from its own globals and a dropped image frees its compiled
components by refcount.  Each code object's filename is
``<fragments ENTRY ...>``, naming the component's members, so
tracebacks and profiles name the fragments.

``tests/runtime/test_compiled_differential.py`` holds the generated
code bit-identical to :mod:`.reference`.
"""

from __future__ import annotations

import builtins
import types
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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
from .transport.base import Message
from .values import FrameID, ObjectRef

#: ``body(host, entry, fid, token) -> Optional[(entry, fid, token)]``
BodyFn = Callable[[Any, str, FrameID, Any], Any]


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


class Linkage:
    """What the code of every component of one split needs to know
    about the split as a whole; a runtime image computes it once.

    ``entered`` holds the entries a message, call or return can enter:
    the main entry, every ``rgoto`` and ``sync`` target (an ``lgoto``
    resumes at a synced entry), and every callee and continuation.
    ``returns`` maps each continuation of a call with a result to that
    call site's route: (result variable, its label in the caller, the
    hosts that consume it)."""

    __slots__ = ("entered", "returns")

    def __init__(self, split: SplitProgram) -> None:
        entered: Set[str] = set()
        if split.main_entry is not None:
            entered.add(split.main_entry)
        self.returns: Dict[str, Tuple[str, Label, Tuple[str, ...]]] = {}
        for fragment in split.fragments.values():
            for plan in _plans(fragment):
                entered.update(
                    action.entry
                    for action in plan
                    if action.kind in ("sync", "rgoto")
                )
            terminator = fragment.terminator
            if not isinstance(terminator, TermCall):
                continue
            entered.add(terminator.callee_entry)
            entered.add(terminator.cont_entry)
            var = terminator.result_var
            if var is not None:
                labels = split.methods[fragment.method_key].var_labels
                self.returns[terminator.cont_entry] = (
                    var,
                    labels.get(var, Label.constant()),
                    tuple(terminator.result_hosts),
                )
        self.entered: FrozenSet[str] = frozenset(entered)

    def entering(self, entry: str) -> "Linkage":
        """This linkage, with ``entry`` entered as well."""
        linkage = Linkage.__new__(Linkage)
        linkage.entered = self.entered | {entry}
        linkage.returns = self.returns
        return linkage


# ----------------------------------------------------------------------
# Helpers the generated code calls
# ----------------------------------------------------------------------


def _null(what: str):
    raise RuntimeError(f"null dereference in {what}")


def _route(host, token, value, route) -> bool:
    """Send a returned ``value`` (``null`` included) along the ``route``
    of the call site ``token`` names (:attr:`Linkage.returns`); True
    when it rides on the ``lgoto`` instead."""
    var, label, hosts = route
    network = host.network
    rides = False
    for target in hosts:
        if target == host.name:
            host.set_var(token.frame, var, value)
        elif host.opt_level >= 2 and target == token.host:
            # The paper's proposed optimization: piggyback the value.
            rides = True
            network.flow(label, target)
            network.note_eliminated(1)
        else:
            network.flow(label, target)
            network.request(
                Message(
                    "forward",
                    host.name,
                    target,
                    {
                        "vars": {token.frame: {var: value}},
                        "digest": host.split.digest,
                    },
                    data_labels=[label],
                )
            )
    return rides


_HELPERS: Dict[str, Any] = {}


def _helpers() -> Dict[str, Any]:
    """The names every generated function sees (bound on first use:
    the host module imports this one)."""
    if not _HELPERS:
        from .host import HaltSignal

        _HELPERS.update(
            __builtins__=builtins,
            ObjectRef=ObjectRef,
            FrameID=FrameID,
            Message=Message,
            HaltSignal=HaltSignal,
            _null=_null,
            _route=_route,
        )
    return _HELPERS


#: Operators whose Python and Java semantics agree on ints.
_OPERATORS = frozenset(("+", "-", "*", "==", "!=", "<", "<=", ">", ">="))

#: Fetch (and lazily create) the current frame's variable dict.
_FETCH = "host.frames.get(fid) or host.frame(fid)"

#: What the generator knows about ``S`` at a point of the code, ordered
#: so that the state after two paths meet is their minimum: it may be
#: anything, it is ``None`` or the current frame dict, or it is the
#: current frame dict.
_STALE, _MAYBE, _FRESH = 0, 1, 2

#: (what is known about ``S``, the variables held in locals).
_State = Tuple[int, FrozenSet[str]]
_UNFETCHED: _State = (_MAYBE, frozenset())


def _meet(a: _State, b: _State) -> _State:
    fresh = min(a[0], b[0])
    return (fresh, a[1] & b[1] if fresh == _FRESH else frozenset())


#: IR nesting beyond which an operand is computed by statements.  Each
#: IR level adds at most three brackets to its inline source, and
#: CPython's tokenizer rejects more than 200 nested brackets.
_MAX_INLINE_DEPTH = 60


def _depth(expr: ir.IRExpr) -> int:
    # A read of a field placed here through an object nests four
    # brackets, so every object field read counts as two levels.
    level = 2 if isinstance(expr, ir.FieldUse) and expr.obj is not None else 1
    return level + max(map(_depth, ir.children(expr)), default=0)


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------


class _Generator:
    """Emits one component's ``body`` source, tracking in evaluation
    order what is known about ``S`` (:data:`_FRESH`, :data:`_MAYBE`,
    :data:`_STALE`) and which variables its locals hold."""

    def __init__(
        self,
        split: SplitProgram,
        fragments: Sequence[Fragment],
        linkage: Linkage,
    ) -> None:
        self.split = split
        self.fragments = list(fragments)
        self.members = {f.entry: f for f in self.fragments}
        self.host = self.fragments[0].host
        self.linkage = linkage
        self.namespace: Dict[str, Any] = dict(_helpers())
        self.namespace["_digest"] = split.digest
        self.bound: Dict[int, str] = {}
        #: variable name -> the Python local that holds it.
        self.locals: Dict[str, str] = {}
        #: the current block's fragment and lines, without the dispatch
        #: indentation, and the member being generated in it.
        self.root: Optional[Fragment] = None
        self.lines: List[str] = []
        self.fragment: Optional[Fragment] = None
        self.fresh = _STALE
        #: variables whose local equals their slot in ``S``.
        self.held: Set[str] = set()
        #: (target block, state) of the current block's jumps.
        self.jumps: List[Tuple[int, _State]] = []
        #: whether the current block left its inner loop by ``break``.
        self.breaks = False
        self.temps = 0
        self.indent = 0
        self.shape()

    def shape(self) -> None:
        """Which members are blocks and which are generated in place.

        A member with exactly one incoming fused jump, from another
        member, that nothing outside enters is generated at that jump
        (:attr:`inlined`); every other member is a block of the
        dispatch loop (:attr:`block_of`).  A block that jumps back to
        itself, directly or from an in-place member, is a loop
        (:attr:`loops`)."""
        sites: Dict[str, List[str]] = {}
        for fragment in self.fragments:
            for plan in _plans(fragment):
                target = _fused_target(plan)
                if target is not None:
                    sites.setdefault(target, []).append(fragment.entry)
        entered = self.linkage.entered
        #: in-place member -> the member whose jump it is generated at.
        self.inlined: Dict[str, str] = {}
        for fragment in self.fragments:
            entry = fragment.entry
            sources = sites.get(entry, ())
            if entry in entered or len(sources) != 1 or sources[0] == entry:
                continue
            # A ring of such members that nothing else reaches keeps
            # one member as a block.
            if self.root_of(sources[0]) != entry:
                self.inlined[entry] = sources[0]
        self.roots = [f for f in self.fragments if f.entry not in self.inlined]
        self.block_of = {f.entry: i for i, f in enumerate(self.roots)}
        self.loops: Set[str] = {
            target
            for target, sources in sites.items()
            if target in self.block_of
            and any(self.root_of(source) == target for source in sources)
        }

    def root_of(self, entry: str) -> str:
        while entry in self.inlined:
            entry = self.inlined[entry]
        return entry

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def bind(self, value: Any) -> str:
        name = self.bound.get(id(value))
        if name is None:
            name = self.bound[id(value)] = f"_g{len(self.bound)}"
            self.namespace[name] = value
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def local(self, var: str) -> str:
        name = self.locals.get(var)
        if name is None:
            name = self.locals[var] = f"L{len(self.locals)}"
        return name

    # -- what is known about S -------------------------------------------

    def state(self) -> _State:
        return (self.fresh, frozenset(self.held))

    def restore(self, state: _State) -> None:
        self.fresh, held = state
        self.held = set(held)

    def meet(self, state: _State) -> None:
        self.restore(_meet(self.state(), state))

    def stale(self) -> None:
        """Past this point the network may have run: ``S`` and every
        held local may be out of date."""
        self.fresh = _STALE
        self.held.clear()

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

    def is_local_field(self, cls: str, field: str) -> bool:
        placement = self.split.fields.get((cls, field))
        return placement is not None and placement.host == self.host

    def var_label(self, method_key, var: str) -> str:
        plan = self.split.methods[method_key]
        return self.bind(plan.var_labels.get(var, Label.constant()))

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
            after_left = self.state()
            self.indent += 1
            self.emit(f"{t} = bool({self.spill(expr.right)})")
            self.indent -= 1
            self.meet(after_left)
        else:
            self.emit(f"{t} = {self.expr(expr, self.spill)}")
        return t

    def read_var(self, var: str) -> str:
        local = self.local(var)
        if var in self.held:
            return local
        name = repr(var)
        frame = self.frame_expr()
        self.held.add(var)
        return (
            f"({local} := (S[{name}] if {name} in {frame} "
            f"else host.var(fid, {name})))"
        )

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
            return self.read_var(expr.name)
        if isinstance(expr, ir.FieldUse):
            return self.read_field(expr, sub)
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
            self.stale()
            return f"host.read_element({array}, {index})"
        if isinstance(expr, ir.ArrayLen):
            return self.deref(sub(expr.array), "length", "array length")
        if isinstance(expr, ir.DowngradeExpr):
            # declassify/endorse have no run-time cost (Section 2.2).
            return sub(expr.inner)
        raise AssertionError(f"unknown expression {expr!r}")

    def read_field(
        self, expr: ir.FieldUse, sub: Callable[[ir.IRExpr], str]
    ) -> str:
        """A field placed here is read from ``host.field_store``, and
        ``host.read_field`` only gives an absent key its default; any
        other field is read through ``host.read_field``."""
        cls, field = expr.cls, expr.field
        if not self.is_local_field(cls, field):
            oid = "None"
            if expr.obj is not None:
                oid = self.deref(sub(expr.obj), "oid", "field read")
            self.stale()
            return f"host.read_field({cls!r}, {field!r}, {oid})"
        if expr.obj is None:
            key = repr((cls, field, None))
            return (
                f"(host.field_store[{key}] if {key} in host.field_store "
                f"else host.read_field({cls!r}, {field!r}, None))"
            )
        # The key's oid dereferences the object inside the tuple, so
        # this level nests four brackets (see :func:`_depth`).
        k, t = self.temp(), self.temp()
        ref = sub(expr.obj)
        oid = f"{t}.oid if ({t} := {ref}) is not None else _null('field read')"
        return (
            f"(host.field_store[{k}] if ({k} := ({cls!r}, {field!r}, {oid})) "
            f"in host.field_store else host.read_field(*{k}))"
        )

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
        divisor = expr.right
        if (
            op in ("/", "%")
            and isinstance(divisor, ir.Const)
            and type(divisor.value) is int
            and divisor.value > 0
        ):
            # One floor operation for a non-negative dividend, mirrored
            # for a negative one, which Java truncates toward zero.
            a = self.temp()
            py = "//" if op == "/" else "%"
            c = divisor.value
            return f"({a} {py} {c} if ({a} := {left}) >= 0 else -(-{a} {py} {c}))"
        if op in ("&&", "||"):
            # The right operand may not run: afterwards S and the locals
            # are known only as well as on the worse of the two paths.
            after_left = self.state()
            right = sub(expr.right)
            self.meet(after_left)
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
            local = self.local(op.var)
            self.emit(f"{local} = {value}")
            self.frame_stmt()
            name = repr(op.var)
            self.emit(f"S[{name}] = {local}")
            self.emit(f"if D is not None: D.log('var', fid, {name}, {local})")
            self.held.add(op.var)
        elif isinstance(op, OpSetField):
            (value,) = self.operands(op.expr)
            self.emit(f"v = {value}")
            target = f"{op.cls!r}, {op.field!r}"
            oid = "None"
            if op.obj is not None:
                (ref,) = self.operands(op.obj)
                self.emit(f"r = {ref}")
                self.emit("if r is None: _null('field write')")
                oid = "r.oid"
            if self.is_local_field(op.cls, op.field):
                # A field placed here: the store write and its WAL record.
                self.emit(f"k = ({target}, {oid})")
                self.emit("host.field_store[k] = v")
                self.emit("if D is not None: D.log('field', k, v)")
            else:
                self.emit(f"host.write_field({target}, {oid}, v)")
                self.stale()
        elif isinstance(op, OpSetElem):
            args = ", ".join(self.operands(op.array, op.index, op.expr))
            self.emit(f"host.write_element({args})")
            self.stale()
        elif isinstance(op, OpForward):
            # Reading the variable leaves ``S`` fresh.  Only opt level 0
            # flushes, and so reaches the network, here: that branch
            # fetches ``S`` again and reloads the held locals.
            self.emit(f"v = {self.read_var(op.var)}")
            label = self.var_label(self.fragment.method_key, op.var)
            for target in op.hosts:
                if target != self.host:
                    self.emit(
                        f"host.defer_forward({target!r}, fid, {op.var!r}, v,"
                        f" {label})"
                    )
            self.emit("if host.opt_level == 0:")
            self.indent += 1
            self.emit("host.flush_forwards(None)")
            self.emit(f"S = {_FETCH}")
            for var in sorted(self.held):
                name = repr(var)
                self.emit(
                    f"{self.local(var)} = S[{name}] if {name} in S "
                    f"else host.var(fid, {name})"
                )
            self.indent -= 1
        else:
            raise AssertionError(f"unknown op {op!r}")

    # -- plans -----------------------------------------------------------

    def plan(self, plan: EdgePlan) -> None:
        """A plan in place: its syncs chain the token and a rejected one
        ends the chain; then a fused jump, a transfer or a halt."""
        token = "token"
        for action in plan:
            kind = action.kind
            if kind == "sync":
                sync = f"host._do_sync({action.entry!r}, fid, {token})"
                self.emit(f"tok = {sync}")
                self.emit("if tok is None: return None")
                token = "tok"
                self.stale()
            elif kind == "local":
                if token != "token":
                    self.emit(f"token = {token}")
                self.jump(action.entry)
                return
            elif kind == "rgoto":
                self.rgoto(action.entry, "fid", token)
                return
            elif kind == "lgoto":
                if token == "token":
                    self.emit("tok = token")
                    self.emit("if tok is None: raise HaltSignal()")
                self.lgoto()
                return
            elif kind == "halt":
                self.emit("raise HaltSignal()")
                return
            else:
                raise AssertionError(f"unknown plan action {action!r}")
        self.emit("return None")

    def jump(self, entry: str) -> None:
        """A fused jump: the target in place if it is generated here,
        ``continue`` back to the start of the current loop block, or
        on to the target's block through the dispatcher."""
        if entry in self.inlined:
            self.fragment_code(self.members[entry])
            return
        block = self.block_of[entry]
        self.jumps.append((block, self.state()))
        if entry == self.root.entry:
            self.emit("continue")
            return
        self.emit(f"e = {block}")
        if self.root.entry in self.loops:
            self.breaks = True
            self.emit("break")
        else:
            self.emit("continue")

    def rgoto(
        self, entry: str, frame: str, token: str, carried: str = ""
    ) -> None:
        """Flush deferred forwards (those for the target ride along),
        then post the ``rgoto``; ``carried`` adds the callee frame's
        arguments to the data."""
        target = self.split.entry_host(entry)
        self.emit(
            f"pb = host.flush_forwards({target!r}) "
            "if host.forwards_pending else None"
        )
        data = "pb or {}"
        if carried:
            self.emit("pb = pb or {}")
            self.emit(f"pb[{frame}] = {{{carried}}}")
            data = "pb"
        payload = (
            f"{{'entry': {entry!r}, 'frame': {frame}, 'token': {token}, "
            f"'vars': {data}, 'digest': _digest}}"
        )
        self.emit(
            f"N.post(Message('rgoto', {self.host!r}, {target!r}, {payload}))"
        )
        self.emit("return None")

    def lgoto(self, result: bool = False) -> None:
        """Consume ``tok`` (not ``None``): flush deferred forwards (those
        for its host ride along) and post the ``lgoto``; ``result`` adds
        a piggybacked return value."""
        self.emit(
            "pb = host.flush_forwards(tok.host) "
            "if host.forwards_pending else None"
        )
        data = "pb or {}"
        if result:
            self.emit("pb = pb or {}")
            self.emit("if rp: pb.setdefault(tok.frame, {})[route[0]] = r")
            data = "pb"
        payload = f"{{'token': tok, 'vars': {data}, 'digest': _digest}}"
        self.emit(
            f"N.post(Message('lgoto', {self.host!r}, tok.host, {payload}))"
        )
        self.emit("return None")

    # -- terminators -----------------------------------------------------

    def terminator(self, terminator) -> None:
        if isinstance(terminator, TermJump):
            self.plan(terminator.plan)
        elif isinstance(terminator, TermBranch):
            (cond,) = self.operands(terminator.cond)
            self.emit(f"if {cond}:")
            state = self.state()
            self.indent += 1
            self.plan(terminator.plan_true)
            self.indent -= 1
            self.restore(state)
            self.plan(terminator.plan_false)
        elif isinstance(terminator, TermCall):
            self.call(terminator)
        elif isinstance(terminator, TermReturn):
            self.ret(terminator)
        elif isinstance(terminator, TermHalt):
            self.emit("raise HaltSignal()")
        else:
            raise AssertionError(f"unknown terminator {terminator!r}")

    def call(self, terminator: TermCall) -> None:
        """Evaluate the arguments, sync the continuation, make the
        callee frame and route each argument to the hosts that read the
        parameter — never to hosts that merely run other callee code."""
        values = self.operands(*(expr for _, expr in terminator.args))
        for i, value in enumerate(values):
            self.emit(f"a{i} = {value}")
        cont = f"host._do_sync({terminator.cont_entry!r}, fid, token)"
        self.emit(f"tok = {cont}")
        self.emit("if tok is None: return None")
        self.stale()
        self.emit(f"cf = FrameID({terminator.callee_key!r})")
        callee_host = self.split.entry_host(terminator.callee_entry)
        carried = []
        for i, (param, _) in enumerate(terminator.args):
            targets = terminator.arg_hosts.get(param, ())
            if not targets:
                continue
            label = self.var_label(terminator.callee_key, param)
            for target in targets:
                if target == self.host:
                    self.emit(f"host.set_var(cf, {param!r}, a{i})")
                elif target == callee_host:
                    carried.append(f"{param!r}: a{i}")
                    self.emit(f"N.flow({label}, {target!r})")
                else:
                    self.emit(
                        f"host.defer_forward({target!r}, cf, {param!r}, a{i},"
                        f" {label})"
                    )
        if callee_host == self.host:
            self.emit(f"return ({terminator.callee_entry!r}, cf, tok)")
            return
        self.rgoto(
            terminator.callee_entry, "cf", "tok", carried=", ".join(carried)
        )

    def ret(self, terminator: TermReturn) -> None:
        """Route the value by the call site the token names, then pop
        the local ICS or ``lgoto`` the caller's host."""
        value = "None"
        if terminator.expr is not None:
            (value,) = self.operands(terminator.expr)
        self.emit(f"r = {value}")
        self.emit("tok = token")
        self.emit("if tok is None: raise HaltSignal()")
        self.namespace["_returns"] = self.linkage.returns
        self.emit("route = _returns.get(tok.entry)")
        self.emit("rp = route is not None and _route(host, tok, r, route)")
        here = repr(self.host)
        for line in (
            f"if tok.host == {here}:",
            "    p = host.stack.pop_if_top(tok)",
            "    if p is None:",
            f"        N.audit({here}, 'local lgoto with stale token')",
            "        return None",
            "    if D is not None: D.log('pop')",
            "    if p[0] is None: raise HaltSignal()",
            "    return (tok.entry, tok.frame, p[0])",
        ):
            self.emit(line)
        self.stale()
        self.lgoto(result=True)

    # -- blocks and dispatch ---------------------------------------------

    def fragment_code(self, fragment: Fragment) -> None:
        """One member's charge, ops and terminator, at the current
        point; the members it jumps to in place follow inside it."""
        self.fragment = fragment
        ops = len(fragment.ops) + 1
        # ``1 * C`` is exactly ``C``.
        self.emit(f"N.clock += {ops} * C" if ops > 1 else "N.clock += C")
        for op in fragment.ops:
            self.op(op)
        self.terminator(fragment.terminator)

    def block(
        self, fragment: Fragment, state: _State
    ) -> Tuple[List[str], _State]:
        """One block, entered in ``state`` by every jump from outside it,
        with its in-place members, and the state its code starts in.

        A loop block is an inner ``while True:`` whose jumps back to it
        continue it and whose other fused jumps break out to the
        dispatcher; the loop starts as fresh, and holding as many
        locals, as both ``state`` and its jumps back.  If ``S`` is fresh
        both on entry and on every jump back, each variable a jump back
        holds is loaded once before the loop, so the loop starts holding
        it.  The block's other jumps are left in :attr:`jumps`."""
        if fragment.entry not in self.loops:
            return self.block_code(fragment, state, state), state
        head = state
        lines = self.block_code(fragment, state, head)
        back = self.jumps_back()
        if state[0] == _FRESH and back[0] == _FRESH:
            head = (_FRESH, state[1] | back[1])
            lines = self.block_code(fragment, state, head)
            back = self.jumps_back()
        while _meet(head, back) != head:
            head = _meet(head, back)
            lines = self.block_code(fragment, state, head)
            back = self.jumps_back()
        return lines, (state if head[1] - state[1] else head)

    def jumps_back(self) -> _State:
        """Take the current loop block's jumps back to itself out of
        :attr:`jumps`; the meet of their states."""
        block = self.block_of[self.root.entry]
        back = [state for target, state in self.jumps if target == block]
        self.jumps = [jump for jump in self.jumps if jump[0] != block]
        state = back[0]
        for other in back[1:]:
            state = _meet(state, other)
        return state

    def block_code(
        self, fragment: Fragment, state: _State, head: _State
    ) -> List[str]:
        """The lines of :meth:`block` for a loop that starts in ``head``,
        after loading what ``head`` holds beyond ``state``."""
        self.root = fragment
        self.lines, self.jumps = [], []
        self.breaks = False
        self.temps = 0
        loop = fragment.entry in self.loops
        if loop:
            for var in sorted(head[1] - state[1]):
                name = repr(var)
                self.emit(
                    f"{self.local(var)} = S[{name}] if {name} in S "
                    f"else host.var(fid, {name})"
                )
            self.emit("while True:")
            self.indent += 1
        self.restore(head)
        self.fragment_code(fragment)
        if loop:
            self.indent -= 1
            if self.breaks:
                self.emit("continue")
        return self.lines

    def blocks(self) -> Tuple[List[List[str]], List[_State]]:
        """Every block and the state its code starts in.  A block that
        something outside can enter is entered at :data:`_UNFETCHED`,
        any other at the meet of the jumps into it from other blocks; a
        block whose entry state drops is generated again.  A block
        nothing reaches is generated as if entered from outside."""
        entered = self.linkage.entered
        count = len(self.roots)
        states: List[Optional[_State]] = [
            _UNFETCHED if fragment.entry in entered else None
            for fragment in self.roots
        ]
        code: List[Optional[List[str]]] = [None] * count
        starts: List[Optional[_State]] = [None] * count
        todo = [i for i in range(count) if states[i] is not None]
        while True:
            while todo:
                i = todo.pop(0)
                code[i], starts[i] = self.block(self.roots[i], states[i])
                for target, state in self.jumps:
                    old = states[target]
                    new = state if old is None else _meet(old, state)
                    if new != old:
                        states[target] = new
                        if target not in todo:
                            todo.append(target)
            missing = [i for i in range(count) if code[i] is None]
            if not missing:
                return code, starts
            states[missing[0]] = _UNFETCHED
            todo.append(missing[0])

    def source(self) -> str:
        """The function's source.  A member that a message can enter
        although :class:`Linkage` says nothing does (one generated in
        place, or a block that expects ``S`` fresh) dispatches to one
        shared leaf, which runs the body compiled for entering it
        (:class:`_Reentry`)."""
        code, starts = self.blocks()
        index = {}
        reentry = len(code)
        for fragment in self.fragments:
            entry = fragment.entry
            block = self.block_of.get(entry)
            if block is not None and starts[block][0] != _FRESH:
                index[entry] = block
            else:
                index[entry] = reentry
        if reentry in index.values():
            self.namespace["_reenter"] = _Reentry(
                self.split, self.fragments, self.linkage
            )
            code.append(["return _reenter(host, entry, fid, token)"])
        lines = [
            "def body(host, entry, fid, token):",
            "    N = host.network",
            "    C = N.cost.op_cost",
            "    D = host.durable",
            "    S = None",
        ]
        if len(code) > 1:
            self.namespace["_index"] = index
            lines.append("    e = _index[entry]")
        lines.append("    while True:")

        def dispatch(lo: int, hi: int, depth: int) -> None:
            # Every block ends in continue, return or raise, or is a
            # loop only those leave, so the right half needs no else.
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


class _Reentry:
    """Enters a component at a member its body has no entry block for.

    Only a message the protocol never sends does that, because the
    entry table admits every fragment of a host.  The body for entering
    at ``entry`` is the component compiled as if :class:`Linkage`
    listed ``entry`` as entered; it is compiled on first use and kept
    here, so the main body carries no second copy of any block."""

    __slots__ = ("split", "fragments", "linkage", "bodies")

    def __init__(
        self,
        split: SplitProgram,
        fragments: Sequence[Fragment],
        linkage: Linkage,
    ) -> None:
        self.split = split
        self.fragments = fragments
        self.linkage = linkage
        self.bodies: Dict[str, BodyFn] = {}

    def __call__(self, host, entry: str, fid: FrameID, token):
        body = self.bodies.get(entry)
        if body is None:
            body = self.bodies[entry] = compile_component(
                self.split, self.fragments, self.linkage.entering(entry)
            )
        return body(host, entry, fid, token)


def generate(
    split: SplitProgram,
    fragments: Sequence[Fragment],
    linkage: Optional[Linkage] = None,
) -> Tuple[str, Dict[str, Any]]:
    """The source of the ``body`` of the component ``fragments`` of
    ``split`` (see :func:`component`) and the globals it runs in;
    ``linkage`` defaults to the split's own."""
    generator = _Generator(split, fragments, linkage or Linkage(split))
    return generator.source(), generator.namespace


def compile_component(
    split: SplitProgram,
    fragments: Sequence[Fragment],
    linkage: Optional[Linkage] = None,
) -> BodyFn:
    """Compile the component ``fragments`` of ``split`` to its
    ``body(host, entry, fid, token)`` function."""
    source, namespace = generate(split, fragments, linkage)
    entries = " ".join(fragment.entry for fragment in fragments)
    module = compile(source, f"<fragments {entries}>", "exec")
    (code,) = [c for c in module.co_consts if isinstance(c, types.CodeType)]
    return types.FunctionType(code, namespace, "body")
