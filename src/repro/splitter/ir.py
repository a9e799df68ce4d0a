"""Intermediate representation used by the splitter.

The checker's AST is lowered to a *structured* IR whose unit of host
placement is the simple statement (Section 4: "assign a host to each
field, method, and program statement").  Every simple statement and
every branch/loop guard carries:

* the labels the splitter's static constraints need — ``pc``, the join
  of used labels ``L_in``, the meet of defined labels ``L_out``;
* use/def sets of locals and fields (for data forwarding and ``I_e``);
* the principals whose authority its downgrades use (for ``I_P``).

Expressions inside a simple statement always execute on that statement's
host; reads of fields stored elsewhere become ``getField`` calls at run
time.  Method calls never nest inside expressions — lowering flattens
them to :class:`CallStmt` with temporaries.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..labels import IntegLabel, Label, Principal
from ..lang.errors import SourcePosition

# ---------------------------------------------------------------------------
# Expressions (pure, call-free)
# ---------------------------------------------------------------------------


class IRExpr:
    __slots__ = ()


class Const(IRExpr):
    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class VarUse(IRExpr):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"VarUse({self.name})"


class FieldUse(IRExpr):
    """A field read; ``obj`` is None for fields of the program instance."""

    __slots__ = ("cls", "field", "obj")

    def __init__(self, cls: str, field: str, obj: Optional[IRExpr]) -> None:
        self.cls = cls
        self.field = field
        self.obj = obj

    def __repr__(self) -> str:
        return f"FieldUse({self.cls}.{self.field}, obj={self.obj!r})"


class BinOp(IRExpr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: IRExpr, right: IRExpr) -> None:
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"BinOp({self.op}, {self.left!r}, {self.right!r})"


class UnOp(IRExpr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: IRExpr) -> None:
        self.op = op
        self.operand = operand

    def __repr__(self) -> str:
        return f"UnOp({self.op}, {self.operand!r})"


class NewObj(IRExpr):
    __slots__ = ("cls",)

    def __init__(self, cls: str) -> None:
        self.cls = cls

    def __repr__(self) -> str:
        return f"NewObj({self.cls})"


class NewArr(IRExpr):
    """Array allocation; the elements live on the allocating host and
    carry ``label`` (used for the run-time access control checks)."""

    __slots__ = ("length", "label")

    def __init__(self, length: IRExpr, label: Label) -> None:
        self.length = length
        self.label = label

    def __repr__(self) -> str:
        return f"NewArr({self.length!r})"


class ArrayUse(IRExpr):
    """An element read ``xs[i]``."""

    __slots__ = ("array", "index")

    def __init__(self, array: IRExpr, index: IRExpr) -> None:
        self.array = array
        self.index = index

    def __repr__(self) -> str:
        return f"ArrayUse({self.array!r}, {self.index!r})"


class ArrayLen(IRExpr):
    __slots__ = ("array",)

    def __init__(self, array: IRExpr) -> None:
        self.array = array

    def __repr__(self) -> str:
        return f"ArrayLen({self.array!r})"


class DowngradeExpr(IRExpr):
    """A declassify/endorse — label-only at run time, but its authority
    matters for host selection and entry-point integrity."""

    __slots__ = ("kind", "inner", "label", "authority")

    def __init__(
        self,
        kind: str,
        inner: IRExpr,
        label: Label,
        authority: FrozenSet[Principal],
    ) -> None:
        self.kind = kind  # "declassify" | "endorse"
        self.inner = inner
        self.label = label
        self.authority = authority

    def __repr__(self) -> str:
        return f"DowngradeExpr({self.kind}, {self.inner!r})"


def children(expr: IRExpr) -> Tuple[IRExpr, ...]:
    """``expr``'s operands, in evaluation order."""
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    if isinstance(expr, UnOp):
        return (expr.operand,)
    if isinstance(expr, DowngradeExpr):
        return (expr.inner,)
    if isinstance(expr, FieldUse):
        return () if expr.obj is None else (expr.obj,)
    if isinstance(expr, NewArr):
        return (expr.length,)
    if isinstance(expr, ArrayUse):
        return (expr.array, expr.index)
    if isinstance(expr, ArrayLen):
        return (expr.array,)
    return ()


def walk_expr(expr: IRExpr):
    """Yield every node of an expression tree."""
    yield expr
    for child in children(expr):
        yield from walk_expr(child)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

_counter = itertools.count()


class StmtInfo:
    """Security annotations shared by every placeable statement."""

    __slots__ = (
        "uid",
        "pc",
        "l_in",
        "l_out",
        "used_vars",
        "defined_vars",
        "used_fields",
        "defined_fields",
        "downgrade_principals",
        "pos",
        "loop_depth",
    )

    _BOTTOM: Optional[Label] = None
    _NO_POS = SourcePosition(0, 0)
    _NO_PRINCIPALS: FrozenSet[Principal] = frozenset()

    def __init__(self) -> None:
        bottom = StmtInfo._BOTTOM
        if bottom is None:
            bottom = StmtInfo._BOTTOM = Label.constant()
        self.uid = next(_counter)
        self.pc: Label = bottom
        self.l_in: Label = bottom
        self.l_out: Optional[Label] = None  # None = defines nothing (⊤ meet)
        self.used_vars: Set[str] = set()
        self.defined_vars: Set[str] = set()
        self.used_fields: Set[Tuple[str, str]] = set()
        self.defined_fields: Set[Tuple[str, str]] = set()
        self.downgrade_principals = StmtInfo._NO_PRINCIPALS
        self.pos: SourcePosition = StmtInfo._NO_POS
        self.loop_depth: int = 0

    @property
    def authority_integ(self) -> IntegLabel:
        """``I_P`` for this statement's downgrades (untrusted when none)."""
        if not self.downgrade_principals:
            return IntegLabel.untrusted()
        return IntegLabel(self.downgrade_principals)


class IRStmt:
    __slots__ = ("info",)

    def __init__(self) -> None:
        self.info = StmtInfo()


class AssignVar(IRStmt):
    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: IRExpr) -> None:
        super().__init__()
        self.var = var
        self.expr = expr

    def __repr__(self) -> str:
        return f"AssignVar({self.var} = {self.expr!r})"


class AssignField(IRStmt):
    __slots__ = ("cls", "field", "obj", "expr")

    def __init__(
        self, cls: str, field: str, obj: Optional[IRExpr], expr: IRExpr
    ) -> None:
        super().__init__()
        self.cls = cls
        self.field = field
        self.obj = obj
        self.expr = expr

    def __repr__(self) -> str:
        return f"AssignField({self.cls}.{self.field} = {self.expr!r})"


class AssignElem(IRStmt):
    """``xs[i] = e`` — an array element write."""

    __slots__ = ("array", "index", "expr", "label")

    def __init__(
        self, array: IRExpr, index: IRExpr, expr: IRExpr, label: Label
    ) -> None:
        super().__init__()
        self.array = array
        self.index = index
        self.expr = expr
        self.label = label

    def __repr__(self) -> str:
        return f"AssignElem({self.array!r}[{self.index!r}] = {self.expr!r})"


class CallStmt(IRStmt):
    """``result = method(args)`` — flattened to statement level."""

    __slots__ = ("result", "cls", "method", "args")

    def __init__(
        self,
        result: Optional[str],
        cls: str,
        method: str,
        args: Sequence[IRExpr],
    ) -> None:
        super().__init__()
        self.result = result
        self.cls = cls
        self.method = method
        self.args = list(args)

    def __repr__(self) -> str:
        return f"CallStmt({self.result} = {self.cls}.{self.method}(...))"


class ReturnStmt(IRStmt):
    __slots__ = ("expr",)

    def __init__(self, expr: Optional[IRExpr]) -> None:
        super().__init__()
        self.expr = expr

    def __repr__(self) -> str:
        return f"ReturnStmt({self.expr!r})"


class IfStmt(IRStmt):
    """The guard evaluation is the placeable part; the branches are
    nested statement lists (the info describes the guard)."""

    __slots__ = ("cond", "then_body", "else_body")

    def __init__(
        self, cond: IRExpr, then_body: List[IRStmt], else_body: List[IRStmt]
    ) -> None:
        super().__init__()
        self.cond = cond
        self.then_body = then_body
        self.else_body = else_body

    def __repr__(self) -> str:
        return f"IfStmt({self.cond!r})"


class WhileStmt(IRStmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: IRExpr, body: List[IRStmt]) -> None:
        super().__init__()
        self.cond = cond
        self.body = body

    def __repr__(self) -> str:
        return f"WhileStmt({self.cond!r})"


class IRMethod:
    """A lowered method: parameters, locals, and a structured body."""

    __slots__ = (
        "cls",
        "name",
        "params",
        "locals",
        "var_bases",
        "body",
        "begin_label",
        "return_label",
        "return_base",
        "authority",
    )

    def __init__(self, cls: str, name: str) -> None:
        self.cls = cls
        self.name = name
        self.params: List[str] = []
        self.locals: Dict[str, Label] = {}
        #: base type of every local/param/temp ("int", "boolean", or a class).
        self.var_bases: Dict[str, str] = {}
        self.body: List[IRStmt] = []
        self.begin_label: Label = Label.constant()
        self.return_label: Label = Label.constant()
        self.return_base: str = "void"
        self.authority: FrozenSet[Principal] = frozenset()

    @property
    def key(self) -> Tuple[str, str]:
        return (self.cls, self.name)

    def __repr__(self) -> str:
        return f"IRMethod({self.cls}.{self.name})"


class IRProgram:
    """All lowered methods plus field metadata, ready for splitting."""

    def __init__(self) -> None:
        self.methods: Dict[Tuple[str, str], IRMethod] = {}
        self.main_key: Optional[Tuple[str, str]] = None

    def method(self, cls: str, name: str) -> IRMethod:
        return self.methods[(cls, name)]

    @property
    def main(self) -> IRMethod:
        if self.main_key is None:
            raise KeyError("program has no main method")
        return self.methods[self.main_key]


def walk_stmts(stmts: Sequence[IRStmt]):
    """Yield every statement, recursing into branches and loop bodies."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, IfStmt):
            yield from walk_stmts(stmt.then_body)
            yield from walk_stmts(stmt.else_body)
        elif isinstance(stmt, WhileStmt):
            yield from walk_stmts(stmt.body)
