"""Abstract syntax for the mini-Jif language.

The subset mirrors what the paper's example programs need (Figure 2 and
the Section 7.1 benchmarks): a set of classes with labeled fields and
methods, structured control flow, and the security-specific constructs
``declassify``, ``endorse``, ``authority`` clauses, and method pc bounds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..labels import Label, Principal
from .errors import NO_POSITION, SourcePosition


class Node:
    """Base class of all AST nodes."""

    __slots__ = ("pos",)

    def __init__(self, pos: Optional[SourcePosition] = None) -> None:
        self.pos = pos or NO_POSITION

    def __repr__(self) -> str:
        return f"{type(self).__name__}"


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

PRIMITIVE_BASES = ("int", "boolean", "void")


class TypeNode(Node):
    """A possibly-labeled type: ``int{Alice:; ?:Alice}`` or ``Node{Bob:}``.

    ``label`` is ``None`` when the programmer omitted it, in which case the
    checker infers it (Section 2.1: "the label component is automatically
    inferred").
    """

    __slots__ = ("base", "label")

    def __init__(
        self,
        base: str,
        label: Optional[Label] = None,
        pos: Optional[SourcePosition] = None,
    ) -> None:
        super().__init__(pos)
        self.base = base
        self.label = label

    @property
    def is_reference(self) -> bool:
        return self.base not in PRIMITIVE_BASES

    def __str__(self) -> str:
        return f"{self.base}{self.label}" if self.label is not None else self.base

    def __repr__(self) -> str:
        return f"TypeNode({str(self)})"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, pos=None) -> None:
        super().__init__(pos)
        self.value = value

    def __repr__(self) -> str:
        return f"IntLit({self.value})"


class BoolLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: bool, pos=None) -> None:
        super().__init__(pos)
        self.value = value

    def __repr__(self) -> str:
        return f"BoolLit({self.value})"


class NullLit(Expr):
    __slots__ = ()

    def __repr__(self) -> str:
        return "NullLit()"


class Var(Expr):
    """A read of a local variable or parameter."""

    __slots__ = ("name",)

    def __init__(self, name: str, pos=None) -> None:
        super().__init__(pos)
        self.name = name

    def __repr__(self) -> str:
        return f"Var({self.name})"


class FieldAccess(Expr):
    """A field read: ``f`` / ``this.f`` (target None) or ``e.f``."""

    __slots__ = ("target", "field")

    def __init__(self, target: Optional[Expr], field: str, pos=None) -> None:
        super().__init__(pos)
        self.target = target
        self.field = field

    def __repr__(self) -> str:
        return f"FieldAccess({self.target!r}, {self.field})"


ARITH_OPS = ("+", "-", "*", "/", "%")
COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")
LOGIC_OPS = ("&&", "||")


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, pos=None) -> None:
        super().__init__(pos)
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"Binary({self.op}, {self.left!r}, {self.right!r})"


class Unary(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, pos=None) -> None:
        super().__init__(pos)
        self.op = op
        self.operand = operand

    def __repr__(self) -> str:
        return f"Unary({self.op}, {self.operand!r})"


class Call(Expr):
    """A call of a method in the same class: ``transfer(n)``."""

    __slots__ = ("method", "args")

    def __init__(self, method: str, args: Sequence[Expr], pos=None) -> None:
        super().__init__(pos)
        self.method = method
        self.args = list(args)

    def __repr__(self) -> str:
        return f"Call({self.method}, {self.args!r})"


class New(Expr):
    """Allocation of a fresh object: ``new Node()``."""

    __slots__ = ("class_name",)

    def __init__(self, class_name: str, pos=None) -> None:
        super().__init__(pos)
        self.class_name = class_name

    def __repr__(self) -> str:
        return f"New({self.class_name})"


class NewArray(Expr):
    """Allocation of an integer array: ``new int[n]``.

    The element label is adopted from the annotated array type the
    allocation flows into (array types are invariant in their element
    label, like Java's).
    """

    __slots__ = ("length",)

    def __init__(self, length: Expr, pos=None) -> None:
        super().__init__(pos)
        self.length = length

    def __repr__(self) -> str:
        return f"NewArray({self.length!r})"


class ArrayAccess(Expr):
    """An element read (or write target): ``xs[i]``."""

    __slots__ = ("array", "index")

    def __init__(self, array: Expr, index: Expr, pos=None) -> None:
        super().__init__(pos)
        self.array = array
        self.index = index

    def __repr__(self) -> str:
        return f"ArrayAccess({self.array!r}, {self.index!r})"


class ArrayLength(Expr):
    """``xs.length`` — the (public-relative-to-the-array) element count."""

    __slots__ = ("array",)

    def __init__(self, array: Expr, pos=None) -> None:
        super().__init__(pos)
        self.array = array

    def __repr__(self) -> str:
        return f"ArrayLength({self.array!r})"


class Declassify(Expr):
    """``declassify(e, L)`` — weaken confidentiality using authority."""

    __slots__ = ("expr", "label")

    def __init__(self, expr: Expr, label: Label, pos=None) -> None:
        super().__init__(pos)
        self.expr = expr
        self.label = label

    def __repr__(self) -> str:
        return f"Declassify({self.expr!r}, {self.label})"


class Endorse(Expr):
    """``endorse(e, L)`` — strengthen integrity using authority."""

    __slots__ = ("expr", "label")

    def __init__(self, expr: Expr, label: Label, pos=None) -> None:
        super().__init__(pos)
        self.expr = expr
        self.label = label

    def __repr__(self) -> str:
        return f"Endorse({self.expr!r}, {self.label})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: Sequence[Stmt], pos=None) -> None:
        super().__init__(pos)
        self.stmts = list(stmts)

    def __repr__(self) -> str:
        return f"Block({self.stmts!r})"


class VarDecl(Stmt):
    __slots__ = ("type", "name", "init")

    def __init__(
        self, type_: TypeNode, name: str, init: Optional[Expr], pos=None
    ) -> None:
        super().__init__(pos)
        self.type = type_
        self.name = name
        self.init = init

    def __repr__(self) -> str:
        return f"VarDecl({self.type!r}, {self.name}, {self.init!r})"


class Assign(Stmt):
    """``x = e;`` or ``f = e;`` / ``e.f = e;`` (target a Var/FieldAccess)."""

    __slots__ = ("target", "value")

    def __init__(self, target: Expr, value: Expr, pos=None) -> None:
        super().__init__(pos)
        self.target = target
        self.value = value

    def __repr__(self) -> str:
        return f"Assign({self.target!r}, {self.value!r})"


class If(Stmt):
    __slots__ = ("cond", "then_branch", "else_branch")

    def __init__(
        self,
        cond: Expr,
        then_branch: Stmt,
        else_branch: Optional[Stmt],
        pos=None,
    ) -> None:
        super().__init__(pos)
        self.cond = cond
        self.then_branch = then_branch
        self.else_branch = else_branch

    def __repr__(self) -> str:
        return f"If({self.cond!r}, {self.then_branch!r}, {self.else_branch!r})"


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt, pos=None) -> None:
        super().__init__(pos)
        self.cond = cond
        self.body = body

    def __repr__(self) -> str:
        return f"While({self.cond!r}, {self.body!r})"


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr], pos=None) -> None:
        super().__init__(pos)
        self.value = value

    def __repr__(self) -> str:
        return f"Return({self.value!r})"


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, pos=None) -> None:
        super().__init__(pos)
        self.expr = expr

    def __repr__(self) -> str:
        return f"ExprStmt({self.expr!r})"


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class FieldDecl(Node):
    __slots__ = ("type", "name", "init")

    def __init__(
        self, type_: TypeNode, name: str, init: Optional[Expr], pos=None
    ) -> None:
        super().__init__(pos)
        self.type = type_
        self.name = name
        self.init = init

    def __repr__(self) -> str:
        return f"FieldDecl({self.type!r}, {self.name})"


class Param(Node):
    __slots__ = ("type", "name")

    def __init__(self, type_: TypeNode, name: str, pos=None) -> None:
        super().__init__(pos)
        self.type = type_
        self.name = name

    def __repr__(self) -> str:
        return f"Param({self.type!r}, {self.name})"


class MethodDecl(Node):
    """A method with optional pc bounds and authority clause.

    ``int{Bob:} transfer{?:Alice}(int{Bob:} n) where authority(Alice): {F}``
    — ``begin_label`` bounds the caller's pc, ``end_label`` bounds the pc
    on exit (Section 2.4).
    """

    __slots__ = (
        "return_type",
        "name",
        "begin_label",
        "params",
        "authority",
        "end_label",
        "body",
    )

    def __init__(
        self,
        return_type: TypeNode,
        name: str,
        begin_label: Optional[Label],
        params: Sequence[Param],
        authority: Sequence[Principal],
        end_label: Optional[Label],
        body: Block,
        pos=None,
    ) -> None:
        super().__init__(pos)
        self.return_type = return_type
        self.name = name
        self.begin_label = begin_label
        self.params = list(params)
        self.authority = list(authority)
        self.end_label = end_label
        self.body = body

    def __repr__(self) -> str:
        return f"MethodDecl({self.name})"


class ClassDecl(Node):
    __slots__ = ("name", "authority", "fields", "methods")

    def __init__(
        self,
        name: str,
        authority: Sequence[Principal],
        fields: Sequence[FieldDecl],
        methods: Sequence[MethodDecl],
        pos=None,
    ) -> None:
        super().__init__(pos)
        self.name = name
        self.authority = list(authority)
        self.fields = list(fields)
        self.methods = list(methods)

    def field(self, name: str) -> Optional[FieldDecl]:
        for field in self.fields:
            if field.name == name:
                return field
        return None

    def method(self, name: str) -> Optional[MethodDecl]:
        for method in self.methods:
            if method.name == name:
                return method
        return None

    def __repr__(self) -> str:
        return f"ClassDecl({self.name})"


class Program(Node):
    __slots__ = ("classes", "source_digest")

    def __init__(self, classes: Sequence[ClassDecl], pos=None) -> None:
        super().__init__(pos)
        self.classes = list(classes)
        #: SHA-256 of the source text, set by ``parse_program``; None for
        #: an AST built any other way (the split cache stands aside).
        self.source_digest: Optional[str] = None

    def class_named(self, name: str) -> Optional[ClassDecl]:
        for cls in self.classes:
            if cls.name == name:
                return cls
        return None

    def __repr__(self) -> str:
        return f"Program({[c.name for c in self.classes]})"
