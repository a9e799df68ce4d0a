"""Security type checking for mini-Jif (Sections 2 and 4.2–4.3).

The checker has two phases:

1. **Inference** — labels omitted by the programmer (locals, params,
   returns, fields, method begin-labels) are inferred by a monotone
   fixpoint over the whole program: every flow into an inferable location
   joins the flowing label into it, until nothing changes.  This is the
   label inference the paper attributes to the Jif front end.

2. **Checking** — a second walk enforces every constraint: assignments
   and field writes, implicit flows via the ``pc`` label, method pc
   bounds, return labels, declassification/endorsement authority and the
   paper's integrity constraint ``I(pc) ⊑ I_P`` (Section 4.3), and the
   read-channel labels ``Loc_f`` (Section 4.2).

The result is a :class:`CheckedProgram` carrying the label of every
expression, the pc of every statement, per-field ``Loc_f`` bounds, and
name-resolution results — everything the splitter needs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..labels import (
    C,
    ConfLabel,
    I,
    IntegLabel,
    Label,
    Principal,
)
from . import ast
from .errors import AuthorityError, SecurityError, TypeError_

_MAX_INFERENCE_ROUNDS = 200


class FieldInfo:
    """Checked metadata for one field."""

    __slots__ = ("cls", "name", "base", "label", "loc_label", "decl", "init_value")

    def __init__(self, cls: str, name: str, base: str, label: Label, decl) -> None:
        self.cls = cls
        self.name = name
        self.base = base
        self.label = label
        #: Loc_f — join of C(pc) over every read site (Section 4.2).
        self.loc_label: ConfLabel = ConfLabel.public()
        self.decl = decl
        self.init_value = None

    @property
    def key(self) -> Tuple[str, str]:
        return (self.cls, self.name)

    def __repr__(self) -> str:
        return f"FieldInfo({self.cls}.{self.name}: {self.base}{self.label})"


class MethodInfo:
    """Checked metadata for one method."""

    __slots__ = (
        "cls",
        "name",
        "return_base",
        "return_label",
        "begin_label",
        "end_label",
        "params",
        "authority",
        "decl",
    )

    def __init__(self, cls: str, decl: ast.MethodDecl) -> None:
        self.cls = cls
        self.name = decl.name
        self.return_base = decl.return_type.base
        self.return_label: Label = decl.return_type.label or Label.constant()
        self.begin_label: Label = decl.begin_label or Label.constant()
        self.end_label: Optional[Label] = decl.end_label
        self.params: List[Tuple[str, str, Label]] = []
        self.authority: FrozenSet[Principal] = frozenset(decl.authority)
        self.decl = decl

    @property
    def key(self) -> Tuple[str, str]:
        return (self.cls, self.name)

    def __repr__(self) -> str:
        return f"MethodInfo({self.cls}.{self.name})"


class CheckedProgram:
    """A type-checked program plus all checker-derived annotations."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.classes: Dict[str, ast.ClassDecl] = {}
        self.fields: Dict[Tuple[str, str], FieldInfo] = {}
        self.methods: Dict[Tuple[str, str], MethodInfo] = {}
        #: label of every expression occurrence (includes pc).
        self.expr_labels: Dict[int, Label] = {}
        #: base type of every expression occurrence.
        self.expr_types: Dict[int, str] = {}
        #: pc label in effect at each statement.
        self.stmt_pc: Dict[int, Label] = {}
        #: resolution of bare Var occurrences: ("local", name) or ("field", cls, name).
        self.var_resolution: Dict[int, Tuple] = {}
        #: label of each local/param: (cls, method, var) -> Label.
        self.var_labels: Dict[Tuple[str, str, str], Label] = {}
        #: base type of each local/param.
        self.var_types: Dict[Tuple[str, str, str], str] = {}
        #: principals whose authority each declassify/endorse uses.
        self.downgrade_authority: Dict[int, FrozenSet[Principal]] = {}
        #: every principal mentioned anywhere in the program.
        self.principals: Set[Principal] = set()
        #: the acts-for hierarchy the program was checked under.
        from ..labels import EMPTY_HIERARCHY

        self.hierarchy = EMPTY_HIERARCHY

    def field_info(self, cls: str, name: str) -> FieldInfo:
        return self.fields[(cls, name)]

    def method_info(self, cls: str, name: str) -> MethodInfo:
        return self.methods[(cls, name)]

    def pc_of(self, stmt: ast.Stmt) -> Label:
        return self.stmt_pc[id(stmt)]


class _MethodScope:
    """Per-method checking context: local variable labels and base types."""

    def __init__(self, checker: "TypeChecker", method: MethodInfo) -> None:
        self.checker = checker
        self.method = method
        self.var_base: Dict[str, str] = {}
        self.declared_label: Dict[str, Optional[Label]] = {}
        for param in method.decl.params:
            self.var_base[param.name] = param.type.base
            self.declared_label[param.name] = param.type.label

    def declare(self, decl: ast.VarDecl) -> None:
        if decl.name in self.var_base:
            raise TypeError_(f"duplicate variable {decl.name!r}", decl.pos)
        self.var_base[decl.name] = decl.type.base
        self.declared_label[decl.name] = decl.type.label

    def is_local(self, name: str) -> bool:
        return name in self.var_base

    def var_key(self, name: str) -> Tuple[str, str, str]:
        return (self.method.cls, self.method.name, name)

    def label_of_var(self, name: str) -> Label:
        declared = self.declared_label.get(name)
        if declared is not None:
            return declared
        return self.checker._inferred.get(
            ("var",) + self.var_key(name), Label.constant()
        )


class TypeChecker:
    """Checks a program and produces a :class:`CheckedProgram`."""

    def __init__(self, program: ast.Program, hierarchy=None) -> None:
        from ..labels import EMPTY_HIERARCHY

        self.program = program
        self.hierarchy = hierarchy or EMPTY_HIERARCHY
        self.checked = CheckedProgram(program)
        self.checked.hierarchy = self.hierarchy
        #: inferred labels for unannotated locations, grown monotonically.
        self._inferred: Dict[Tuple, Label] = {}
        self._checking = False
        self._changed = False

    # -- driver ---------------------------------------------------------------

    def check(self) -> CheckedProgram:
        self._collect_declarations()
        self._run_inference()
        self._checking = True
        self._walk_program()
        self._freeze_results()
        return self.checked

    def _run_inference(self) -> None:
        self._checking = False
        for _ in range(_MAX_INFERENCE_ROUNDS):
            self._changed = False
            self._walk_program()
            if not self._changed:
                return
        raise SecurityError("label inference did not converge")

    def _walk_program(self) -> None:
        for cls in self.program.classes:
            for method_decl in cls.methods:
                self._check_method(self.checked.methods[(cls.name, method_decl.name)])

    # -- declaration collection -------------------------------------------------

    def _collect_declarations(self) -> None:
        for cls in self.program.classes:
            if cls.name in self.checked.classes:
                raise TypeError_(f"duplicate class {cls.name!r}", cls.pos)
            self.checked.classes[cls.name] = cls
            self.checked.principals.update(cls.authority)
        for cls in self.program.classes:
            class_authority = frozenset(cls.authority)
            for field in cls.fields:
                self._check_type_exists(field.type)
                self._forbid_array(field.type, "field declarations")
                if (cls.name, field.name) in self.checked.fields:
                    raise TypeError_(
                        f"duplicate field {field.name!r}", field.pos
                    )
                label = field.type.label
                info = FieldInfo(
                    cls.name,
                    field.name,
                    field.type.base,
                    label or Label.constant(),
                    field,
                )
                if field.init is not None:
                    info.init_value = self._literal_value(field.init, field.type)
                self.checked.fields[(cls.name, field.name)] = info
                if label is not None:
                    self._note_label_principals(label)
            for method in cls.methods:
                if (cls.name, method.name) in self.checked.methods:
                    raise TypeError_(
                        f"duplicate method {method.name!r}", method.pos
                    )
                self._check_type_exists(method.return_type)
                self._forbid_array(method.return_type, "return types")
                info = MethodInfo(cls.name, method)
                for param in method.params:
                    self._check_type_exists(param.type)
                    self._forbid_array(param.type, "parameters")
                    info.params.append(
                        (
                            param.name,
                            param.type.base,
                            param.type.label or Label.constant(),
                        )
                    )
                    if param.type.label is not None:
                        self._note_label_principals(param.type.label)
                if not info.authority <= class_authority:
                    extra = info.authority - class_authority
                    raise AuthorityError(
                        f"method {method.name!r} claims authority "
                        f"{sorted(p.name for p in extra)} not granted to class "
                        f"{cls.name!r}",
                        method.pos,
                    )
                for label in (method.return_type.label, method.begin_label,
                              method.end_label):
                    if label is not None:
                        self._note_label_principals(label)
                self.checked.methods[(cls.name, method.name)] = info

    def _note_label_principals(self, label: Label) -> None:
        for policy in label.conf.policies:
            self.checked.principals.add(policy.owner)
            self.checked.principals.update(policy.readers)
        self.checked.principals.update(label.integ.trust)

    def _check_type_exists(self, type_: ast.TypeNode) -> None:
        if type_.base in ast.PRIMITIVE_BASES or type_.base == "int[]":
            return
        if type_.base.endswith("[]"):
            raise TypeError_(
                f"only int arrays are supported, not {type_.base!r}",
                type_.pos,
            )
        if self.program.class_named(type_.base) is None:
            raise TypeError_(f"unknown type {type_.base!r}", type_.pos)

    def _forbid_array(self, type_: ast.TypeNode, where: str) -> None:
        """Array types are local-only: element-label invariance would be
        violated by aliasing through fields, params, or returns."""
        if type_.base.endswith("[]"):
            raise TypeError_(
                f"array types are not allowed in {where} (arrays are "
                f"method-local; element labels are invariant)",
                type_.pos,
            )

    def _literal_value(self, expr: ast.Expr, type_: ast.TypeNode):
        if isinstance(expr, ast.IntLit) and type_.base == "int":
            return expr.value
        if isinstance(expr, ast.BoolLit) and type_.base == "boolean":
            return expr.value
        if isinstance(expr, ast.NullLit) and type_.is_reference:
            return None
        raise TypeError_(
            "field initializers must be literals of the field type", expr.pos
        )

    # -- inference plumbing -------------------------------------------------------

    def _join_into(self, key: Tuple, label: Label) -> None:
        """Grow an inferred label during the inference phase."""
        if self._checking:
            return
        current = self._inferred.get(key, Label.constant())
        joined = current.join(label)
        if joined != current:
            self._inferred[key] = joined
            self._changed = True

    def _effective_field_label(self, info: FieldInfo) -> Label:
        if info.decl.type.label is not None:
            return info.decl.type.label
        return self._inferred.get(("field",) + info.key, Label.constant())

    def _effective_param_label(self, method: MethodInfo, name: str) -> Label:
        for pname, _, _ in method.params:
            if pname == name:
                break
        else:
            raise KeyError(name)
        for param in method.decl.params:
            if param.name == name and param.type.label is not None:
                return param.type.label
        return self._inferred.get(
            ("param", method.cls, method.name, name), Label.constant()
        )

    def _effective_return_label(self, method: MethodInfo) -> Label:
        if method.decl.return_type.label is not None:
            return method.decl.return_type.label
        return self._inferred.get(
            ("ret", method.cls, method.name), Label.constant()
        )

    def _effective_begin_label(self, method: MethodInfo) -> Label:
        if method.decl.begin_label is not None:
            return method.decl.begin_label
        return self._inferred.get(
            ("begin", method.cls, method.name), Label.constant()
        )

    # -- method checking ------------------------------------------------------------

    def _check_method(self, method: MethodInfo) -> None:
        scope = _MethodScope(self, method)
        pc = self._effective_begin_label(method)
        self._check_stmt(method.decl.body, scope, pc)

    def _check_stmt(self, stmt: ast.Stmt, scope: _MethodScope, pc: Label) -> Label:
        """Check one statement under ``pc``; return the pc afterwards.

        Structured control flow restores the surrounding pc at its join
        point (Section 2.3), so the returned pc equals the argument except
        for bookkeeping purposes.
        """
        if self._checking:
            self.checked.stmt_pc[id(stmt)] = pc
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self._check_stmt(inner, scope, pc)
            return pc
        if isinstance(stmt, ast.VarDecl):
            return self._check_var_decl(stmt, scope, pc)
        if isinstance(stmt, ast.Assign):
            return self._check_assign(stmt, scope, pc)
        if isinstance(stmt, ast.If):
            cond_label = self._check_expr(stmt.cond, scope, pc)
            self._require_base(stmt.cond, "boolean", "if condition")
            inner_pc = pc.join(cond_label)
            self._check_stmt(stmt.then_branch, scope, inner_pc)
            if stmt.else_branch is not None:
                self._check_stmt(stmt.else_branch, scope, inner_pc)
            return pc
        if isinstance(stmt, ast.While):
            # The loop condition is re-tested after the body runs, so it is
            # itself control-dependent on its own value: take the one-step
            # fixpoint pc' = pc ⊔ label(cond under pc').
            cond_label = self._check_expr(stmt.cond, scope, pc)
            inner_pc = pc.join(cond_label)
            cond_label = self._check_expr(stmt.cond, scope, inner_pc)
            inner_pc = pc.join(cond_label)
            self._require_base(stmt.cond, "boolean", "while condition")
            self._check_stmt(stmt.body, scope, inner_pc)
            return pc
        if isinstance(stmt, ast.Return):
            return self._check_return(stmt, scope, pc)
        if isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope, pc)
            return pc
        raise TypeError_(f"unknown statement {type(stmt).__name__}", stmt.pos)

    def _check_var_decl(
        self, stmt: ast.VarDecl, scope: _MethodScope, pc: Label
    ) -> Label:
        self._check_type_exists(stmt.type)
        # Each program walk gets a fresh scope, so a name already present
        # is a genuine duplicate (locals are method-scoped in mini-Jif).
        scope.declare(stmt)
        if stmt.type.label is not None:
            self._note_label_principals(stmt.type.label)
        if stmt.init is not None:
            value_label = self._check_expr(stmt.init, scope, pc)
            self._check_assignable(stmt.init, stmt.type.base, stmt.pos)
            if stmt.type.base == "int[]":
                self._check_array_source(stmt.init)
            if stmt.type.label is None:
                self._join_into(("var",) + scope.var_key(stmt.name), value_label)
            elif self._checking and not value_label.flows_to(stmt.type.label, self.hierarchy):
                raise SecurityError(
                    f"cannot initialize {stmt.name!r}: "
                    f"{value_label} ⋢ {stmt.type.label}",
                    stmt.pos,
                )
        return pc

    def _check_assign(
        self, stmt: ast.Assign, scope: _MethodScope, pc: Label
    ) -> Label:
        value_label = self._check_expr(stmt.value, scope, pc)
        target = stmt.target
        if isinstance(target, ast.Var):
            resolved = self._resolve_var(target, scope)
            if resolved[0] == "local":
                self._check_local_write(target.name, stmt, scope, value_label)
                return pc
            _, cls, fname = resolved
            self._check_field_write(cls, fname, stmt, scope, pc, value_label, None)
            return pc
        if isinstance(target, ast.FieldAccess):
            cls, fname, target_label = self._field_target(target, scope, pc)
            self._check_field_write(
                cls, fname, stmt, scope, pc, value_label, target_label
            )
            return pc
        if isinstance(target, ast.ArrayAccess):
            self._check_element_write(target, stmt, scope, pc, value_label)
            return pc
        raise TypeError_("invalid assignment target", stmt.pos)

    def _array_location_label(
        self, expr: ast.Expr, scope: _MethodScope
    ) -> Label:
        """The declared (pc-free) label of the array a read/write uses.

        Array element labels are the array variable's own label; writes
        are only allowed through a named local variable so the location
        label is statically evident."""
        if isinstance(expr, ast.Var) and scope.is_local(expr.name):
            return scope.label_of_var(expr.name)
        raise TypeError_(
            "array elements may only be accessed through a local "
            "array variable",
            expr.pos,
        )

    def _check_element_write(
        self,
        target: ast.ArrayAccess,
        stmt: ast.Assign,
        scope: _MethodScope,
        pc: Label,
        value_label: Label,
    ) -> None:
        array_label = self._check_expr(target.array, scope, pc)
        index_label = self._check_expr(target.index, scope, pc)
        self._require_base(target.array, "int[]", "array in element write")
        self._require_base(target.index, "int", "array index")
        self._check_assignable(stmt.value, "int", stmt.pos)
        location = self._array_location_label(target.array, scope)
        written = value_label.join(index_label)
        if self._checking:
            if not written.flows_to(location, self.hierarchy):
                raise SecurityError(
                    f"illegal flow into array element: {written} ⋢ "
                    f"{location}",
                    stmt.pos,
                )
            self._check_element_request(index_label, pc, location, stmt.pos)

    def _check_element_request(
        self, index_label: Label, pc: Label, location: Label, pos
    ) -> None:
        """Section 4.2 for arrays: the host holding the elements observes
        the index and the pc of every access — that request must be no
        more confidential than the elements themselves."""
        request = C(index_label).join(C(pc))
        if not request.flows_to(C(location), self.hierarchy):
            raise SecurityError(
                f"array access leaks its index/pc to the element host: "
                f"{{{request}}} ⋢ {{{C(location)}}} (Section 4.2)",
                pos,
            )

    def _check_array_source(self, expr: ast.Expr) -> None:
        """Element-label invariance: an array variable may only be bound
        to a fresh allocation or null, never aliased to another array."""
        if not self._checking:
            return
        if not isinstance(expr, (ast.NewArray, ast.NullLit)):
            raise TypeError_(
                "array variables may only be assigned 'new int[...]' or "
                "null (element labels are invariant, so aliasing is "
                "disallowed)",
                expr.pos,
            )

    def _check_local_write(
        self,
        name: str,
        stmt: ast.Assign,
        scope: _MethodScope,
        value_label: Label,
    ) -> None:
        self._check_assignable(stmt.value, scope.var_base[name], stmt.pos)
        if scope.var_base[name] == "int[]":
            self._check_array_source(stmt.value)
        declared = scope.declared_label.get(name)
        if declared is None:
            self._join_into(("var",) + scope.var_key(name), value_label)
        elif self._checking and not value_label.flows_to(declared, self.hierarchy):
            raise SecurityError(
                f"illegal flow into {name!r}: {value_label} ⋢ {declared}",
                stmt.pos,
            )

    def _check_field_write(
        self,
        cls: str,
        fname: str,
        stmt: ast.Assign,
        scope: _MethodScope,
        pc: Label,
        value_label: Label,
        target_label: Optional[Label],
    ) -> None:
        info = self.checked.fields[(cls, fname)]
        self._check_assignable(stmt.value, info.base, stmt.pos)
        written = value_label if target_label is None else value_label.join(
            target_label
        )
        if info.decl.type.label is None:
            self._join_into(("field",) + info.key, written)
        elif self._checking and not written.flows_to(info.label, self.hierarchy):
            raise SecurityError(
                f"illegal flow into field {cls}.{fname}: "
                f"{written} ⋢ {info.label}",
                stmt.pos,
            )

    def _check_return(
        self, stmt: ast.Return, scope: _MethodScope, pc: Label
    ) -> Label:
        method = scope.method
        if stmt.value is None:
            if self._checking and method.return_base != "void":
                raise TypeError_("missing return value", stmt.pos)
        else:
            value_label = self._check_expr(stmt.value, scope, pc)
            self._check_assignable(stmt.value, method.return_base, stmt.pos)
            if method.decl.return_type.label is None:
                self._join_into(("ret",) + method.key, value_label)
            elif self._checking:
                declared = method.decl.return_type.label
                if not value_label.flows_to(declared, self.hierarchy):
                    raise SecurityError(
                        f"return value label {value_label} ⋢ {declared}",
                        stmt.pos,
                    )
        if self._checking and method.end_label is not None:
            if not pc.flows_to(method.end_label, self.hierarchy):
                raise SecurityError(
                    f"pc at return {pc} exceeds end label {method.end_label}",
                    stmt.pos,
                )
        return pc

    # -- expressions --------------------------------------------------------------

    def _check_expr(self, expr: ast.Expr, scope: _MethodScope, pc: Label) -> Label:
        label, base = self._expr_label(expr, scope, pc)
        # Base types are needed by both phases (e.g. to resolve e.f during
        # inference); labels recorded during inference are overwritten by
        # the final checking pass.
        self.checked.expr_labels[id(expr)] = label
        self.checked.expr_types[id(expr)] = base
        return label

    def _expr_label(
        self, expr: ast.Expr, scope: _MethodScope, pc: Label
    ) -> Tuple[Label, str]:
        if isinstance(expr, ast.IntLit):
            return Label.constant().join(pc), "int"
        if isinstance(expr, ast.BoolLit):
            return Label.constant().join(pc), "boolean"
        if isinstance(expr, ast.NullLit):
            return Label.constant().join(pc), "null"
        if isinstance(expr, ast.Var):
            return self._var_label(expr, scope, pc)
        if isinstance(expr, ast.FieldAccess):
            return self._field_read_label(expr, scope, pc)
        if isinstance(expr, ast.NewArray):
            length_label = self._check_expr(expr.length, scope, pc)
            self._require_base(expr.length, "int", "array length")
            return length_label.join(pc), "int[]"
        if isinstance(expr, ast.ArrayAccess):
            array_label = self._check_expr(expr.array, scope, pc)
            index_label = self._check_expr(expr.index, scope, pc)
            self._require_base(expr.array, "int[]", "array in element read")
            self._require_base(expr.index, "int", "array index")
            if self._checking:
                location = self._array_location_label(expr.array, scope)
                self._check_element_request(index_label, pc, location,
                                            expr.pos)
            return array_label.join(index_label).join(pc), "int"
        if isinstance(expr, ast.ArrayLength):
            array_label = self._check_expr(expr.array, scope, pc)
            self._require_base(expr.array, "int[]", "array in .length")
            return array_label.join(pc), "int"
        if isinstance(expr, ast.Binary):
            return self._binary_label(expr, scope, pc)
        if isinstance(expr, ast.Unary):
            operand_label = self._check_expr(expr.operand, scope, pc)
            wanted = "boolean" if expr.op == "!" else "int"
            self._require_base(expr.operand, wanted, f"operand of {expr.op!r}")
            return operand_label, wanted
        if isinstance(expr, ast.Call):
            return self._call_label(expr, scope, pc)
        if isinstance(expr, ast.New):
            if self.program.class_named(expr.class_name) is None:
                raise TypeError_(f"unknown class {expr.class_name!r}", expr.pos)
            return Label.constant().join(pc), expr.class_name
        if isinstance(expr, ast.Declassify):
            return self._declassify_label(expr, scope, pc)
        if isinstance(expr, ast.Endorse):
            return self._endorse_label(expr, scope, pc)
        raise TypeError_(f"unknown expression {type(expr).__name__}", expr.pos)

    def _resolve_var(self, expr: ast.Var, scope: _MethodScope) -> Tuple:
        if scope.is_local(expr.name):
            resolution = ("local", expr.name)
        else:
            cls = scope.method.cls
            if (cls, expr.name) in self.checked.fields:
                resolution = ("field", cls, expr.name)
            else:
                raise TypeError_(f"unknown variable {expr.name!r}", expr.pos)
        if self._checking:
            self.checked.var_resolution[id(expr)] = resolution
        return resolution

    def _var_label(
        self, expr: ast.Var, scope: _MethodScope, pc: Label
    ) -> Tuple[Label, str]:
        resolved = self._resolve_var(expr, scope)
        if resolved[0] == "local":
            name = expr.name
            declared = scope.declared_label.get(name)
            if declared is not None:
                label = declared
            elif self._is_param(scope.method, name):
                label = self._effective_param_label(scope.method, name)
            else:
                label = self._inferred.get(
                    ("var",) + scope.var_key(name), Label.constant()
                )
            return label.join(pc), scope.var_base[name]
        _, cls, fname = resolved
        return self._read_field(cls, fname, None, pc, expr)

    def _is_param(self, method: MethodInfo, name: str) -> bool:
        return any(pname == name for pname, _, _ in method.params)

    def _field_target(
        self, expr: ast.FieldAccess, scope: _MethodScope, pc: Label
    ) -> Tuple[str, str, Optional[Label]]:
        """Resolve ``e.f`` / ``this.f`` to (class, field, target label)."""
        if expr.target is None:
            cls = scope.method.cls
            if (cls, expr.field) not in self.checked.fields:
                raise TypeError_(f"unknown field {expr.field!r}", expr.pos)
            return cls, expr.field, None
        target_label = self._check_expr(expr.target, scope, pc)
        base = self._base_of(expr.target)
        if base in ast.PRIMITIVE_BASES or base == "null":
            raise TypeError_(
                f"cannot access field of non-reference type {base!r}", expr.pos
            )
        if (base, expr.field) not in self.checked.fields:
            raise TypeError_(
                f"class {base!r} has no field {expr.field!r}", expr.pos
            )
        return base, expr.field, target_label

    def _field_read_label(
        self, expr: ast.FieldAccess, scope: _MethodScope, pc: Label
    ) -> Tuple[Label, str]:
        cls, fname, target_label = self._field_target(expr, scope, pc)
        effective_pc = pc if target_label is None else pc.join(target_label)
        return self._read_field(cls, fname, target_label, effective_pc, expr)

    def _read_field(
        self,
        cls: str,
        fname: str,
        target_label: Optional[Label],
        pc: Label,
        expr: ast.Expr,
    ) -> Tuple[Label, str]:
        info = self.checked.fields[(cls, fname)]
        if self._checking:
            # Section 4.2: the read request itself reveals the pc (and the
            # identity of the object read) to the field's host.
            info.loc_label = info.loc_label.join(C(pc))
        label = self._effective_field_label(info).join(pc)
        return label, info.base

    def _binary_label(
        self, expr: ast.Binary, scope: _MethodScope, pc: Label
    ) -> Tuple[Label, str]:
        left_label = self._check_expr(expr.left, scope, pc)
        right_label = self._check_expr(expr.right, scope, pc)
        joined = left_label.join(right_label)
        left_base = self._base_of(expr.left)
        right_base = self._base_of(expr.right)
        if expr.op in ast.ARITH_OPS:
            self._require_base(expr.left, "int", f"operand of {expr.op!r}")
            self._require_base(expr.right, "int", f"operand of {expr.op!r}")
            return joined, "int"
        if expr.op in ast.LOGIC_OPS:
            self._require_base(expr.left, "boolean", f"operand of {expr.op!r}")
            self._require_base(expr.right, "boolean", f"operand of {expr.op!r}")
            return joined, "boolean"
        if expr.op in ("==", "!="):
            if self._checking and not self._comparable(left_base, right_base):
                raise TypeError_(
                    f"cannot compare {left_base} with {right_base}", expr.pos
                )
            return joined, "boolean"
        if expr.op in ast.COMPARE_OPS:
            self._require_base(expr.left, "int", f"operand of {expr.op!r}")
            self._require_base(expr.right, "int", f"operand of {expr.op!r}")
            return joined, "boolean"
        raise TypeError_(f"unknown operator {expr.op!r}", expr.pos)

    def _comparable(self, left: str, right: str) -> bool:
        if left == right:
            return True
        # References (including null) compare with == / != across types.
        primitives = ("int", "boolean", "void")
        return left not in primitives and right not in primitives

    def _call_label(
        self, expr: ast.Call, scope: _MethodScope, pc: Label
    ) -> Tuple[Label, str]:
        key = (scope.method.cls, expr.method)
        if key not in self.checked.methods:
            raise TypeError_(f"unknown method {expr.method!r}", expr.pos)
        callee = self.checked.methods[key]
        if len(expr.args) != len(callee.params):
            raise TypeError_(
                f"{expr.method!r} expects {len(callee.params)} arguments, "
                f"got {len(expr.args)}",
                expr.pos,
            )
        for arg, (pname, pbase, _) in zip(expr.args, callee.params):
            arg_label = self._check_expr(arg, scope, pc)
            self._check_assignable(arg, pbase, expr.pos)
            param_decl = next(
                p for p in callee.decl.params if p.name == pname
            )
            if param_decl.type.label is None:
                self._join_into(
                    ("param", callee.cls, callee.name, pname), arg_label
                )
            elif self._checking and not arg_label.flows_to(param_decl.type.label, self.hierarchy):
                raise SecurityError(
                    f"argument {pname!r} of {expr.method!r}: "
                    f"{arg_label} ⋢ {param_decl.type.label}",
                    arg.pos,
                )
        if callee.decl.begin_label is None:
            self._join_into(("begin", callee.cls, callee.name), pc)
        elif self._checking and not pc.flows_to(callee.decl.begin_label, self.hierarchy):
            raise SecurityError(
                f"call of {expr.method!r}: pc {pc} exceeds begin label "
                f"{callee.decl.begin_label}",
                expr.pos,
            )
        result_label = self._effective_return_label(callee).join(pc)
        return result_label, callee.return_base

    def _declassify_label(
        self, expr: ast.Declassify, scope: _MethodScope, pc: Label
    ) -> Tuple[Label, str]:
        inner_label = self._check_expr(expr.expr, scope, pc)
        base = self._base_of(expr.expr)
        target_conf = C(expr.label)
        needed = frozenset(
            policy.owner
            for policy in inner_label.conf.policies
            if not any(
                target.covers(policy, self.hierarchy)
                for target in target_conf.policies
            )
        )
        if self._checking:
            self._enforce_downgrade(expr, scope, pc, needed, "declassify")
            if not expr.label.integ.is_untrusted:
                raise SecurityError(
                    "declassify must not claim integrity; use endorse",
                    expr.pos,
                )
        return Label(target_conf, I(inner_label)), base

    def _endorse_label(
        self, expr: ast.Endorse, scope: _MethodScope, pc: Label
    ) -> Tuple[Label, str]:
        inner_label = self._check_expr(expr.expr, scope, pc)
        base = self._base_of(expr.expr)
        target_integ = I(expr.label)
        if target_integ.is_bottom:
            raise AuthorityError(
                "cannot endorse to universal trust", expr.pos
            )
        added = frozenset(
            principal
            for principal in target_integ.trust
            if not inner_label.integ.trusted_by(principal, self.hierarchy)
        )
        if self._checking:
            self._enforce_downgrade(expr, scope, pc, added, "endorse")
            if expr.label.conf.policies:
                raise SecurityError(
                    "endorse must not change confidentiality; use declassify",
                    expr.pos,
                )
        return Label(C(inner_label), target_integ), base

    def _enforce_downgrade(
        self,
        expr: ast.Expr,
        scope: _MethodScope,
        pc: Label,
        principals: FrozenSet[Principal],
        what: str,
    ) -> None:
        authority = scope.method.authority
        if not principals <= authority:
            missing = sorted(p.name for p in principals - authority)
            raise AuthorityError(
                f"{what} requires authority of {missing}, but method "
                f"{scope.method.name!r} only has "
                f"{sorted(p.name for p in authority)}",
                expr.pos,
            )
        # Section 4.3: each principal whose authority is used must trust
        # that control reached this point correctly: I(pc) ⊑ I_P.
        required = IntegLabel(principals)
        if not I(pc).flows_to(required, self.hierarchy):
            raise SecurityError(
                f"{what} at untrusted program point: I(pc) = "
                f"{{{I(pc)}}} ⋢ {{{required}}} (Section 4.3)",
                expr.pos,
            )
        self.checked.downgrade_authority[id(expr)] = principals

    # -- base-type helpers -----------------------------------------------------

    def _base_of(self, expr: ast.Expr) -> str:
        if self._checking:
            return self.checked.expr_types[id(expr)]
        # During inference, recompute cheaply where needed.
        return self.checked.expr_types.get(id(expr), "int")

    def _require_base(self, expr: ast.Expr, base: str, what: str) -> None:
        if not self._checking:
            return
        actual = self.checked.expr_types[id(expr)]
        if actual != base:
            raise TypeError_(f"{what} must be {base}, got {actual}", expr.pos)

    def _check_assignable(self, expr: ast.Expr, base: str, pos) -> None:
        if not self._checking:
            return
        actual = self.checked.expr_types[id(expr)]
        if actual == base:
            return
        if actual == "null" and base not in ast.PRIMITIVE_BASES:
            return
        raise TypeError_(f"cannot assign {actual} to {base}", pos)

    # -- finalization ------------------------------------------------------------

    def _freeze_results(self) -> None:
        checked = self.checked
        for info in checked.fields.values():
            info.label = self._effective_field_label(info)
            self._note_label_principals(info.label)
        for method in checked.methods.values():
            method.begin_label = self._effective_begin_label(method)
            method.return_label = self._effective_return_label(method)
            params = []
            for pname, pbase, _ in method.params:
                label = self._effective_param_label(method, pname)
                params.append((pname, pbase, label))
                checked.var_labels[(method.cls, method.name, pname)] = label
                checked.var_types[(method.cls, method.name, pname)] = pbase
            method.params = params
            self._note_label_principals(method.begin_label)
            self._note_label_principals(method.return_label)
        for key, label in self._inferred.items():
            if key[0] == "var":
                _, cls, mname, vname = key
                checked.var_labels[(cls, mname, vname)] = label
                self._note_label_principals(label)
        # Record declared local labels and base types too.
        for cls in self.program.classes:
            for method in cls.methods:
                self._record_locals(cls.name, method)

    def _record_locals(self, cls: str, method: ast.MethodDecl) -> None:
        checked = self.checked
        # A preorder walk as a loop: a recursive closure would hold
        # itself (and ``checked``) in a reference cycle.
        stack: List[ast.Stmt] = [method.body]
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, ast.Block):
                stack.extend(reversed(stmt.stmts))
            elif isinstance(stmt, ast.VarDecl):
                key = (cls, method.name, stmt.name)
                checked.var_types[key] = stmt.type.base
                if stmt.type.label is not None:
                    checked.var_labels[key] = stmt.type.label
                elif key not in checked.var_labels:
                    checked.var_labels[key] = Label.constant()
            elif isinstance(stmt, ast.If):
                if stmt.else_branch is not None:
                    stack.append(stmt.else_branch)
                stack.append(stmt.then_branch)
            elif isinstance(stmt, ast.While):
                stack.append(stmt.body)


def check_program(program: ast.Program, hierarchy=None) -> CheckedProgram:
    """Type-check ``program`` under an optional acts-for hierarchy."""
    return TypeChecker(program, hierarchy).check()


def check_source(source: str, hierarchy=None) -> CheckedProgram:
    """Parse and type-check mini-Jif ``source``."""
    from .parser import parse_program

    return check_program(parse_program(source), hierarchy)
