"""Recursive-descent parser for the mini-Jif language.

The parser always knows from context whether a ``{`` opens a label
literal or a block, so label literals are parsed structurally from the
same token stream (no lexer modes).
"""

from __future__ import annotations

from typing import List, Optional

from ..labels import ConfLabel, ConfPolicy, IntegLabel, Label, Principal
from . import ast
from .errors import ParseError
from .lexer import EOF_KIND, Token, tokenize


class Parser:
    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._index = 0

    # -- token helpers -------------------------------------------------------

    # The token list always ends with the EOF token and ``_next`` never
    # advances past it, so ``self._index`` is always in range — the
    # no-lookahead accessors index directly.

    def _peek(self, offset: int = 0) -> Token:
        if offset:
            index = min(self._index + offset, len(self._tokens) - 1)
            return self._tokens[index]
        return self._tokens[self._index]

    def _next(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != EOF_KIND:
            self._index += 1
        return token

    def _at(self, kind: str) -> bool:
        return self._tokens[self._index].kind == kind

    def _at_keyword(self, word: str) -> bool:
        return self._tokens[self._index].is_keyword(word)

    def _expect(self, kind: str) -> Token:
        token = self._tokens[self._index]
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {token.text or token.kind!r}",
                token.pos,
            )
        return self._next()

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise ParseError(
                f"expected {word!r}, found {token.text or token.kind!r}",
                token.pos,
            )
        return self._next()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind != "ident":
            raise ParseError(
                f"expected identifier, found {token.text or token.kind!r}",
                token.pos,
            )
        return self._next()

    # -- program structure -----------------------------------------------------

    def parse_program(self) -> ast.Program:
        pos = self._peek().pos
        classes = []
        while not self._at(EOF_KIND):
            classes.append(self.parse_class())
        if not classes:
            raise ParseError("empty program", pos)
        return ast.Program(classes, pos)

    def parse_class(self) -> ast.ClassDecl:
        pos = self._expect_keyword("class").pos
        name = self._expect_ident().text
        authority = []
        if self._at_keyword("authority"):
            authority = self._parse_authority_clause()
        self._expect("{")
        fields: List[ast.FieldDecl] = []
        methods: List[ast.MethodDecl] = []
        while not self._at("}"):
            member = self._parse_member()
            if isinstance(member, ast.FieldDecl):
                fields.append(member)
            else:
                methods.append(member)
        self._expect("}")
        return ast.ClassDecl(name, authority, fields, methods, pos)

    def _parse_authority_clause(self) -> List[Principal]:
        self._expect_keyword("authority")
        self._expect("(")
        principals = [Principal(self._expect_ident().text)]
        while self._at(","):
            self._next()
            principals.append(Principal(self._expect_ident().text))
        self._expect(")")
        return principals

    def _parse_member(self):
        type_ = self._parse_type()
        name_token = self._expect_ident()
        if self._at("(") or self._at("{"):
            return self._parse_method_rest(type_, name_token)
        init = None
        if self._at("="):
            self._next()
            init = self.parse_expr()
        self._expect(";")
        return ast.FieldDecl(type_, name_token.text, init, name_token.pos)

    def _parse_method_rest(
        self, return_type: ast.TypeNode, name_token: Token
    ) -> ast.MethodDecl:
        begin_label = None
        if self._at("{"):
            begin_label = self._parse_label()
        self._expect("(")
        params: List[ast.Param] = []
        if not self._at(")"):
            params.append(self._parse_param())
            while self._at(","):
                self._next()
                params.append(self._parse_param())
        self._expect(")")
        if self._at_keyword("where"):
            self._next()
        authority = []
        if self._at_keyword("authority"):
            authority = self._parse_authority_clause()
        end_label = None
        if self._at(":"):
            self._next()
            end_label = self._parse_label()
        body = self._parse_block()
        return ast.MethodDecl(
            return_type,
            name_token.text,
            begin_label,
            params,
            authority,
            end_label,
            body,
            name_token.pos,
        )

    def _parse_param(self) -> ast.Param:
        type_ = self._parse_type()
        name_token = self._expect_ident()
        return ast.Param(type_, name_token.text, name_token.pos)

    # -- types and labels --------------------------------------------------------

    def _parse_type(self) -> ast.TypeNode:
        token = self._peek()
        if token.kind == "keyword" and token.text in ("int", "boolean", "void"):
            base = self._next().text
        elif token.kind == "ident":
            base = self._next().text
        else:
            raise ParseError(
                f"expected a type, found {token.text or token.kind!r}", token.pos
            )
        label = self._parse_label() if self._at("{") else None
        if self._at("["):
            self._next()
            self._expect("]")
            base = base + "[]"
        return ast.TypeNode(base, label, token.pos)

    def _parse_label(self) -> Label:
        """Parse a label literal ``{...}`` from the token stream."""
        self._expect("{")
        conf_policies: List[ConfPolicy] = []
        integ = IntegLabel.untrusted()
        saw_integ = False
        while not self._at("}"):
            if self._at("?"):
                self._next()
                self._expect(":")
                if saw_integ:
                    raise ParseError(
                        "duplicate integrity component in label", self._peek().pos
                    )
                saw_integ = True
                names = self._parse_label_principals()
                if "*" in names:
                    if names != ["*"]:
                        raise ParseError(
                            "'*' must be the sole trusted principal",
                            self._peek().pos,
                        )
                    integ = IntegLabel.bottom()
                else:
                    integ = IntegLabel(names)
            else:
                owner = self._expect_ident().text
                self._expect(":")
                readers = self._parse_label_principals()
                if "*" in readers:
                    raise ParseError("'*' is not a valid reader", self._peek().pos)
                conf_policies.append(ConfPolicy(owner, readers))
            if self._at(";"):
                self._next()
            elif not self._at("}"):
                raise ParseError(
                    "expected ';' or '}' in label", self._peek().pos
                )
        self._expect("}")
        return Label(ConfLabel(conf_policies), integ)

    def _parse_label_principals(self) -> List[str]:
        names: List[str] = []
        while self._at("ident") or self._at("*"):
            names.append(self._next().text)
            if self._at(","):
                self._next()
            else:
                break
        return names

    # -- statements -----------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        pos = self._expect("{").pos
        stmts: List[ast.Stmt] = []
        while not self._at("}"):
            stmts.append(self.parse_stmt())
        self._expect("}")
        return ast.Block(stmts, pos)

    def parse_stmt(self) -> ast.Stmt:
        # Dispatch on the leading token via the memoized keyword table
        # (built once at class creation) instead of a chain of
        # is_keyword probes.
        token = self._tokens[self._index]
        kind = token.kind
        if kind == "{":
            return self._parse_block()
        if kind == "keyword":
            handler = self._STMT_KEYWORDS.get(token.text)
            if handler is not None:
                return handler(self)
        if self._starts_declaration():
            return self._parse_var_decl()
        return self._parse_expr_or_assign()

    def _parse_return(self) -> ast.Return:
        token = self._next()
        value = None if self._at(";") else self.parse_expr()
        self._expect(";")
        return ast.Return(value, token.pos)

    def _starts_declaration(self) -> bool:
        token = self._peek()
        if token.kind == "keyword" and token.text in ("int", "boolean"):
            return True
        if token.kind == "ident":
            # "Node n = ...", "Node{Alice:} n = ...", or "Node[] xs ..."
            # (the latter is rejected by the checker, but must parse as a
            # declaration to produce the right diagnostic).
            follower = self._peek(1)
            if follower.is_op("[") and self._peek(2).is_op("]"):
                return True
            return follower.kind == "ident" or follower.is_op("{")
        return False

    def _parse_var_decl(self) -> ast.VarDecl:
        type_ = self._parse_type()
        name_token = self._expect_ident()
        init = None
        if self._at("="):
            self._next()
            init = self.parse_expr()
        self._expect(";")
        return ast.VarDecl(type_, name_token.text, init, name_token.pos)

    def _parse_if(self) -> ast.If:
        pos = self._expect_keyword("if").pos
        self._expect("(")
        cond = self.parse_expr()
        self._expect(")")
        then_branch = self.parse_stmt()
        else_branch = None
        if self._at_keyword("else"):
            self._next()
            else_branch = self.parse_stmt()
        return ast.If(cond, then_branch, else_branch, pos)

    def _parse_while(self) -> ast.While:
        pos = self._expect_keyword("while").pos
        self._expect("(")
        cond = self.parse_expr()
        self._expect(")")
        body = self.parse_stmt()
        return ast.While(cond, body, pos)

    def _parse_for(self) -> ast.Stmt:
        """Desugar ``for (init; cond; update) body`` into a while loop."""
        pos = self._expect_keyword("for").pos
        self._expect("(")
        if self._starts_declaration():
            type_ = self._parse_type()
            name_token = self._expect_ident()
            init_expr = None
            if self._at("="):
                self._next()
                init_expr = self.parse_expr()
            init: ast.Stmt = ast.VarDecl(
                type_, name_token.text, init_expr, name_token.pos
            )
            self._expect(";")
        else:
            init = self._parse_expr_or_assign()
        cond = self.parse_expr()
        self._expect(";")
        update_target = self.parse_expr()
        self._expect("=")
        update_value = self.parse_expr()
        update = ast.Assign(update_target, update_value, update_target.pos)
        self._expect(")")
        body = self.parse_stmt()
        loop_body = ast.Block([body, update], body.pos)
        return ast.Block([init, ast.While(cond, loop_body, pos)], pos)

    def _parse_expr_or_assign(self) -> ast.Stmt:
        expr = self.parse_expr()
        if self._at("="):
            eq = self._next()
            if not isinstance(
                expr, (ast.Var, ast.FieldAccess, ast.ArrayAccess)
            ):
                raise ParseError("invalid assignment target", eq.pos)
            value = self.parse_expr()
            self._expect(";")
            return ast.Assign(expr, value, expr.pos)
        self._expect(";")
        return ast.ExprStmt(expr, expr.pos)

    # -- expressions -----------------------------------------------------------

    #: operator kind -> binding power for the precedence-climbing
    #: expression parser.  One table lookup replaces the five-level
    #: recursive cascade (or → and → equality → relational → additive →
    #: multiplicative); the resulting trees are identical.
    _BINARY_PRECEDENCE = {
        "||": 1,
        "&&": 2,
        "==": 3,
        "!=": 3,
        "<": 4,
        "<=": 4,
        ">": 4,
        ">=": 4,
        "+": 5,
        "-": 5,
        "*": 6,
        "/": 6,
        "%": 6,
    }

    def parse_expr(self) -> ast.Expr:
        return self._parse_binary(1)

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        left = self._parse_unary()
        precedences = self._BINARY_PRECEDENCE
        while True:
            kind = self._tokens[self._index].kind
            precedence = precedences.get(kind)
            if precedence is None or precedence < min_precedence:
                return left
            op = self._next()
            # All operators are left-associative: the right operand only
            # absorbs strictly tighter operators.
            right = self._parse_binary(precedence + 1)
            left = ast.Binary(kind, left, right, op.pos)

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.is_op("!"):
            self._next()
            return ast.Unary("!", self._parse_unary(), token.pos)
        if token.is_op("-"):
            self._next()
            return ast.Unary("-", self._parse_unary(), token.pos)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while self._at(".") or self._at("["):
            if self._at("["):
                bracket = self._next()
                index = self.parse_expr()
                self._expect("]")
                expr = ast.ArrayAccess(expr, index, bracket.pos)
                continue
            dot = self._next()
            field = self._expect_ident().text
            if field == "length":
                expr = ast.ArrayLength(expr, dot.pos)
            else:
                expr = ast.FieldAccess(expr, field, dot.pos)
        return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._tokens[self._index]
        kind = token.kind
        if kind == "ident":
            self._next()
            if self._at("("):
                self._next()
                args: List[ast.Expr] = []
                if not self._at(")"):
                    args.append(self.parse_expr())
                    while self._at(","):
                        self._next()
                        args.append(self.parse_expr())
                self._expect(")")
                return ast.Call(token.text, args, token.pos)
            return ast.Var(token.text, token.pos)
        if kind == "int":
            self._next()
            return ast.IntLit(int(token.text), token.pos)
        if kind == "keyword":
            handler = self._PRIMARY_KEYWORDS.get(token.text)
            if handler is not None:
                return handler(self, token)
        elif kind == "(":
            self._next()
            expr = self.parse_expr()
            self._expect(")")
            return expr
        raise ParseError(
            f"expected an expression, found {token.text or token.kind!r}",
            token.pos,
        )

    def _parse_true(self, token: Token) -> ast.Expr:
        self._next()
        return ast.BoolLit(True, token.pos)

    def _parse_false(self, token: Token) -> ast.Expr:
        self._next()
        return ast.BoolLit(False, token.pos)

    def _parse_null(self, token: Token) -> ast.Expr:
        self._next()
        return ast.NullLit(token.pos)

    def _parse_this(self, token: Token) -> ast.Expr:
        self._next()
        self._expect(".")
        field = self._expect_ident().text
        return ast.FieldAccess(None, field, token.pos)

    def _parse_new(self, token: Token) -> ast.Expr:
        self._next()
        if self._at_keyword("int"):
            self._next()
            self._expect("[")
            length = self.parse_expr()
            self._expect("]")
            return ast.NewArray(length, token.pos)
        class_name = self._expect_ident().text
        self._expect("(")
        self._expect(")")
        return ast.New(class_name, token.pos)

    def _parse_downgrade(self, token: Token) -> ast.Expr:
        self._next()
        self._expect("(")
        expr = self.parse_expr()
        self._expect(",")
        label = self._parse_label()
        self._expect(")")
        node = ast.Declassify if token.text == "declassify" else ast.Endorse
        return node(expr, label, token.pos)

    #: leading-keyword dispatch tables, memoized at class scope.
    _STMT_KEYWORDS = {
        "if": _parse_if,
        "while": _parse_while,
        "for": _parse_for,
        "return": _parse_return,
    }
    _PRIMARY_KEYWORDS = {
        "true": _parse_true,
        "false": _parse_false,
        "null": _parse_null,
        "this": _parse_this,
        "new": _parse_new,
        "declassify": _parse_downgrade,
        "endorse": _parse_downgrade,
    }


def parse_program(source: str) -> ast.Program:
    """Parse a complete mini-Jif program."""
    return Parser(source).parse_program()


def parse_stmt(source: str) -> ast.Stmt:
    """Parse a single statement (used by tests)."""
    return Parser(source).parse_stmt()


def parse_expr(source: str) -> ast.Expr:
    """Parse a single expression (used by tests)."""
    return Parser(source).parse_expr()
