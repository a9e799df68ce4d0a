"""The mini-Jif security-typed language: lexer, parser, AST, type checker."""

from .. import _lazy
from . import ast
from .errors import (
    AuthorityError,
    JifError,
    LexError,
    ParseError,
    SecurityError,
    SourcePosition,
    TypeError_,
)
from .lexer import Token, tokenize
from .parser import parse_expr, parse_program, parse_stmt
from .typecheck import (
    CheckedProgram,
    FieldInfo,
    MethodInfo,
    check_program,
    check_source,
)

# Nothing on the compile path prints source back; the pretty-printer
# loads on first use.
__getattr__, __dir__ = _lazy.exports(
    globals(), {"pretty": ("pretty_expr", "pretty_program")}
)

__all__ = [
    "ast",
    "AuthorityError",
    "JifError",
    "LexError",
    "ParseError",
    "SecurityError",
    "SourcePosition",
    "TypeError_",
    "Token",
    "tokenize",
    "parse_expr",
    "parse_program",
    "parse_stmt",
    "pretty_expr",
    "pretty_program",
    "CheckedProgram",
    "FieldInfo",
    "MethodInfo",
    "check_program",
    "check_source",
]
