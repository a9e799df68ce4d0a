"""Lexer for the mini-Jif surface language.

The token set covers the subset of Jif exercised by the paper: Java-like
classes, fields, methods, the usual expression operators, plus label
literals (``{Alice:; ?:Alice}``), ``declassify``/``endorse``, and
``authority`` clauses.  Label literals are tokenized as ordinary
punctuation; the parser reassembles them (it always knows from context
whether a ``{`` opens a label or a block).

The scanner dispatches on the first character of each token through a
precomputed category table, so the common cases — punctuation, names,
numbers — never touch the regex engine's alternation machinery:
punctuation is recognized by table lookup alone, and names, numbers,
and whitespace/comment runs each use one small compiled sub-regex.
This replaced a single big-alternation regex, whose per-token
named-group dispatch dominated the parse stage of the benchmark; the
token stream (kinds, texts, positions, and both ``LexError`` cases) is
pinned bit-identical by ``tests/lang/test_lexer_differential.py``.

Identifiers are ASCII-only (``[A-Za-z_][A-Za-z0-9_]*``), as are number
literals: the documented mini-Jif token set never included non-ASCII
source, and the earlier regex scanner's accidental acceptance of
Unicode identifiers (``[^\\W\\d]\\w*`` matched ``café``) fed the
pretty-printer and typechecker input they were never exercised on.
Such input now raises :class:`LexError` at the offending character.

Positions are 1-based (line, column) pairs.  Token positions are
tracked incrementally (tokens arrive in offset order, so the current
line advances monotonically); error and end-of-file positions are
recovered by bisecting the precomputed line-start table.  The two
derivations agree for every offset — both count the line starts at or
before the offset — and ``tests/lang/test_lexer_differential.py``
cross-checks them token by token over the whole corpus.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Iterator, List, NamedTuple, Sequence

from .errors import LexError, SourcePosition

KEYWORDS = frozenset(
    {
        "class",
        "int",
        "boolean",
        "void",
        "if",
        "else",
        "while",
        "for",
        "return",
        "true",
        "false",
        "null",
        "new",
        "this",
        "declassify",
        "endorse",
        "authority",
        "where",
    }
)

#: ``skip`` swallows whitespace and both comment forms in one match.  An
#: unterminated ``/*`` fails the match and is diagnosed by the ``/``
#: dispatch branch so it raises at the comment's start.
_SKIP_RE = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+", re.DOTALL)
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"[0-9]+")

#: First-character dispatch categories.
_SKIP, _SLASH, _NAME, _NUM, _PUNCT, _MAYBE_EQ, _DOUBLED = range(7)

_CATEGORY = {}
for _ch in " \t\r\n":
    _CATEGORY[_ch] = _SKIP
_CATEGORY["/"] = _SLASH
for _ch in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_":
    _CATEGORY[_ch] = _NAME
for _ch in "0123456789":
    _CATEGORY[_ch] = _NUM
#: Always a single-character token (``/`` is handled by its own branch,
#: and ``&``/``|`` exist only doubled).
for _ch in "{}()[],;:.?+-*%":
    _CATEGORY[_ch] = _PUNCT
#: One-char token, or two-char when followed by ``=``.
for _ch in "=!<>":
    _CATEGORY[_ch] = _MAYBE_EQ
for _ch in "&|":
    _CATEGORY[_ch] = _DOUBLED
del _ch


class Token(NamedTuple):
    kind: str  # "ident", "int", "keyword", or the operator text itself
    text: str
    pos: SourcePosition

    def is_op(self, text: str) -> bool:
        return self.kind == text

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word


EOF_KIND = "<eof>"


class Lexer:
    """A table-dispatched maximal-munch lexer with ``//`` and ``/* */``
    comments."""

    def __init__(self, source: str) -> None:
        self._source = source
        # Offsets where each line begins; line/column of any offset are
        # recovered by bisecting this table.
        starts = [0]
        index = source.find("\n")
        while index != -1:
            starts.append(index + 1)
            index = source.find("\n", index + 1)
        self._line_starts = starts

    def _pos(self, offset: int) -> SourcePosition:
        """Position of ``offset``, 1-based, via the line-start table.

        ``bisect_right`` counts the line starts ≤ ``offset`` — the same
        quantity the incremental tracker in :meth:`scan` maintains, so
        error positions computed here always agree with token positions.
        """
        line = bisect_right(self._line_starts, offset)
        return SourcePosition(line, offset - self._line_starts[line - 1] + 1)

    def tokens(self) -> Iterator[Token]:
        return iter(self.scan())

    def scan(self) -> List[Token]:
        source = self._source
        length = len(source)
        category = _CATEGORY.get
        skip = _SKIP_RE.match
        name_match = _NAME_RE.match
        num_match = _NUM_RE.match
        keywords = KEYWORDS
        token = Token
        position = SourcePosition
        starts = self._line_starts
        n_lines = len(starts)
        result: List[Token] = []
        append = result.append
        # Tokens arrive in offset order, so the current line is tracked
        # incrementally instead of bisecting per token: ``line_start``
        # is the offset where the current line begins and ``next_start``
        # where the following one does (or past-the-end when on the
        # last line, so the catch-up test is a single comparison).
        line = 1
        line_start = 0
        next_start = starts[1] if n_lines > 1 else length + 1
        index = 0
        while index < length:
            ch = source[index]
            cat = category(ch)
            if cat == _NAME:
                found = name_match(source, index)
                text = found.group()
                kind = "keyword" if text in keywords else "ident"
                end = found.end()
            elif cat == _PUNCT:
                kind = text = ch
                end = index + 1
            elif cat == _SKIP or cat == _SLASH:
                found = skip(source, index)
                if found is not None:
                    index = found.end()
                    continue
                # Only "/" can fail the skip match: it is a division
                # operator unless it opens a comment that never closes.
                if source.startswith("/*", index):
                    raise LexError(
                        "unterminated block comment", self._pos(index)
                    )
                kind = text = "/"
                end = index + 1
            elif cat == _NUM:
                found = num_match(source, index)
                text = found.group()
                kind = "int"
                end = found.end()
            elif cat == _MAYBE_EQ:
                end = index + 1
                if end < length and source[end] == "=":
                    end += 1
                kind = text = source[index:end]
            elif cat == _DOUBLED:
                end = index + 2
                if source[index + 1 : end] != ch:
                    raise LexError(
                        f"unexpected character {ch!r}", self._pos(index)
                    )
                kind = text = ch + ch
            else:
                raise LexError(
                    f"unexpected character {ch!r}", self._pos(index)
                )
            while index >= next_start:
                line += 1
                line_start = next_start
                next_start = starts[line] if line < n_lines else length + 1
            append(token(kind, text, position(line, index - line_start + 1)))
            index = end
        append(token(EOF_KIND, "", self._pos(length)))
        return result


def tokenize(source: str) -> Sequence[Token]:
    """Tokenize ``source``, appending a single end-of-file token.

    Returns an immutable tuple.
    """
    return tuple(Lexer(source).scan())
