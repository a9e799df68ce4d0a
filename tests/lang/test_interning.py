"""Names are interned: one string object per name, process-wide.

The lexer interns every name text and the splitter every entry name it
mints, so the AST, the split, its runtime image and its split-cache
entry all hold the same string for one name, however many programs
mention it.  ``test_lexer_differential.py`` separately pins the token
stream itself unchanged.
"""

import sys
from unittest import mock

from repro.lang import tokenize
from repro.splitter import cache, split_source
from repro.workloads import ot, tax


def _fresh(*parts):
    """A string equal to ``"".join(parts)`` that is not a code constant
    (constants of this module are interned by the compiler)."""
    return "".join(parts)


def _text(tokens, kind):
    return next(token.text for token in tokens if token.kind == kind)


def test_identifier_texts_of_two_tokenize_calls_are_one_object():
    name = _fresh("interned", "Name")
    first = tokenize(_fresh("int ", name, ";"))
    second = tokenize(_fresh("x = ", name, " + 1;"))
    assert [t.text for t in first if t.kind == "ident"] == [name]
    texts = [t.text for t in second if t.kind == "ident" and t.text == name]
    assert texts[0] is _text(first, "ident")
    assert texts[0] is sys.intern(name)


def test_keyword_texts_are_interned():
    keyword = _text(tokenize(_fresh("whi", "le")), "keyword")
    assert keyword is sys.intern("while")


def test_entry_names_are_interned():
    with mock.patch.dict(cache._MEMORY, clear=True):
        first = split_source(ot.source(), ot.config()).split
    with mock.patch.dict(cache._MEMORY, clear=True):
        second = split_source(ot.source(), ot.config()).split
    assert first is not second
    for entry, fragment in first.fragments.items():
        assert sys.intern(entry) is entry
        assert fragment.entry is entry
        assert second.fragments[entry].entry is entry
    assert sys.intern(first.main_entry) is first.main_entry


def test_split_cache_entry_holds_the_splits_names():
    cache.clear()
    try:
        source, config = tax.source(), tax.config()
        split = split_source(source, config).split
        entry = cache._MEMORY[cache.split_key(source, config)]
        for encoded in entry["fragments"]:
            fragment = split.fragments[encoded["entry"]]
            assert encoded["entry"] is fragment.entry
            assert encoded["method"][1] is fragment.method_key[1]
            assert sys.intern(fragment.method_key[1]) is fragment.method_key[1]
        for encoded in entry["fields"]:
            assert sys.intern(encoded["field"]) is encoded["field"]
    finally:
        cache.clear()
