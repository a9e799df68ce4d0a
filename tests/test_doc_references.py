"""Every test a claims document cites must exist.

EXPERIMENTS.md and DESIGN.md point each paper claim at the test that
asserts it, as ``<dir>/test_<name>.py`` or ``<dir>/test_<name>.py::Name``
(``::name`` again for a method).  A moved or renamed test leaves such a
pointer dangling; this finds it.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("EXPERIMENTS.md", "DESIGN.md")
REFERENCE = re.compile(r"[\w/]+/test_\w+\.py(?:::\w+)*")


def references():
    return sorted({
        (doc, match.group())
        for doc in DOCS
        for match in REFERENCE.finditer((ROOT / doc).read_text())
    })


def resolves(body, names):
    """Whether ``names`` is a chain of class/function definitions
    starting at ``body``."""
    for name in names:
        scope = {
            node.name: node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        }
        if name not in scope:
            return False
        body = scope[name].body
    return True


def test_documents_cite_tests():
    assert {doc for doc, _ in references()} == set(DOCS)


@pytest.mark.parametrize("doc,reference", references())
def test_reference_resolves(doc, reference):
    path, *names = reference.split("::")
    source = ROOT / path
    assert source.is_file(), f"{doc} cites missing file {path}"
    tree = ast.parse(source.read_text())
    assert resolves(tree.body, names), f"{doc} cites missing {reference}"
