"""Pretty-printer tests: output parses back to a structurally equal AST."""

import pytest

from repro.lang import ast, parse_expr, parse_program
from repro.lang.pretty import pretty_expr, pretty_program

from tests.programs import (
    OT_SOURCE,
    OT_S_SOURCE,
    PINGPONG_SOURCE,
    SIMPLE_SOURCE,
)


def ast_equal(a, b) -> bool:
    """Structural AST equality, ignoring where the text came from
    (positions)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (ast.Node,)):
        for slot_holder in type(a).__mro__:
            for slot in getattr(slot_holder, "__slots__", ()):
                if slot == "pos":
                    continue
                if not ast_equal(getattr(a, slot), getattr(b, slot)):
                    return False
        return True
    if isinstance(a, list):
        return len(a) == len(b) and all(
            ast_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


class TestExprPrinting:
    @pytest.mark.parametrize(
        "source",
        [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "a - b - c",
            "a - (b - c)",
            "!done && x < 10 || y == z",
            "node.next.val",
            "this.m1",
            "new Node()",
            "declassify(tmp1, {Bob:})",
            "endorse(n, {?:Alice})",
            "transfer(n, 2)",
            "-x % 7",
            "a / b / c",
        ],
    )
    def test_round_trip(self, source):
        original = parse_expr(source)
        printed = pretty_expr(original)
        reparsed = parse_expr(printed)
        assert ast_equal(original, reparsed), printed

    def test_precedence_parens_only_when_needed(self):
        assert pretty_expr(parse_expr("1 + 2 * 3")) == "1 + 2 * 3"
        assert pretty_expr(parse_expr("(1 + 2) * 3")) == "(1 + 2) * 3"

    def test_right_assoc_parens(self):
        assert pretty_expr(parse_expr("a - (b - c)")) == "a - (b - c)"


class TestProgramPrinting:
    @pytest.mark.parametrize(
        "source",
        [OT_SOURCE, OT_S_SOURCE, SIMPLE_SOURCE, PINGPONG_SOURCE],
        ids=["OT", "OT_S", "Simple", "PingPong"],
    )
    def test_round_trip(self, source):
        original = parse_program(source)
        printed = pretty_program(original)
        reparsed = parse_program(printed)
        assert ast_equal(original, reparsed), printed

    def test_workload_sources_round_trip(self):
        from repro.workloads import listcompare, ot, tax, work

        for module in (listcompare, ot, tax, work):
            original = parse_program(module.source())
            reparsed = parse_program(pretty_program(original))
            assert ast_equal(original, reparsed), module.__name__

    def test_printed_program_still_typechecks(self):
        from repro.lang import check_source

        printed = pretty_program(parse_program(OT_SOURCE))
        check_source(printed)

    def test_array_program_round_trips(self):
        source = """
        class A {
          void m{?:Alice}() {
            int{Alice:; ?:Alice}[] xs = new int[4];
            xs[0] = xs.length + 1;
            int{Alice:} v = xs[0];
          }
        }
        """
        original = parse_program(source)
        reparsed = parse_program(pretty_program(original))
        assert ast_equal(original, reparsed)

    def test_labels_render_parseably(self):
        source = """
        class C {
          int{Alice: Bob, Carol; ?:Alice} x;
          void m{?: *}() { return; }
        }
        """
        original = parse_program(source)
        reparsed = parse_program(pretty_program(original))
        assert ast_equal(original, reparsed)
