"""Tests for host assignment: cost minimization, preferences, pins,
and the CFG-aware refinement (Section 6)."""

import pytest

from repro.lang import check_source
from repro.splitter import (
    SplitError,
    compute_candidates,
    lower_program,
    split_source,
)
from repro.splitter.mincut import build_cfg_edges
from repro.splitter.optimizer import assign_hosts
from repro.splitter import ir
from repro.trust import HostDescriptor, TrustConfiguration

from tests.programs import OT_SOURCE, config_abt


def assignment_for(source, config):
    checked = check_source(source)
    program = lower_program(checked)
    candidates = compute_candidates(checked, program, config)
    return program, assign_hosts(checked, program, config, candidates)


TWO_EQUAL_HOSTS = """
class C {
  int{Alice:; ?:Alice} data;
  void main{?:Alice}() {
    int{Alice:; ?:Alice} x = data;
    data = x + 1;
  }
}
"""


def equal_hosts_config():
    return TrustConfiguration(
        [
            HostDescriptor.of("H1", "{Alice:}", "{?:Alice}"),
            HostDescriptor.of("H2", "{Alice:}", "{?:Alice}"),
        ]
    )


class TestCoLocation:
    def test_statements_follow_field(self):
        program, assignment = assignment_for(
            TWO_EQUAL_HOSTS, equal_hosts_config()
        )
        field_host = assignment.fields[("C", "data")]
        for stmt in ir.walk_stmts(program.method("C", "main").body):
            assert assignment.statements[stmt.info.uid] == field_host

    def test_preference_moves_field_and_code(self):
        config = equal_hosts_config()
        config.set_preference("Alice", "H2", 0.5)
        program, assignment = assignment_for(TWO_EQUAL_HOSTS, config)
        assert assignment.fields[("C", "data")] == "H2"
        for stmt in ir.walk_stmts(program.method("C", "main").body):
            assert assignment.statements[stmt.info.uid] == "H2"

    def test_single_candidate_respected(self):
        program, assignment = assignment_for(OT_SOURCE, config_abt())
        # The endorse guard can only run on T.
        for stmt in ir.walk_stmts(
            program.method("OTExample", "transfer").body
        ):
            if stmt.info.downgrade_principals and isinstance(
                stmt, ir.IfStmt
            ):
                assert assignment.statements[stmt.info.uid] == "T"


class TestFieldPins:
    def test_pin_overrides_cost(self):
        config = equal_hosts_config()
        config.pin_field("C", "data", "H2")
        program, assignment = assignment_for(TWO_EQUAL_HOSTS, config)
        assert assignment.fields[("C", "data")] == "H2"

    def test_insecure_pin_rejected(self):
        config = config_abt()
        config.pin_field("OTExample", "m1", "B")
        with pytest.raises(SplitError):
            split_source(OT_SOURCE, config)

    def test_pin_to_unknown_host_rejected(self):
        from repro.trust import TrustError

        config = equal_hosts_config()
        with pytest.raises(TrustError):
            config.pin_field("C", "data", "Nowhere")


class TestLinkCosts:
    def test_cheap_link_attracts_placement(self):
        source = """
        class C {
          int{Alice:; ?:Alice} left;
          int{Alice:; ?:Alice} right;
          void main{?:Alice}() {
            int{?:Alice} i = 0;
            while (i < 10) {
              right = left + 1;
              left = right - 1;
              i = i + 1;
            }
          }
        }
        """
        config = TrustConfiguration(
            [
                HostDescriptor.of("H1", "{Alice:}", "{?:Alice}"),
                HostDescriptor.of("H2", "{Alice:}", "{?:Alice}"),
            ]
        )
        config.pin_field("C", "left", "H1")
        config.pin_field("C", "right", "H2")
        config.set_link_cost("H1", "H2", 1.0)
        program, assignment = assignment_for(source, config)
        # Both statements access both fields; with a cheap link the
        # assignment is still consistent and all statements placed.
        for stmt in ir.walk_stmts(program.method("C", "main").body):
            assert assignment.statements[stmt.info.uid] in ("H1", "H2")


class TestCfgEdges:
    def test_loop_back_edge_present(self):
        checked = check_source(
            """
            class C { void main() {
              int i = 0;
              while (i < 3) i = i + 1;
            } }
            """
        )
        program = lower_program(checked)
        body = program.method("C", "main").body
        loop = next(s for s in body if isinstance(s, ir.WhileStmt))
        edges = build_cfg_edges(body)
        back_edges = [
            (a, b) for a, b, _ in edges
            if b == loop.info.uid and a == loop.body[-1].info.uid
        ]
        assert back_edges

    def test_branch_edges_present(self):
        checked = check_source(
            """
            class C { void main() {
              boolean g = true; int y = 0;
              if (g) y = 1; else y = 2;
              y = 3;
            } }
            """
        )
        program = lower_program(checked)
        body = program.method("C", "main").body
        if_stmt = next(s for s in body if isinstance(s, ir.IfStmt))
        edges = build_cfg_edges(body)
        sources = {a for a, b, _ in edges if b == if_stmt.then_body[0].info.uid}
        assert if_stmt.info.uid in sources

    def test_loop_edges_weighted_deeper(self):
        checked = check_source(
            """
            class C { void main() {
              int i = 0;
              while (i < 3) i = i + 1;
              i = 0;
            } }
            """
        )
        program = lower_program(checked)
        body = program.method("C", "main").body
        edges = build_cfg_edges(body)
        depths = {depth for _, _, depth in edges}
        assert 0 in depths and 1 in depths

    def test_return_branch_has_no_fallthrough_edge(self):
        checked = check_source(
            """
            class C { int main() {
              boolean g = true;
              if (g) return 1;
              return 2;
            } }
            """
        )
        program = lower_program(checked)
        body = program.method("C", "main").body
        if_stmt = next(s for s in body if isinstance(s, ir.IfStmt))
        ret = if_stmt.then_body[-1]
        edges = build_cfg_edges(body)
        assert not any(a == ret.info.uid for a, _, _ in edges)
