"""End-to-end execution tests: the partitioned program must compute
exactly what the single-host reference interpreter computes."""

import pytest

from repro.runtime import run_single_host, run_split_program
from repro.splitter import split_source

from tests.programs import (
    OT_SOURCE,
    OT_S_SOURCE,
    PINGPONG_SOURCE,
    SIMPLE_SOURCE,
    config_abs,
    config_abt,
    single_host_config,
)


def run_both(source, config):
    result = split_source(source, config)
    distributed = run_split_program(result.split)
    oracle = run_single_host(source)
    return result, distributed, oracle


class TestSemanticEquivalence:
    def test_ot_matches_oracle(self):
        result, distributed, oracle = run_both(OT_SOURCE, config_abt())
        assert distributed.main_var("r") == 100
        assert (
            distributed.field_value("OTExample", "isAccessed")
            == oracle.fields[("OTExample", "isAccessed", None)]
        )

    def test_ot_on_s_matches_oracle(self):
        result, distributed, oracle = run_both(OT_S_SOURCE, config_abs())
        assert distributed.main_var("r") == 100

    def test_simple_loop(self):
        result, distributed, oracle = run_both(
            SIMPLE_SOURCE, single_host_config()
        )
        expected = sum(i * i for i in range(10))
        assert distributed.field_value("Simple", "total") == expected
        assert oracle.fields[("Simple", "total", None)] == expected

    def test_pingpong(self):
        result, distributed, oracle = run_both(PINGPONG_SOURCE, config_abt())
        expected = sum(7 + i for i in range(5))
        assert distributed.field_value("PingPong", "aliceTotal") == expected
        assert oracle.fields[("PingPong", "aliceTotal", None)] == expected

    def test_no_audit_entries_for_honest_run(self):
        _, distributed, _ = run_both(OT_SOURCE, config_abt())
        assert distributed.audits == []

    def test_single_host_config_uses_no_network(self):
        result = split_source(OT_SOURCE, single_host_config())
        distributed = run_split_program(result.split)
        assert distributed.counts["total_messages"] == 0
        assert distributed.main_var("r") == 100

    def test_else_branch_of_ot(self):
        source = OT_SOURCE.replace("request = 1;", "request = 2;")
        result = split_source(source, config_abt())
        distributed = run_split_program(result.split)
        assert distributed.main_var("r") == 200

    def test_objects_and_references(self):
        source = """
        class Node {
          int{Alice:; ?:Alice} val;
          Node{Alice:; ?:Alice} next;
        }
        class Builder {
          int{Alice:; ?:Alice} total;
          void main{?:Alice}() {
            Node{Alice:; ?:Alice} head = new Node();
            head.val = 1;
            Node{Alice:; ?:Alice} second = new Node();
            second.val = 2;
            head.next = second;
            total = head.val + head.next.val;
          }
        }
        """
        result = split_source(source, config_abt())
        distributed = run_split_program(result.split)
        assert distributed.field_value("Builder", "total") == 3

    def test_arithmetic_matches_java_semantics(self):
        source = """
        class Arith {
          int{Alice:; ?:Alice} q;
          int{Alice:; ?:Alice} r;
          void main{?:Alice}() {
            int{Alice:; ?:Alice} a = 0 - 7;
            q = a / 2;
            r = a % 2;
          }
        }
        """
        result = split_source(source, single_host_config())
        distributed = run_split_program(result.split)
        # Java: -7 / 2 == -3, -7 % 2 == -1.
        assert distributed.field_value("Arith", "q") == -3
        assert distributed.field_value("Arith", "r") == -1
        oracle = run_single_host(source)
        assert oracle.fields[("Arith", "q", None)] == -3
        assert oracle.fields[("Arith", "r", None)] == -1

    def test_nested_calls(self):
        source = """
        class Nest {
          int{Alice:; ?:Alice} out;
          int{Alice:; ?:Alice} twice{?:Alice}(int{Alice:; ?:Alice} x) {
            return x + x;
          }
          int{Alice:; ?:Alice} quad{?:Alice}(int{Alice:; ?:Alice} x) {
            return twice(twice(x));
          }
          void main{?:Alice}() {
            out = quad(3);
          }
        }
        """
        result = split_source(source, config_abt())
        distributed = run_split_program(result.split)
        assert distributed.field_value("Nest", "out") == 12

    def test_recursion(self):
        source = """
        class Fact {
          int{Alice:; ?:Alice} out;
          int{Alice:; ?:Alice} fact{Alice:; ?:Alice}(int{Alice:; ?:Alice} n) {
            if (n <= 1) return 1;
            else return n * fact(n - 1);
          }
          void main{?:Alice}() {
            out = fact(6);
          }
        }
        """
        result = split_source(source, config_abt())
        distributed = run_split_program(result.split)
        assert distributed.field_value("Fact", "out") == 720
        oracle = run_single_host(source)
        assert oracle.fields[("Fact", "out", None)] == 720

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize(
        "config", [config_abt, single_host_config], ids=["abt", "single"]
    )
    def test_returned_null_is_assigned(self, config, level):
        """A call whose method returns ``null`` assigns it: the second
        round's ``n`` is null, not the first round's node."""
        source = """
        class Node { int{Alice:; ?:Alice} val; }
        class Picker {
          int{Alice:; ?:Alice} out;
          Node{Alice:; ?:Alice} pick{Alice:; ?:Alice}(int{Alice:; ?:Alice} k) {
            if (k == 0) return new Node();
            else return null;
          }
          void main{?:Alice}() {
            int{Alice:; ?:Alice} i = 0;
            out = 0;
            while (i < 2) {
              Node{Alice:; ?:Alice} n = pick(i);
              if (n == null) out = out + 10;
              else out = out + 1;
              i = i + 1;
            }
          }
        }
        """
        oracle = run_single_host(source)
        assert oracle.fields[("Picker", "out", None)] == 11
        split = split_source(source, config()).split
        distributed = run_split_program(split, opt_level=level)
        assert distributed.field_value("Picker", "out") == 11


class TestOptimizationLevels:
    def test_levels_agree_on_results(self):
        result = split_source(OT_SOURCE, config_abt())
        values = []
        for level in (0, 1, 2):
            distributed = run_split_program(result.split, opt_level=level)
            values.append(distributed.main_var("r"))
        assert values == [100, 100, 100]

    def test_piggybacking_reduces_messages(self):
        result = split_source(OT_SOURCE, config_abt())
        unoptimized = run_split_program(result.split, opt_level=0)
        optimized = run_split_program(result.split, opt_level=1)
        assert (
            optimized.counts["total_messages"]
            < unoptimized.counts["total_messages"]
        )
        assert optimized.counts["eliminated"] > 0
        assert unoptimized.counts["eliminated"] == 0

    def test_level2_cuts_return_forwards(self):
        result = split_source(PINGPONG_SOURCE, config_abt())
        level1 = run_split_program(result.split, opt_level=1)
        level2 = run_split_program(result.split, opt_level=2)
        assert (
            level2.counts["total_messages"]
            <= level1.counts["total_messages"]
        )

    def test_elapsed_time_tracks_messages(self):
        result = split_source(OT_SOURCE, config_abt())
        unoptimized = run_split_program(result.split, opt_level=0)
        optimized = run_split_program(result.split, opt_level=1)
        assert optimized.elapsed < unoptimized.elapsed


class TestControlProfile:
    def test_ot_profile_has_figure4_shape(self):
        """One oblivious transfer: B returns its choice via a one-shot
        capability (lgoto), control moves by rgoto, data is piggybacked."""
        result = split_source(OT_SOURCE, config_abt())
        distributed = run_split_program(result.split)
        counts = distributed.counts
        assert counts["lgoto"] >= 2  # B's return and transfer's return
        assert counts["rgoto"] >= 2
        assert counts["eliminated"] >= 3  # choice, n, tmp1/tmp2 piggybacked

    def test_loop_pingpong_profile(self):
        """Each iteration whose body leaves the guard's host costs one
        rgoto down and one lgoto back (the Work benchmark's shape)."""
        result = split_source(PINGPONG_SOURCE, config_abt())
        distributed = run_split_program(result.split)
        counts = distributed.counts
        assert distributed.field_value("PingPong", "aliceTotal") == 45
        # No getField in steady state if placement co-locates data.
        assert counts["total_messages"] >= 0
