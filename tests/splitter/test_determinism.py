"""Determinism of the optimizer and the fault-sweep drivers.

The splitter is a pure function of (program, trust configuration):
repeated runs must produce identical placements — statement
uids are allocated from a global counter, so statement hosts are
compared by structural (method, walk-order) position rather than uid.

Every fault schedule and crash point is seeded by its key alone, so
sweeping the same split twice gives identical outcomes.
"""

import contextlib

import pytest

from repro.progen import config as progen_config
from repro.progen import generate_program
from repro.runtime.faultsweep import crash_point_sweep, sweep
from repro.runtime.trace import recorded_run
from repro.splitter import cache as split_cache
from repro.splitter import ir, split_source
from repro.workloads import ot

from tests.programs import OT_SOURCE, config_abt, heuristic_placement


def _placement(result):
    """An (uid-free) structural snapshot of a complete assignment."""
    return (
        sorted(result.assignment.fields.items()),
        {
            mkey: [
                result.assignment.statements[stmt.info.uid]
                for stmt in ir.walk_stmts(method.body)
            ]
            for mkey, method in result.program.methods.items()
        },
    )


@pytest.mark.parametrize("engine", ["heuristic", "auto"])
def test_assignment_identical_across_repeated_runs(engine):
    # "heuristic" takes the chain-DP solver on every instance, "auto"
    # the default (the exact cut where the instance reduces).
    placement = (
        heuristic_placement if engine == "heuristic" else contextlib.nullcontext
    )
    cases = [
        (generate_program(7), progen_config),
        (OT_SOURCE, config_abt),
    ]
    for source, config_factory in cases:
        with placement():
            snapshots = [
                _placement(split_source(source, config_factory()))
                for _ in range(3)
            ]
        assert snapshots[0] == snapshots[1] == snapshots[2]


def test_cached_and_uncached_splits_observably_identical():
    """The split cache is a pure accelerator: a split served from the
    memory tier must behave bit-identically to a fresh compile."""

    def run(split):
        outcome, messages = recorded_run(split)
        return (
            {key: outcome.field_value(*key) for key in sorted(split.fields)},
            dict(outcome.counts),
            outcome.elapsed,
            [(m.kind, m.src, m.dst) for m in messages],
        )

    split_cache.clear()
    split_source(OT_SOURCE, config_abt())  # populate the memory tier
    warm = split_source(OT_SOURCE, config_abt())
    assert warm.cached
    split_cache.clear()
    fresh = split_source(OT_SOURCE, config_abt())
    assert not fresh.cached
    assert run(warm.split) == run(fresh.split)
    split_cache.clear()


def _sweep_outcomes(report):
    return [
        (o.key, o.status, o.detail, o.fault_counts) for o in report.outcomes
    ]


def _figure4_split():
    return split_source(ot.source(rounds=1), ot.config()).split


# The next two tests keep the names they had when a sweep could be
# spread over worker processes; sweeps now run in one process, so they
# compare two runs of the same sweep over Figure 4's split.


def test_fault_sweep_identical_across_jobs():
    """Two seeded schedule sweeps agree outcome for outcome, and they
    inject faults."""
    split = _figure4_split()
    first, second = (sweep(split, schedules=6) for _ in range(2))
    assert _sweep_outcomes(first) == _sweep_outcomes(second)
    assert first.failures == second.failures
    assert first.oracle == second.oracle
    assert any(
        o.fault_counts.get(kind)
        for o in first.outcomes
        for kind in ("drop", "duplicate", "reorder", "crash")
    )


def test_crash_point_sweep_identical_across_jobs():
    """Two crash-point sweeps agree outcome for outcome, and crash
    points fire."""
    split = _figure4_split()
    first, second = (crash_point_sweep(split, per_point=1) for _ in range(2))
    assert _sweep_outcomes(first) == _sweep_outcomes(second)
    assert first.failures == second.failures
    # An "ok" crash point fired: one that is never reached fails.
    assert any(o.status == "ok" for o in first.outcomes)
