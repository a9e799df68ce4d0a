"""Determinism of the optimizer and the parallel sweep drivers.

The splitter is a pure function of (program, trust configuration):
repeated runs must produce identical placements — statement
uids are allocated from a global counter, so statement hosts are
compared by structural (method, walk-order) position rather than uid.

The ``--jobs`` drivers must be invisible: a parallel fault or
crash-point sweep aggregates per-item results in submission order, so
every report field is identical to a serial run.
"""

import contextlib

import pytest

from repro import parallel
from repro.progen import config as progen_config
from repro.progen import generate_program
from repro.runtime.faultsweep import crash_point_sweep, sweep
from repro.runtime.trace import recorded_run
from repro.splitter import cache as split_cache
from repro.splitter import ir, split_source

from tests.programs import OT_SOURCE, config_abt, heuristic_placement

fork_only = pytest.mark.skipif(
    not parallel.fork_available(),
    reason="no fork start method on this platform",
)


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


@fork_only
def test_fault_sweep_identical_across_jobs():
    result = split_source(generate_program(11), progen_config())
    reports = {
        jobs: sweep(result.split, schedules=6, jobs=jobs)
        for jobs in (1, 3)
    }
    serial, forked = reports[1], reports[3]
    assert [
        (o.key, o.status, o.detail, o.fault_counts)
        for o in serial.outcomes
    ] == [
        (o.key, o.status, o.detail, o.fault_counts)
        for o in forked.outcomes
    ]
    assert serial.failures == forked.failures
    assert serial.oracle == forked.oracle


@fork_only
def test_crash_point_sweep_identical_across_jobs():
    result = split_source(generate_program(11), progen_config())
    reports = {
        jobs: crash_point_sweep(result.split, per_point=1, jobs=jobs)
        for jobs in (1, 3)
    }
    serial, forked = reports[1], reports[3]
    assert [
        (p.key, p.status, p.detail) for p in serial.outcomes
    ] == [
        (p.key, p.status, p.detail) for p in forked.outcomes
    ]
    assert serial.failures == forked.failures
