"""Determinism of the optimizer and the parallel sweep drivers.

The splitter is a pure function of (program, trust configuration,
engine): repeated runs must produce identical placements — statement
uids are allocated from a global counter, so statement hosts are
compared by structural (method, walk-order) position rather than uid.

The ``--jobs`` drivers must be invisible: a parallel fault or
crash-point sweep aggregates per-item results in submission order, so
every report field is identical to a serial run.
"""

import pytest

from repro import parallel
from repro.progen import config as progen_config
from repro.progen import generate_program
from repro.runtime.executor import run_split_program
from repro.runtime.faultsweep import crash_point_sweep, sweep
from repro.splitter import cache as split_cache
from repro.splitter import ir, split_source

from tests.programs import OT_SOURCE, config_abt

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
    cases = [
        (generate_program(7), progen_config),
        (OT_SOURCE, config_abt),
    ]
    for source, config_factory in cases:
        snapshots = [
            _placement(split_source(source, config_factory(), engine=engine))
            for _ in range(3)
        ]
        assert snapshots[0] == snapshots[1] == snapshots[2]


def test_cached_and_uncached_splits_observably_identical(
    tmp_path, monkeypatch
):
    """The split cache is a pure accelerator: a split served from the
    durable artifact tier must behave bit-identically to one produced
    with the cache disabled outright."""

    def run(split):
        outcome = run_split_program(split)
        return (
            {key: outcome.field_value(*key) for key in sorted(split.fields)},
            dict(outcome.counts),
            outcome.elapsed,
            [(m.kind, m.src, m.dst) for m in outcome.network.message_log],
        )

    monkeypatch.setenv(split_cache.ENV_FLAG, "0")
    split_cache.clear()
    uncached = run(split_source(OT_SOURCE, config_abt()).split)

    monkeypatch.setenv(split_cache.ENV_FLAG, "1")
    monkeypatch.setenv(split_cache.ENV_DIR, str(tmp_path))
    split_cache.clear()
    split_source(OT_SOURCE, config_abt())  # populate both tiers
    split_cache.clear()  # forget memory so the artifact tier serves
    warm = split_source(OT_SOURCE, config_abt())
    assert warm.cached
    assert split_cache.stats()["split.disk"]["hits"] == 1
    assert run(warm.split) == uncached
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
        (o.seed, o.status, o.detail, o.fault_counts)
        for o in serial.schedules
    ] == [
        (o.seed, o.status, o.detail, o.fault_counts)
        for o in forked.schedules
    ]
    assert serial.failures == forked.failures
    assert serial.reference == forked.reference


@fork_only
def test_crash_point_sweep_identical_across_jobs():
    result = split_source(generate_program(11), progen_config())
    reports = {
        jobs: crash_point_sweep(result.split, per_point=1, jobs=jobs)
        for jobs in (1, 3)
    }
    serial, forked = reports[1], reports[3]
    assert [
        (p.host, p.kind, p.occurrence, p.status, p.detail)
        for p in serial.points
    ] == [
        (p.host, p.kind, p.occurrence, p.status, p.detail)
        for p in forked.points
    ]
    assert serial.failures == forked.failures
