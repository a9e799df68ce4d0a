"""Seeded fault-injection sweeps.

Fifty schedules over the Figure 4 oblivious-transfer example, five
over each request-sized Table 1 workload plus Medical, and seventeen
over each of three random programs: every schedule must either
complete with the fault-free result — message-label assurance checked
on everything delivered, with no exemption for the fault-free run — or
fail closed with an explicit timeout.  Never a wrong answer.
"""

import pytest

from repro.cli import main as cli_main
from repro.reporting.throughput import request_workloads
from repro.runtime import storage
from repro.runtime.faultsweep import crash_point_sweep, sweep
from repro.splitter import split_source
from repro.workloads import ot

from repro.progen import config, generate_program

RANDOM_PROGRAM_SEEDS = [2, 5, 9]


def test_fig4_sweep_fifty_schedules():
    result = split_source(ot.source(rounds=1), ot.config())
    report = sweep(result.split, schedules=50, base_seed=11, name="fig4")
    assert report.failures == [], report.summary()
    assert report.completed + report.timeouts == 50
    assert report.completed > 0
    injected = sum(
        sum(s.fault_counts.values()) for s in report.outcomes
    )
    assert injected > 0, "the sweep never injected a fault"


@pytest.mark.parametrize("name", sorted(request_workloads()))
def test_request_workload_sweep(name):
    source, trust = request_workloads()[name]
    split = split_source(source, trust).split
    report = sweep(split, schedules=5, name=name)
    assert report.failures == [], report.summary()
    assert report.completed + report.timeouts == 5


@pytest.mark.parametrize("prog_seed", RANDOM_PROGRAM_SEEDS)
def test_random_program_sweep(prog_seed):
    source = generate_program(prog_seed)
    split = split_source(source, config()).split
    report = sweep(
        split, schedules=17, base_seed=100 + prog_seed,
        name=f"randprog-{prog_seed}",
    )
    assert report.failures == [], f"{report.summary()}\n{source}"
    assert report.completed + report.timeouts == 17


def test_sweep_is_reproducible():
    result = split_source(ot.source(rounds=1), ot.config())

    def statuses():
        report = sweep(result.split, schedules=8, base_seed=3)
        return [
            (s.key, s.status, s.fault_counts) for s in report.outcomes
        ]

    assert statuses() == statuses()


def test_cli_faultsweep_smoke(capsys):
    assert cli_main(["faultsweep", "--schedules", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "5 schedules" in out
    assert "0 FAILED" in out


def test_durable_sweeps_over_sqlite():
    """``storage="sqlite"`` runs every crash point and schedule over its
    own SQLite tier: verdicts are unchanged and boundaries are sealed."""
    split = split_source(ot.source(rounds=1), ot.config()).split
    for run in (
        lambda: crash_point_sweep(split, storage="sqlite"),
        lambda: sweep(split, schedules=5, storage="sqlite"),
    ):
        before = storage.stats()["boundaries"]
        report = run()
        assert report.failures == [], report.summary()
        assert storage.stats()["boundaries"] > before
    with pytest.raises(ValueError, match="storage mode"):
        sweep(split, schedules=1, storage="postgres")
