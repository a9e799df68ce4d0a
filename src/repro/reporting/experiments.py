"""Machine-readable experiment runner.

Executes every reproduced experiment and returns one nested dictionary —
the data behind EXPERIMENTS.md.  ``python -m repro.reporting.experiments``
prints it as JSON.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from ..runtime import Adversary, RuntimeImage, Session, run_split_program
from ..splitter import SplitError, split_source
from ..workloads import (
    listcompare,
    ot,
    run_ot_handcoded,
    run_tax_handcoded,
    tax,
    work,
)
from .table1 import PAPER_TABLE1, measure


def table1_experiment() -> Dict[str, Any]:
    measured = measure()
    return {
        "measured": {
            name: {k: v for k, v in cells.items()}
            for name, cells in measured.items()
        },
        "paper": PAPER_TABLE1,
        "slowdowns": {
            "OT": {
                "measured": measured["OT"]["elapsed"]
                / measured["OT-h"]["elapsed"],
                "paper": 1.17,
            },
            "Tax": {
                "measured": measured["Tax"]["elapsed"]
                / measured["Tax-h"]["elapsed"],
                "paper": 2.17,
            },
        },
    }


def overheads_experiment() -> Dict[str, Any]:
    results: Dict[str, Any] = {}
    for name, module in (("List", listcompare), ("OT", ot), ("Tax", tax),
                         ("Work", work)):
        outcome = module.run()
        network = outcome.execution.network
        results[name] = {
            "check_fraction": network.check_time / network.clock,
            "hash_fraction": network.hash_time / network.clock,
        }
    results["paper"] = {"check_bound": 0.06, "hash_approx": 0.15}
    return results


def optimization_experiment() -> Dict[str, Any]:
    results: Dict[str, Any] = {}
    for name, module in (("List", listcompare), ("OT", ot), ("Tax", tax),
                         ("Work", work)):
        by_level = {}
        for level in (0, 1, 2):
            outcome = module.run(opt_level=level)
            by_level[level] = {
                "total_messages": outcome.counts["total_messages"],
                "forwards": outcome.counts["forward"],
                "eliminated": outcome.counts["eliminated"],
            }
        raw = by_level[0]["forwards"]
        eliminated = by_level[1]["eliminated"]
        by_level["forward_reduction"] = (
            eliminated / raw if raw else None
        )
        results[name] = by_level
    return results


def scenario_experiment() -> Dict[str, Any]:
    """Section 4.2's host scenarios, self-contained."""
    from ..trust import TrustConfiguration, example_hosts

    hosts = example_hosts()
    naive = ot.source(rounds=1).replace(
        """    int tmp1 = m1;
    int tmp2 = m2;
""", "").replace("declassify(tmp1", "declassify(m1").replace(
        "declassify(tmp2", "declassify(m2")
    outcomes = {}

    def attempt(name, source, host_names):
        config = TrustConfiguration([hosts[h] for h in host_names])
        try:
            split_source(source, config)
            outcomes[name] = "splits"
        except SplitError:
            outcomes[name] = "rejected"

    attempt("naive_AB", naive, ["A", "B"])
    attempt("naive_ABT", naive, ["A", "B", "T"])
    attempt("naive_ABS", naive, ["A", "B", "S"])
    return {
        "outcomes": outcomes,
        "paper": {
            "naive_AB": "rejected",
            "naive_ABT": "splits",
            "naive_ABS": "rejected",
        },
    }


def attack_experiment() -> Dict[str, Any]:
    result = split_source(ot.source(rounds=1), ot.config())
    executor = Session(RuntimeImage.for_split(result.split))
    adversary = Adversary(executor, "B")
    executor.run()
    adversary.try_get_field("OTBench", "m1")
    adversary.try_get_field("OTBench", "m2")
    adversary.try_set_field("OTBench", "isAccessed", False)
    transfer_entry = result.split.methods[("OTBench", "transfer")].entry
    adversary.try_rgoto(transfer_entry)
    adversary.try_sync(transfer_entry)
    adversary.try_forged_lgoto(result.split.main_entry)
    for token in adversary.captured_tokens:
        adversary.try_replay(token)
    adversary.try_wrong_program("OTBench", "m1")
    return {
        "attempts": len(adversary.reports),
        "rejected": sum(1 for r in adversary.reports if r.rejected),
        "all_rejected": adversary.all_rejected(),
    }


def run_all() -> Dict[str, Any]:
    """Run every experiment; keys mirror EXPERIMENTS.md sections."""
    return {
        "table1": table1_experiment(),
        "overheads": overheads_experiment(),
        "optimizations": optimization_experiment(),
        "read_channel_scenarios": scenario_experiment(),
        "attacks": attack_experiment(),
    }


def main() -> None:
    print(json.dumps(run_all(), indent=2, default=str))


if __name__ == "__main__":
    main()
