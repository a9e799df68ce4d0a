"""Per-seed pins of the simulated network's behaviour under faults.

``repro faultsweep`` reports only totals, so a change to the
reliable-delivery layer that shifted one retransmission timer, or
consumed one extra fault-RNG draw, could leave every verdict intact
while silently moving the schedules.  This file pins, for every
``random_policy`` seed 0-39 on Figure 4's oblivious transfer and on the
Tax workload, what a schedule observably did:

* how it ended (``ok`` or ``timeout``) and, for a timeout, the failing
  message's channel ``seq`` and attempt count;
* ``counts["messages"]``, retransmissions and duplicates included;
* the simulated clock, bit for bit (``float.hex``);
* the fault-event counts.

The ``tight`` leg reruns every seed under a retry budget small enough
that many schedules fail closed, so the timeout path is pinned too.
The pinned values live in ``fault_schedule_pins.json`` beside this
file; ``python tests/runtime/test_fault_schedule_pins.py`` prints them
afresh from the current code.
"""

import json
import os
import random

import pytest

from repro.runtime import RuntimeImage, Session
from repro.runtime.faults import FaultInjector, RetryPolicy
from repro.runtime.faultsweep import random_policy
from repro.runtime.network import DeliveryTimeoutError
from repro.splitter import split_source
from repro.workloads import ot, tax

PINS = os.path.join(os.path.dirname(__file__), "fault_schedule_pins.json")
SEEDS = range(40)
WORKLOADS = {
    "ot": lambda: (ot.source(rounds=1), ot.config()),
    "tax": lambda: (tax.source(), tax.config()),
}
LEGS = {
    "default": lambda: None,
    "tight": lambda: RetryPolicy(base_timeout=1e-4, max_retries=2),
}


def observe(split, seed, retry=None):
    """What one seeded schedule did, in JSON-comparable form."""
    policy = random_policy(random.Random(seed))
    executor = Session(
        RuntimeImage.for_split(split),
        faults=FaultInjector(policy, seed=seed),
        token_rng=random.Random(seed ^ 0x5EED),
    )
    if retry is not None:
        executor.network.retry = retry
    observed = {}
    try:
        executor.run()
        observed["status"] = "ok"
    except DeliveryTimeoutError as error:
        observed["status"] = "timeout"
        observed["seq"] = error.seq
        observed["attempts"] = error.attempts
    network = executor.network
    observed["messages"] = network.counts["messages"]
    observed["clock"] = network.clock.hex()
    observed["fault_counts"] = dict(sorted(network.fault_counts.items()))
    return observed


def observe_leg(workload, leg):
    source, config = WORKLOADS[workload]()
    split = split_source(source, config).split
    return [observe(split, seed, LEGS[leg]()) for seed in SEEDS]


def _pins():
    with open(PINS) as handle:
        return json.load(handle)


@pytest.mark.parametrize("leg", sorted(LEGS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_fault_schedules_are_pinned(workload, leg):
    expected = _pins()[f"{workload}/{leg}"]
    observed = observe_leg(workload, leg)
    for seed, (want, got) in enumerate(zip(expected, observed)):
        assert got == want, f"{workload}/{leg} seed {seed} moved"
    assert len(observed) == len(expected)


def test_pins_cover_both_endings():
    pins = _pins()
    statuses = {row["status"] for rows in pins.values() for row in rows}
    assert statuses == {"ok", "timeout"}


if __name__ == "__main__":
    # One schedule per line, so a moved seed shows as a one-line diff.
    lines = []
    for workload in sorted(WORKLOADS):
        for leg in sorted(LEGS):
            rows = ",\n".join(
                "   " + json.dumps(row, sort_keys=True)
                for row in observe_leg(workload, leg)
            )
            lines.append(f'  "{workload}/{leg}": [\n{rows}\n  ]')
    print("{\n" + ",\n".join(lines) + "\n}")
