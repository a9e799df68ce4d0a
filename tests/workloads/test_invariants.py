"""Pinned run invariants: observables no change to the runtime may move.

Three groups, each checked on the solo ``Session`` oracle,
on a pooled session run, reset in place and run again, and on one
interleaved ``MultiSessionDriver`` pass over every program at once:

* the four full-size Table 1 workloads: total messages and simulated
  seconds (rounded to 6 places);
* the five request-sized workloads of
  :func:`repro.reporting.throughput.request_workloads`: the full
  message-count table, simulated seconds and per-host ICS depths;
* the generated aggregation program at 2, 4, 8 and 16 data owners:
  total messages, keyed by principal count (owners plus the client).

The values are copied byte-for-byte from the ``current.invariants`` and
``current.throughput.invariants`` sections of the newest bench baseline
checked in at commit f48e1d7: the highest-numbered ``BENCH_*.json`` in
``git ls-tree --name-only f48e1d7``.  One value has moved since, on
purpose: request-sized Medical went from 24 to 12 messages (0.007947 to
0.004076 simulated seconds) when array allocations became subject to
the field rule C(L) ⊑ C_h, which keeps its clinic-only ``readings``
array off LabHost.

The module also holds the work-count guard for pooled runs (nothing is
rebuilt per request after the first run), the retention guard (after a
warm-up, pooled runs grow the traced heap by a small bound at most)
and the cross-process warm split-cache check (a second interpreter
serves every Table 1 split from the disk tier with identical
invariants).
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

import repro
from repro.reporting.throughput import (
    aggregation_config,
    aggregation_source,
    request_workloads,
)
from repro.runtime import (
    Session,
    MultiSessionDriver,
    RuntimeImage,
    SessionPool,
)
from repro.splitter import split_source
from repro.workloads import listcompare, ot, tax, work

TABLE1 = {
    "List": {"messages": 906, "simulated_seconds": 0.326464},
    "OT": {"messages": 904, "simulated_seconds": 0.315205},
    "Tax": {"messages": 404, "simulated_seconds": 0.132002},
    "Work": {"messages": 600, "simulated_seconds": 0.257407},
}

REQUEST = {
    "List": {
        "ics_depths": {"A": 0, "B": 0, "T": 0},
        "messages": {
            "eliminated": 14, "forward": 5, "getField": 0, "lgoto": 10,
            "rgoto": 14, "setField": 0, "sync": 4, "total_messages": 42,
        },
        "simulated_seconds": 0.015136,
    },
    "Medical": {
        "ics_depths": {
            "ClinicHost": 0, "InsurerHost": 0, "LabHost": 0,
            "PartnerHost": 0,
        },
        "messages": {
            "eliminated": 9, "forward": 0, "getField": 0, "lgoto": 1,
            "rgoto": 7, "setField": 2, "sync": 0, "total_messages": 12,
        },
        "simulated_seconds": 0.004076,
    },
    "OT": {
        "ics_depths": {"A": 0, "B": 0, "T": 0},
        "messages": {
            "eliminated": 4, "forward": 2, "getField": 0, "lgoto": 2,
            "rgoto": 5, "setField": 0, "sync": 1, "total_messages": 13,
        },
        "simulated_seconds": 0.004543,
    },
    "Tax": {
        "ics_depths": {"Bank": 0, "Broker": 0, "Prep": 0},
        "messages": {
            "eliminated": 3, "forward": 0, "getField": 4, "lgoto": 1,
            "rgoto": 7, "setField": 0, "sync": 0, "total_messages": 16,
        },
        "simulated_seconds": 0.00532,
    },
    "Work": {
        "ics_depths": {"A": 0, "B": 0},
        "messages": {
            "eliminated": 0, "forward": 0, "getField": 0, "lgoto": 2,
            "rgoto": 2, "setField": 0, "sync": 0, "total_messages": 4,
        },
        "simulated_seconds": 0.001539,
    },
}

#: principals (data owners + the client) -> total messages.
PRINCIPAL_SWEEP_MESSAGES = {3: 4, 5: 8, 9: 16, 17: 32}

TABLE1_MODULES = {"List": listcompare, "OT": ot, "Tax": tax, "Work": work}


def table1_view(observables):
    """The Table 1 projection of a session's observables."""
    return {
        "messages": observables["messages"]["total_messages"],
        "simulated_seconds": observables["simulated_seconds"],
    }


def sweep_view(observables):
    return observables["messages"]["total_messages"]


def _programs():
    """(group, name) -> (source, trust config, pinned value, view)."""
    programs = {}
    for name, module in TABLE1_MODULES.items():
        programs["table1", name] = (
            module.source(), module.config(), TABLE1[name], table1_view
        )
    for name, (source, config) in request_workloads().items():
        programs["request", name] = (
            source, config, REQUEST[name], lambda obs: obs
        )
    for principals, messages in PRINCIPAL_SWEEP_MESSAGES.items():
        owners = principals - 1
        programs["principals", principals] = (
            aggregation_source(owners),
            aggregation_config(owners),
            messages,
            sweep_view,
        )
    return programs


PROGRAMS = _programs()
IDS = [f"{group}-{name}" for group, name in PROGRAMS]


@pytest.fixture(scope="module")
def splits():
    return {
        key: split_source(source, config).split
        for key, (source, config, _, _) in PROGRAMS.items()
    }


def oracle(split):
    executor = Session(RuntimeImage.for_split(split))
    executor.run()
    return executor.observables()


@pytest.mark.parametrize("key", list(PROGRAMS), ids=IDS)
def test_solo_oracle_matches_pin(key, splits):
    _, _, pinned, view = PROGRAMS[key]
    assert view(oracle(splits[key])) == pinned


@pytest.mark.parametrize("key", list(PROGRAMS), ids=IDS)
def test_pooled_run_reset_run_matches_pin_and_oracle(key, splits):
    _, _, pinned, view = PROGRAMS[key]
    split = splits[key]
    expected = oracle(split)
    pool = SessionPool(RuntimeImage.for_split(split), size=1)
    for _ in range(2):
        session = pool.acquire()
        session.run()
        got = session.observables()
        pool.release(session)
        assert got == expected
        assert view(got) == pinned
    assert pool.created == 1 and pool.resets == 2


def test_interleaved_driver_pass_matches_pins_and_oracles(splits):
    """Every program in ONE driver, two sessions each, interleaved one
    control message at a time."""
    keys = list(PROGRAMS)
    images = [RuntimeImage.for_split(splits[key]) for key in keys]
    key_of = {id(image): key for key, image in zip(keys, images)}
    oracles = {key: oracle(splits[key]) for key in keys}
    seen = []

    def check(session):
        key = key_of[id(session.image)]
        got = session.observables()
        _, _, pinned, view = PROGRAMS[key]
        assert got == oracles[key], key
        assert view(got) == pinned, key
        seen.append(key)

    driver = MultiSessionDriver(images, concurrency=len(images))
    driver.run_many(2 * len(images), observer=check)
    assert Counter(seen) == {key: 2 for key in keys}


# ---------------------------------------------------------------------------
# Pooled runs rebuild nothing per request
# ---------------------------------------------------------------------------


def _artifacts(image):
    """The per-image state a request could rebuild: compiled fragments
    (by identity), derived host keys and the keyed-HMAC bases."""
    registry = image.registry
    return (
        {entry: id(fragment) for entry, fragment in image.compiled.items()},
        dict(registry._keys),
        set(registry._bases),
    )


@pytest.mark.parametrize("name", list(request_workloads()))
def test_pooled_runs_after_the_first_rebuild_nothing(name):
    source, config = request_workloads()[name]
    split = split_source(source, config).split
    image = RuntimeImage.for_split(split)
    pool = SessionPool(image)
    session = pool.acquire()
    session.run()
    pool.release(session)
    first = _artifacts(image)
    assert first[0], "the first run compiled no fragments"
    for _ in range(3):
        session = pool.acquire()
        session.run()
        pool.release(session)
        assert RuntimeImage.for_split(split) is image
        assert _artifacts(image) == first
        assert pool.created == 1
    MultiSessionDriver(image, pool=pool).run_many(8)
    assert RuntimeImage.for_split(split) is image
    assert _artifacts(image) == first
    # The driver's in-flight sessions are the only others ever built.
    assert pool.created <= 8


def test_pooled_runs_after_a_warm_up_retain_nothing():
    """Pooled runs of the Table 1 images keep no per-run state: after a
    warm-up, more runs grow the traced heap by less than a small bound
    (no per-token MACs, frames or messages are kept by the image).  The
    pools run without a durable tier even under ``--session-storage
    sqlite``: this guard is about what the image and its sessions keep,
    not about a tier's sqlite3 connection."""
    pools = [
        SessionPool(RuntimeImage.for_split(
            split_source(module.source(), module.config()).split
        ), size=1, storage=None)
        for module in TABLE1_MODULES.values()
    ]

    def run_each(times):
        for _ in range(times):
            for pool in pools:
                session = pool.acquire()
                session.run()
                pool.release(session)

    run_each(2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_each(3)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, f"pooled runs retained {grown} bytes"


# ---------------------------------------------------------------------------
# Warm split cache across processes
# ---------------------------------------------------------------------------

_CHILD = """
import json
from repro.runtime import RuntimeImage, Session
from repro.splitter import cache, split_source
from repro.workloads import listcompare, ot, tax, work

invariants = {}
for name, module in (("List", listcompare), ("OT", ot), ("Tax", tax),
                     ("Work", work)):
    executor = Session(RuntimeImage.for_split(
        split_source(module.source(), module.config()).split
    ))
    executor.run()
    observables = executor.observables()
    invariants[name] = {
        "messages": observables["messages"]["total_messages"],
        "simulated_seconds": observables["simulated_seconds"],
    }
print(json.dumps({"invariants": invariants,
                  "disk": cache.stats()["split.disk"]}))
"""


def test_second_process_serves_table1_splits_from_disk(tmp_path):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["REPRO_SPLIT_CACHE"] = "1"
    env["REPRO_SPLIT_CACHE_DIR"] = str(tmp_path)

    def child():
        done = subprocess.run(
            [sys.executable, "-c", _CHILD],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1])

    cold, warm = child(), child()
    assert cold["disk"]["hits"] == 0
    assert warm["disk"]["hits"] == len(TABLE1)
    assert cold["invariants"] == warm["invariants"] == TABLE1
