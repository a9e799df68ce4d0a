"""Pool recycling is observably free (satellite of the session engine).

The contract of :meth:`Session.reset` / :class:`SessionPool`: running a
session, resetting it in place, and running it again is bit-identical
to running two freshly constructed sessions over the same shared
:class:`RuntimeImage`.  Checked across all five Table 1 workloads (at
request sizes) and a 25-seed progen sweep, on counter-independent
observables — message counts, simulated time, ICS depths, and every
placed field's stored value (global frame/object counters differ
between runs by design and are excluded).
"""

import gc

import pytest

from repro import progen
from repro.runtime import (
    FaultInjector,
    FaultPolicy,
    Message,
    RuntimeImage,
    Session,
    SessionPool,
)
from repro.runtime.trace import record_messages
from repro.splitter import split_source
from repro.workloads import listcompare, medical, ot, tax, work

WORKLOADS = [
    ("List", lambda: (listcompare.source(elements=4), listcompare.config())),
    ("OT", lambda: (ot.source(rounds=1), ot.config())),
    ("Tax", lambda: (tax.source(records=3), tax.config())),
    ("Work", lambda: (work.source(rounds=2, inner=2), work.config())),
    ("Medical", lambda: (medical.source(patients=3), medical.config())),
]

PROGEN_SEEDS = list(range(25))


def fingerprint(session):
    """Counter-independent facts of one completed session."""
    outcome = session.result()
    fields = {
        key: outcome.field_value(key[0], key[1], default=None)
        for key in session.split.fields
    }
    return session.observables(), fields, list(outcome.audits)


def recycled_pair(image):
    """(first run, second run) of ONE pooled session, reset in between."""
    pool = SessionPool(image, size=1)
    session = pool.acquire()
    session.run()
    first = fingerprint(session)
    pool.release(session)
    again = pool.acquire()
    assert again is session, "pool rebuilt a session instead of recycling"
    again.run()
    second = fingerprint(again)
    assert pool.created == 1 and pool.resets == 1
    return first, second


def fresh_pair(image):
    """(first, second) of two independently constructed sessions."""
    results = []
    for _ in range(2):
        session = Session(image)
        session.run()
        results.append(fingerprint(session))
    return results


def assert_recycled_equals_fresh(split):
    image = RuntimeImage.for_split(split)
    recycled = recycled_pair(image)
    fresh = fresh_pair(image)
    assert recycled[0] == fresh[0]
    assert recycled[1] == fresh[1]


@pytest.mark.parametrize(
    "workload", [w[1] for w in WORKLOADS], ids=[w[0] for w in WORKLOADS]
)
def test_table1_run_reset_run_matches_two_fresh_sessions(workload):
    source, config = workload()
    assert_recycled_equals_fresh(split_source(source, config).split)


@pytest.mark.parametrize("seed", PROGEN_SEEDS)
def test_progen_run_reset_run_matches_two_fresh_sessions(seed):
    split = split_source(progen.generate_program(seed), progen.config()).split
    assert_recycled_equals_fresh(split)


def test_reset_recycles_the_durable_store_in_place():
    """Under an (inactive) fault injector every host keeps a durable
    store; reset must recycle the same store object — WAL cleared, a
    fresh base checkpoint sealed at the next epoch of the sealed
    counter, which never winds back — not reallocate."""
    split = split_source(ot.source(rounds=1), ot.config()).split
    image = RuntimeImage.for_split(split)
    faults = FaultInjector(FaultPolicy(), seed=1)
    session = Session(image, faults=faults)
    session.run()
    stores = {name: host.durable for name, host in session.hosts.items()}
    assert all(store is not None for store in stores.values())
    epochs = {name: store.high_water for name, store in stores.items()}
    first = fingerprint(session)
    session.reset(faults=faults)
    for name, host in session.hosts.items():
        assert host.durable is stores[name]
        assert host.durable.wal == []
        assert host.durable.high_water == epochs[name] + 1
        assert host.durable.checkpoint.epoch == epochs[name] + 1
        assert host.durable.checkpoints_taken == 1
    session.run()
    assert fingerprint(session) == first


def test_pool_acquire_beyond_free_list_constructs_lazily():
    split = split_source(work.source(rounds=2, inner=2), work.config()).split
    image = RuntimeImage.for_split(split)
    pool = SessionPool(image)
    assert len(pool) == 0 and pool.created == 0
    a, b = pool.acquire(), pool.acquire()
    assert a is not b and pool.created == 2
    a.run()
    b.run()
    assert fingerprint(a) == fingerprint(b)
    pool.release(a)
    pool.release(b)
    assert len(pool) == 2 and pool.resets == 2


def live_messages():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Message))


@pytest.mark.parametrize("workload", ["List", "Work"])
def test_pooled_run_without_subscriber_keeps_no_message(workload):
    """A run no one listens to retains none of its messages: the
    network hands each one to its subscribers and keeps nothing."""
    source, config = dict(WORKLOADS)[workload]()
    image = RuntimeImage.for_split(split_source(source, config).split)
    session = SessionPool(image).acquire()
    before = live_messages()
    result = session.run()
    assert result.counts["total_messages"] > 0
    assert live_messages() == before


def test_recorder_attached_to_pooled_session_is_gone_after_release():
    """A recorder sees its own run only: releasing the session drops
    the subscription, so the next run neither feeds it nor retains a
    message."""
    split = split_source(work.source(rounds=2, inner=2), work.config()).split
    pool = SessionPool(RuntimeImage.for_split(split), size=1)
    session = pool.acquire()
    messages = record_messages(session.network)
    session.run()
    counts = session.network.counts
    recorded = len(messages)
    assert recorded == sum(counts.values()) - counts["messages"] > 0
    pool.release(session)
    again = pool.acquire()
    assert again is session
    before = live_messages()
    again.run()
    assert len(messages) == recorded
    assert live_messages() == before


def test_release_rejects_a_session_from_another_image():
    """Cross-image recycling would let one program's session serve
    another's requests; the pool refuses it with an exception that
    ``python -O`` cannot strip, and keeps its free list as it was."""
    work_split = split_source(work.source(rounds=2, inner=2), work.config()).split
    ot_split = split_source(ot.source(rounds=1), ot.config()).split
    pool = SessionPool(RuntimeImage.for_split(work_split), size=1)
    foreign = Session(RuntimeImage.for_split(ot_split))
    with pytest.raises(ValueError, match="different image"):
        pool.release(foreign)
    assert len(pool) == 1 and pool.resets == 0


def test_session_lifecycle_guards_hold_without_asserts():
    """A second ``start`` would mint a second root capability and run
    ``main`` again, and ``result`` before ``start`` has no run to
    report; both refuse with an exception ``python -O`` cannot strip,
    and the refused start changes nothing."""
    split = split_source(work.source(rounds=2, inner=2), work.config()).split
    session = Session(RuntimeImage.for_split(split))
    with pytest.raises(RuntimeError, match="never started"):
        session.result()
    session.run()
    done = fingerprint(session)
    with pytest.raises(RuntimeError, match="already started"):
        session.start()
    assert fingerprint(session) == done
