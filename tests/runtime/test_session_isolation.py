"""Session isolation under interleaving (satellite of the session engine).

Many sessions share one :class:`RuntimeImage`; nothing a neighbouring
session does — fault injection, quarantine blacklisting, crashes into
fail-closed timeouts — may change a clean session's observables.  The
tests interleave fault-injected sessions with a clean one, message by
message, and pin the clean session bit-identical to a solo run; the
quarantine tests pin the blacklist to the session that earned it.
"""

import random

import pytest

from repro.runtime import (
    DeliveryTimeoutError,
    FaultInjector,
    FaultPolicy,
    MultiSessionDriver,
    RuntimeImage,
    SecurityAbort,
    Session,
    SessionPool,
)
from repro.splitter import split_source
from repro.workloads import ot, tax, work


def fingerprint(session):
    outcome = session.result()
    fields = {
        key: outcome.field_value(key[0], key[1], default=None)
        for key in session.split.fields
    }
    return session.observables(), fields, list(outcome.audits)


def interleave(sessions, clean):
    """Round-robin one control message per session, like the driver.

    A faulted session may fail closed (``DeliveryTimeoutError``) — that
    is an acceptable per-session outcome, but it must never surface on
    the clean session.
    """
    for session in sessions:
        session.start()
    active = [s for s in sessions if not s.halted]
    while active:
        still_running = []
        for session in active:
            try:
                if not session.step():
                    still_running.append(session)
            except DeliveryTimeoutError:
                assert session is not clean, (
                    "clean session failed closed: a neighbour's faults "
                    "leaked across the session boundary"
                )
        active = still_running


def test_clean_session_is_bit_identical_under_faulted_neighbours():
    split = split_source(tax.source(records=3), tax.config()).split
    image = RuntimeImage.for_split(split)
    solo = Session(image)
    solo.run()
    want = fingerprint(solo)

    clean = Session(image)
    policy = FaultPolicy(duplicate_prob=1.0, jitter_max=5e-3)
    faulted = [
        Session(
            image,
            faults=FaultInjector(policy, seed=seed),
            token_rng=random.Random(seed),
        )
        for seed in (1, 2, 3)
    ]
    interleave([faulted[0], clean, faulted[1], faulted[2]], clean)

    assert clean.halted
    assert fingerprint(clean) == want
    assert clean.network.fault_events == []
    # The neighbours really were under fire, in their own traces only.
    for session in faulted:
        assert session.network.fault_counts, "fault injector never fired"


def test_driver_interleaving_matches_solo_oracle():
    split = split_source(work.source(rounds=2, inner=2), work.config()).split
    image = RuntimeImage.for_split(split)
    solo = Session(image)
    solo.run()
    want = solo.observables()

    driver = MultiSessionDriver(image, concurrency=16)
    records = driver.run_many(40)
    assert len(records) == 40
    for record in records:
        got = {key: record[key] for key in want}
        assert got == want
        assert record["latency"] >= 0.0
    # 40 sessions were served by at most `concurrency` session objects.
    assert driver.pools[0].created <= 16


def test_mixed_image_driver_matches_each_solo_oracle():
    """One driver serving heterogeneous programs: every pooled session
    must be bit-identical to the solo oracle of *its own* program."""
    splits = {
        "tax": split_source(tax.source(records=3), tax.config()).split,
        "work": split_source(work.source(rounds=2, inner=2),
                             work.config()).split,
        "ot": split_source(ot.source(rounds=1), ot.config()).split,
    }
    images = {name: RuntimeImage.for_split(s) for name, s in splits.items()}
    oracles = {}
    for name, image in images.items():
        solo = Session(image)
        solo.run()
        oracles[id(image)] = (name, solo.observables())

    seen = set()

    def observer(session):
        name, want = oracles[id(session.image)]
        assert session.observables() == want, (
            f"pooled {name} session diverged from its solo oracle"
        )
        seen.add(name)

    driver = MultiSessionDriver(list(images.values()), concurrency=12)
    records = driver.run_many(30, observer=observer)
    assert len(records) == 30
    assert seen == {"tax", "work", "ot"}
    # One pool per image — sessions never migrate between programs.
    assert len(driver.pools) == len(images)
    for pool, image in zip(driver.pools, images.values()):
        assert pool.image is image


def test_driver_sessions_keep_the_solo_flow_log_and_no_message_log():
    """Driver sessions run as solo ones do: the same observables and the
    same always-on flow log, and no message log to read."""
    split = split_source(tax.source(records=3), tax.config()).split
    image = RuntimeImage.for_split(split)
    solo = Session(image)
    solo.run()
    want = solo.observables(), list(solo.network.flow_log)
    assert want[1], "the Section 3.2 flow record is always kept"

    driver = MultiSessionDriver(image, concurrency=4)
    checked = []

    def observer(session):
        assert (session.observables(), session.network.flow_log) == want
        assert not hasattr(session.network, "message_log")
        checked.append(session)

    driver.run_many(8, observer=observer)
    assert len(checked) == 8


def test_mixed_pools_quarantine_never_leaks_across_images():
    """Quarantine state is per-session; with a mixed image set it must
    not leak across sessions of the same image *or* across images."""
    splits = [
        split_source(ot.source(rounds=1), ot.config()).split,
        split_source(tax.source(records=3), tax.config()).split,
    ]
    images = [RuntimeImage.for_split(s) for s in splits]
    ot_pool = SessionPool(images[0], quarantine=True)
    tax_pool = SessionPool(images[1], quarantine=True)

    bad = ot_pool.acquire()
    bad.run()
    with pytest.raises(SecurityAbort):
        bad.network.quarantine("B", "A", "test")
    assert "B" in bad.network.quarantined

    # A session of the *other* image is untouched by the blacklist.
    tax_session = tax_pool.acquire()
    assert not tax_session.network.quarantined
    tax_session.run()
    solo = Session(images[1], quarantine=True)
    solo.run()
    assert tax_session.observables() == solo.observables()

    # Recycling the offender clears its blacklist within its own pool.
    ot_pool.release(bad)
    recycled = ot_pool.acquire()
    assert recycled is bad
    assert not recycled.network.quarantined
    assert recycled.run().field_value("OTBench", "isAccessed") is True


def test_quarantine_blacklist_never_leaks_across_sessions():
    split = split_source(ot.source(rounds=1), ot.config()).split
    image = RuntimeImage.for_split(split)
    pool = SessionPool(image, quarantine=True)

    bad = pool.acquire()
    bad.run()
    with pytest.raises(SecurityAbort):
        bad.network.quarantine("B", "A", "test")
    assert "B" in bad.network.quarantined

    # A concurrent fresh session over the same image is unaffected.
    other = Session(image, quarantine=True)
    assert not other.network.quarantined
    other.run()
    assert other.result().field_value("OTBench", "isAccessed") is True

    # Recycling the offender's session clears its blacklist.
    pool.release(bad)
    recycled = pool.acquire()
    assert recycled is bad
    assert not recycled.network.quarantined
    outcome = recycled.run()
    assert outcome.field_value("OTBench", "isAccessed") is True
