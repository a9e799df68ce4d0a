"""Differential battery for the whole-pipeline split cache.

The cache may only ever change *when* the splitter runs, never what the
partitioned program does.  Every test here pins that equivalence one way
or another: a rehydrated split must be observably identical to a fresh
compile (field values, message counts and trace, simulated time, ICS
depths), a changed trust input must miss, and a damaged artifact must be
verified away silently — recompile with a recorded miss, never an
exception, never a wrong split.
"""

import random

import pytest

from repro import parallel, progen
from repro.labels import ActsForHierarchy, Principal
from repro.runtime.trace import recorded_run
from repro.splitter import cache
from repro.splitter.partition import split_source
from repro.splitter.serialize import (
    canonical_bytes,
    decode_split,
    encode_split,
    from_canonical_bytes,
)
from repro.trust import TrustConfiguration, example_hosts
from repro.workloads import listcompare, medical, ot, tax, work

from tests.programs import OT_SOURCE, config_abt

fork_only = pytest.mark.skipif(
    not parallel.fork_available(),
    reason="no fork start method on this platform",
)

#: All five Table 1 workloads (the bench only exercises four; the
#: battery covers medical too).
WORKLOADS = {
    "listcompare": listcompare,
    "medical": medical,
    "ot": ot,
    "tax": tax,
    "work": work,
}

PROGEN_SEEDS = 50


@pytest.fixture(autouse=True)
def _clean_cache(monkeypatch):
    # This battery tests the cache machinery itself, so it runs with the
    # cache force-enabled and no ambient artifact directory — even on
    # the REPRO_SPLIT_CACHE=0 CI leg, whose point is that the *rest* of
    # the suite takes the uncached path.  The disabled-mode test below
    # overrides the flag back to "0" explicitly.
    monkeypatch.setenv(cache.ENV_FLAG, "1")
    monkeypatch.delenv(cache.ENV_DIR, raising=False)
    cache.clear()
    yield
    cache.clear()


def observe(split):
    """Every observable the differential battery compares."""
    outcome, messages = recorded_run(split)
    return {
        "fields": {
            key: outcome.field_value(*key) for key in sorted(split.fields)
        },
        "counts": dict(outcome.counts),
        "elapsed": outcome.elapsed,
        "ics": {
            name: host.stack.depth
            for name, host in sorted(outcome.hosts.items())
        },
        "trace": [(m.kind, m.src, m.dst) for m in messages],
        "audits": list(outcome.audits),
    }


def round_trip(split, config):
    """serialize → canonical bytes → parse → rehydrate."""
    payload = canonical_bytes(encode_split(split))
    return decode_split(from_canonical_bytes(payload), config)


# ---------------------------------------------------------------------------
# Round-trip property: rehydrated ≡ fresh
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_round_trip_observably_identical(name):
    module = WORKLOADS[name]
    config = module.config()
    fresh = split_source(module.source(), config).split
    rehydrated = round_trip(fresh, config)
    assert rehydrated is not fresh
    assert observe(rehydrated) == observe(fresh)
    # Structure survives too, not just behaviour.
    assert set(rehydrated.fragments) == set(fresh.fragments)
    assert rehydrated.main_entry == fresh.main_entry
    assert {k: p.host for k, p in rehydrated.fields.items()} == {
        k: p.host for k, p in fresh.fields.items()
    }
    assert rehydrated.digest == fresh.digest


def test_progen_corpus_round_trip_observably_identical():
    config = progen.config()
    for seed in range(PROGEN_SEEDS):
        fresh = split_source(progen.generate_program(seed), config).split
        rehydrated = round_trip(fresh, config)
        assert observe(rehydrated) == observe(fresh), f"seed {seed}"


def test_canonical_encoding_is_deterministic():
    config = config_abt()
    split = split_source(OT_SOURCE, config).split
    once = canonical_bytes(encode_split(split))
    again = canonical_bytes(encode_split(round_trip(split, config)))
    assert once == again


# ---------------------------------------------------------------------------
# Memory tier
# ---------------------------------------------------------------------------


def test_memory_hit_serves_fresh_identical_split():
    config = config_abt()
    first = split_source(OT_SOURCE, config)
    assert not first.cached
    second = split_source(OT_SOURCE, config)
    assert second.cached
    assert second.split is not first.split
    assert observe(second.split) == observe(first.split)
    stats = cache.stats()["split.memory"]
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_cached_intermediates_recompute_lazily_and_match():
    config = config_abt()
    first = split_source(OT_SOURCE, config)
    second = split_source(OT_SOURCE, config)
    assert second.cached
    assert second.assignment.fields == first.assignment.fields
    assert set(second.checked.fields) == set(first.checked.fields)


def test_mutating_a_hit_cannot_poison_later_hits():
    # The attack/fault tests mutate their splits; each hit must be a
    # private rehydration, not a shared object.
    config = config_abt()
    baseline = observe(split_source(OT_SOURCE, config).split)
    victim = split_source(OT_SOURCE, config).split
    victim.fragments[victim.main_entry].ops.clear()
    assert observe(split_source(OT_SOURCE, config).split) == baseline


# ---------------------------------------------------------------------------
# Invalidation: any changed trust input must miss
# ---------------------------------------------------------------------------


def _config_with_own_hierarchy():
    hosts = example_hosts()
    return TrustConfiguration(
        [hosts["A"], hosts["B"], hosts["T"]],
        hierarchy=ActsForHierarchy(),
    )


def test_acts_for_edge_invalidates():
    config = _config_with_own_hierarchy()
    digest = cache.digest(OT_SOURCE)
    assert not split_source(OT_SOURCE, config).cached
    before = cache.split_key(digest, config)
    config.hierarchy.add(Principal("Alice"), Principal("Bob"))
    after = cache.split_key(digest, config)
    assert before != after
    assert not split_source(OT_SOURCE, config).cached


def test_host_trust_change_invalidates():
    from repro.trust import HostDescriptor

    hosts = example_hosts()
    trusted = TrustConfiguration([hosts["A"], hosts["B"], hosts["T"]])
    # Same host names, but T's integrity label is strengthened: the
    # trust assumptions differ, so the cache key must differ.
    stronger = TrustConfiguration([
        hosts["A"],
        hosts["B"],
        HostDescriptor.of("T", "{Alice:; Bob:}", "{?:Alice, Bob}"),
    ])
    digest = cache.digest(OT_SOURCE)
    assert cache.split_key(digest, trusted) != cache.split_key(
        digest, stronger
    )
    assert not split_source(OT_SOURCE, trusted).cached
    assert not split_source(OT_SOURCE, stronger).cached


def test_preference_pin_and_link_cost_invalidate():
    config = config_abt()
    digest = cache.digest(OT_SOURCE)
    keys = [cache.split_key(digest, config)]
    config.set_preference("Bob", "B", 0.25)
    keys.append(cache.split_key(digest, config))
    config.pin_field("OTExample", "request", "B")
    keys.append(cache.split_key(digest, config))
    config.set_link_cost("A", "T", 2.5)
    keys.append(cache.split_key(digest, config))
    assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# Disk tier: durability and tamper fail-closed
# ---------------------------------------------------------------------------


def _warm_disk(tmp_path, monkeypatch, config):
    monkeypatch.setenv(cache.ENV_DIR, str(tmp_path))
    first = split_source(OT_SOURCE, config)
    assert not first.cached
    artifacts = list(tmp_path.glob("*.rsplit"))
    assert len(artifacts) == 1
    return observe(first.split), artifacts[0]


def test_disk_hit_across_cleared_memory(tmp_path, monkeypatch):
    config = config_abt()
    baseline, _ = _warm_disk(tmp_path, monkeypatch, config)
    cache.clear()  # a "new process": memory gone, artifacts remain
    warm = split_source(OT_SOURCE, config)
    assert warm.cached
    assert observe(warm.split) == baseline
    stats = cache.stats()
    assert stats["split.disk"]["hits"] == 1
    # ... and the disk hit was promoted into memory.
    assert split_source(OT_SOURCE, config).cached
    assert cache.stats()["split.memory"]["hits"] == 1


@pytest.mark.parametrize(
    "tamper",
    ["truncate", "flip_byte", "stale_version"],
)
def test_damaged_artifact_recompiles_with_recorded_miss(
    tmp_path, monkeypatch, tamper
):
    config = config_abt()
    baseline, artifact = _warm_disk(tmp_path, monkeypatch, config)
    raw = artifact.read_bytes()
    if tamper == "truncate":
        artifact.write_bytes(raw[: len(raw) // 2])
    elif tamper == "flip_byte":
        artifact.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0xFF]))
    else:
        artifact.write_bytes(
            raw.replace(b"repro-split-artifact v", b"repro-split-artifact v0", 1)
        )
    cache.clear()
    result = split_source(OT_SOURCE, config)  # must not raise
    assert not result.cached
    assert observe(result.split) == baseline
    stats = cache.stats()["split.disk"]
    assert stats["hits"] == 0 and stats["misses"] == 1


def test_artifact_under_another_configs_key_is_rejected(tmp_path, monkeypatch):
    config = config_abt()
    other = config_abt(prefer_alice_a=False)
    monkeypatch.setenv(cache.ENV_DIR, str(tmp_path))
    split_source(OT_SOURCE, other)
    digest = cache.digest(OT_SOURCE)
    other_path = cache.artifact_path(
        cache.split_key(digest, other), str(tmp_path)
    )
    path = cache.artifact_path(cache.split_key(digest, config), str(tmp_path))
    with open(other_path, "rb") as src, open(path, "wb") as dst:
        dst.write(src.read())
    cache.clear()
    # The copied artifact passes magic and digest checks, but its
    # embedded key names the other configuration: verified away,
    # recompiled.
    result = split_source(OT_SOURCE, config)
    assert not result.cached
    assert cache.stats()["split.disk"]["misses"] == 1


# ---------------------------------------------------------------------------
# Concurrency: racing writers, atomic publish
# ---------------------------------------------------------------------------


def _race_worker(worker_id):
    state = parallel.state()
    result = split_source(state["source"], state["config"])
    return (worker_id, result.cached, observe(result.split))


@fork_only
def test_forked_workers_race_same_key_without_corruption(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(cache.ENV_DIR, str(tmp_path))
    config = config_abt()
    # The parent does NOT split first: both children miss the inherited
    # (empty) memory tier and race to publish the same artifact.
    results = parallel.fork_map(
        _race_worker,
        [0, 1],
        jobs=2,
        shared={"source": OT_SOURCE, "config": config},
    )
    assert results is not None
    observations = {obs for _, _, obs in map(_freeze_result, results)}
    assert len(observations) == 1
    artifacts = list(tmp_path.glob("*.rsplit"))
    assert len(artifacts) == 1
    assert not list(tmp_path.glob("*.tmp-*"))
    # Whatever writer won, the surviving artifact is valid and serves
    # the same observables.
    cache.clear()
    warm = split_source(OT_SOURCE, config)
    assert warm.cached
    assert _freeze(observe(warm.split)) in observations


def _freeze(observation):
    return (
        tuple(sorted(observation["fields"].items())),
        tuple(sorted(observation["counts"].items())),
        observation["elapsed"],
        tuple(sorted(observation["ics"].items())),
        tuple(observation["trace"]),
        tuple(observation["audits"]),
    )


def _freeze_result(result):
    worker_id, cached, observation = result
    return (worker_id, cached, _freeze(observation))


# ---------------------------------------------------------------------------
# Escape hatch
# ---------------------------------------------------------------------------


def test_disabled_cache_is_never_consulted(monkeypatch):
    config = config_abt()
    baseline = observe(split_source(OT_SOURCE, config).split)
    monkeypatch.setenv(cache.ENV_FLAG, "0")
    cache.clear()
    first = split_source(OT_SOURCE, config)
    second = split_source(OT_SOURCE, config)
    assert not first.cached and not second.cached
    assert observe(second.split) == baseline
    stats = cache.stats()
    assert stats["split.memory"] == {
        "hits": 0, "misses": 0, "entries": 0, "hit_rate": 0.0,
    }
    assert stats["split.disk"]["hits"] == 0
    assert stats["split.disk"]["misses"] == 0


def test_unknown_source_digest_stands_aside():
    # A CheckedProgram whose AST was not built by parse_program has no
    # stable content address; the cache must skip it, not crash.
    from repro.lang.parser import Parser
    from repro.lang.typecheck import check_program
    from repro.splitter.partition import split_program

    config = config_abt()
    program = Parser(OT_SOURCE).parse_program()
    assert program.source_digest is None
    checked = check_program(program, config.hierarchy)
    result = split_program(checked, config)
    assert not result.cached
    assert cache.stats()["split.memory"]["misses"] == 0


def test_staged_pipeline_hits_on_repeat():
    # The staged path (parse -> check -> split a CheckedProgram) keys
    # the cache on the digest parse_program records on the AST.
    from repro.lang.parser import parse_program
    from repro.lang.typecheck import check_program
    from repro.splitter.partition import split_program

    config = config_abt()

    def staged():
        program = parse_program(OT_SOURCE)
        assert program.source_digest == cache.digest(OT_SOURCE)
        return split_program(check_program(program, config.hierarchy), config)

    first = staged()
    second = staged()
    assert not first.cached
    assert second.cached
    assert cache.stats()["split.memory"]["hits"] == 1
    assert observe(second.split) == observe(first.split)


def test_stale_tmp_litter_is_swept_once_per_process(tmp_path, monkeypatch):
    """Temp files abandoned by a writer that died between open and
    os.replace are reclaimed when the disk tier opens; a fresh temp
    file (a live writer mid-publish) is left alone."""
    import os
    import time

    directory = tmp_path / "artifacts"
    directory.mkdir()
    stale = directory / "deadbeef.rsplit.tmp-12345-0"
    stale.write_bytes(b"half-written artifact")
    old = time.time() - 2 * cache._STALE_TMP_SECONDS
    os.utime(stale, (old, old))
    live = directory / "cafef00d.rsplit.tmp-12345-1"
    live.write_bytes(b"publish in progress")

    monkeypatch.setenv(cache.ENV_DIR, str(directory))
    cache._SWEPT_DIRS.discard(str(directory))
    config = config_abt()
    cache.clear()
    result = split_source(OT_SOURCE, config)  # opens the disk tier
    assert not result.cached
    assert not stale.exists(), "stale temp litter survived the sweep"
    assert live.exists(), "sweep raced a live writer's temp file"
    # One sweep per directory per process: recreating the litter and
    # hitting the tier again must not re-scan.
    stale.write_bytes(b"again")
    os.utime(stale, (old, old))
    assert split_source(OT_SOURCE, config).cached
    assert stale.exists()


def test_artifact_publish_is_atomic_and_durable(tmp_path, monkeypatch):
    """The publish path leaves no temp file behind and the installed
    artifact round-trips — the fsync-then-rename discipline's
    observable half."""
    monkeypatch.setenv(cache.ENV_DIR, str(tmp_path))
    config = config_abt()
    cache.clear()
    split_source(OT_SOURCE, config)
    names = [p.name for p in tmp_path.iterdir()]
    assert any(name.endswith(".rsplit") for name in names)
    assert not any(".tmp-" in name for name in names)
    cache.clear()
    assert split_source(OT_SOURCE, config).cached
