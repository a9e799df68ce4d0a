"""Differential battery for the whole-pipeline split cache.

The cache may only ever change *when* the splitter runs, never what the
partitioned program does.  Every test here pins that equivalence one way
or another: a rehydrated split must be observably identical to a fresh
compile (field values, message counts and trace, simulated time, ICS
depths), and a changed trust input must miss.
"""

import hashlib
import json

import pytest

from repro import progen
from repro.labels import ActsForHierarchy, Label, Principal
from repro.runtime.trace import recorded_run
from repro.splitter import cache
from repro.splitter.partition import split_source
from repro.splitter.serialize import decode_split, encode_split
from repro.trust import TrustConfiguration, example_hosts
from repro.workloads import listcompare, medical, ot, tax, work

from tests.programs import OT_SOURCE, config_abt

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
def _clean_cache():
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


def canonical(encoded):
    """The canonical JSON text of an encoded split: sorted keys, no
    spaces, ASCII."""
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def round_trip(split, config):
    """encode → canonical JSON → parse → rehydrate."""
    return decode_split(json.loads(canonical(encode_split(split))), config)


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
    once = canonical(encode_split(split))
    again = canonical(encode_split(round_trip(split, config)))
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
# Shared encodings: one tuple per interned label, bytes unchanged
# ---------------------------------------------------------------------------

#: SHA-256 of ``canonical(encode_split(split))`` for the Table 1
#: workloads and the Figure 4 oblivious transfer: a change here is a
#: change to what the splitter produces (or to how it is encoded).
CANONICAL_PINS = {
    "table1/listcompare":
        "10cd8bb9266acc8522b16268b99f0bfd7efe98f7d7e8f523c43e1090b7a23b69",
    "table1/medical":
        "f417df070435880e004ae998351dd60ac2120a3f8e82e2978b6e0804dfdc3bf9",
    "table1/ot":
        "52fc7f61cc8ac2c9f899f126be9b1b6a8558e94b36c8cc1ce3ef543576665e75",
    "table1/tax":
        "c9c3896dc9a2eb24ae5ef968bb8886d08485da0d15e7d314bb7431a156821d06",
    "table1/work":
        "280d4ebd02d1e221ff901a0445d255226c575ffb6a677228776fc7d0a068ac1e",
    "fig4/ot":
        "6eb8ea76d7c2ea7ae0ac63238bbba3d3a32e87f0364b0a3b9a4266fdc7956bbc",
}


def _pinned_input(name):
    group, workload = name.split("/")
    module = WORKLOADS[workload]
    if group == "fig4":
        return module.source(rounds=1), module.config()
    return module.source(), module.config()


def _sha(split):
    return hashlib.sha256(
        canonical(encode_split(split)).encode("ascii")
    ).hexdigest()


@pytest.mark.parametrize("name", sorted(CANONICAL_PINS))
def test_canonical_bytes_are_pinned(name):
    source, config = _pinned_input(name)
    fresh = split_source(source, config)
    hit = split_source(source, config)
    assert hit.cached
    assert _sha(fresh.split) == _sha(hit.split) == CANONICAL_PINS[name]


def _entry(source, config):
    """The memory tier's entry for one compile of ``source``."""
    split_source(source, config)
    return cache._MEMORY[cache.split_key(source, config)]


def _label_encodings(entry):
    """Every label encoding an entry's tables carry (not the labels
    inside expressions), as (where, encoding) pairs."""
    found = []
    for fragment in entry["fragments"]:
        found.append((fragment["entry"] + "/pc", fragment["pc"]))
        found.append((fragment["entry"] + "/integ", fragment["integ"]))
    for field in entry["fields"]:
        found.append((field["field"] + "/label", field["label"]))
        found.append((field["field"] + "/loc", field["loc"]))
    for method in entry["methods"]:
        for var, label in method["var_labels"]:
            found.append((f"{method['name']}.{var}", label))
    return found


def _immutable(value):
    if isinstance(value, str):
        return True
    return isinstance(value, tuple) and all(map(_immutable, value))


def test_entries_share_one_immutable_encoding_per_label():
    first = _label_encodings(_entry(OT_SOURCE, config_abt()))
    second = _label_encodings(
        _entry(WORKLOADS["tax"].source(), WORKLOADS["tax"].config())
    )
    assert all(_immutable(encoding) for _, encoding in first + second)
    by_value = {}
    for _, encoding in first:
        assert by_value.setdefault(encoding, encoding) is encoding
    shared = [
        where for where, encoding in second
        if not isinstance(encoding, str) and encoding in by_value
    ]
    assert shared, "the two programs share no label"
    for where, encoding in second:
        if encoding in by_value:
            assert by_value[encoding] is encoding, where


def _mutate(split):
    """Change every mutable table of ``split`` in place."""
    for fragment in split.fragments.values():
        fragment.ops.clear()
        fragment.pc = Label.public_untrusted()
        fragment.host = "Z"
    for placement in split.fields.values():
        placement.label = Label.public_untrusted()
        placement.host = "Z"
    for plan in split.methods.values():
        plan.params.append("extra")
        plan.var_labels.clear()
    split.fields.clear()


def test_mutating_a_stored_or_hit_split_leaves_the_entry_unchanged():
    config = config_abt()
    stored = split_source(OT_SOURCE, config)
    assert not stored.cached
    pinned = canonical(encode_split(stored.split))
    _mutate(stored.split)
    hit = split_source(OT_SOURCE, config)
    assert hit.cached
    assert canonical(encode_split(hit.split)) == pinned
    _mutate(hit.split)
    again = split_source(OT_SOURCE, config)
    assert again.cached
    assert canonical(encode_split(again.split)) == pinned


def test_json_list_form_body_decodes():
    config = config_abt()
    entry = _entry(OT_SOURCE, config)
    payload = canonical(entry)
    body = json.loads(payload)
    # JSON turns every tuple into a list, the form the storage codec's
    # label decoding meets too.
    assert isinstance(entry["fragments"][0]["pc"], tuple)
    assert isinstance(body["fragments"][0]["pc"], list)
    rehydrated = decode_split(body, config)
    assert canonical(encode_split(rehydrated)) == payload
    fresh = decode_split(entry, config)
    assert observe(rehydrated) == observe(fresh)


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
    assert not split_source(OT_SOURCE, config).cached
    before = cache.split_key(OT_SOURCE, config)
    config.hierarchy.add(Principal("Alice"), Principal("Bob"))
    after = cache.split_key(OT_SOURCE, config)
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
    assert cache.split_key(OT_SOURCE, trusted) != cache.split_key(
        OT_SOURCE, stronger
    )
    assert not split_source(OT_SOURCE, trusted).cached
    assert not split_source(OT_SOURCE, stronger).cached


def test_preference_pin_and_link_cost_invalidate():
    config = config_abt()
    keys = [cache.split_key(OT_SOURCE, config)]
    config.set_preference("Bob", "B", 0.25)
    keys.append(cache.split_key(OT_SOURCE, config))
    config.pin_field("OTExample", "request", "B")
    keys.append(cache.split_key(OT_SOURCE, config))
    config.set_link_cost("A", "T", 2.5)
    keys.append(cache.split_key(OT_SOURCE, config))
    assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# Checked-program inputs
# ---------------------------------------------------------------------------


def test_unknown_source_digest_stands_aside():
    # Only source text is keyed: a checked program has no content
    # address the cache can use, so it is split afresh every time and
    # never touches the cache's counters or entries.
    from repro.lang.parser import parse_program
    from repro.lang.typecheck import check_program
    from repro.splitter.partition import split_program

    config = config_abt()
    checked = check_program(parse_program(OT_SOURCE), config.hierarchy)
    before = cache.stats()
    first = split_program(checked, config)
    second = split_program(checked, config)
    assert not first.cached and not second.cached
    assert cache.stats() == before
    assert observe(second.split) == observe(first.split)


def test_staged_pipeline_hits_on_repeat():
    # The staged path (parse -> check -> split a CheckedProgram) runs
    # the full pipeline; repeating the split from the same source text
    # hits, and the hit is observably the split the staged path made.
    from repro.lang.parser import parse_program
    from repro.lang.typecheck import check_program
    from repro.splitter.partition import split_program

    config = config_abt()
    staged = split_program(
        check_program(parse_program(OT_SOURCE), config.hierarchy), config
    )
    first = split_program(OT_SOURCE, config)
    second = split_program(OT_SOURCE, config)
    assert not staged.cached and not first.cached
    assert second.cached
    memory = cache.stats()["split.memory"]
    assert (memory["hits"], memory["misses"]) == (1, 1)
    assert observe(second.split) == observe(staged.split)
