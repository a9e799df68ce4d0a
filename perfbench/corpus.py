"""Seeded inputs for every workload, and the output oracles.

The program under test receives only what these generators produce.
``progen`` is deliberately not used: at this point its programs all
land on one host and send no messages, so they would measure nothing
the partitioner is about.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from repro.reporting import throughput
from repro.runtime import run_single_host
from repro.runtime.values import ObjectRef
from repro.trust import HostDescriptor, TrustConfiguration
from repro.workloads import listcompare, medical, ot, tax, work

#: Table 1 programs servable by name through ``repro serve``.
TABLE1 = ("list", "ot", "tax", "work", "medical")

#: ``compile``: share of ops repeating an earlier (source, config) pair
#: exactly.  Taken from the one compile-traffic figure the repository
#: records: in BENCH_PR9.json the split cache and the frontend AST cache
#: each hit 1 of 204 lookups, i.e. one exact repeat in 204 compiles and
#: no source repeated under another configuration.  Every other op is a
#: source not seen before.
EXACT_SHARE = 1 / 204

#: ``compile`` source parameters.  Loop bounds only change literals, so
#: compile cost is flat across them; they stay small so the correctness
#: run after each op stays cheap.  A revision number in a leading
#: comment makes each fresh source new to the content-addressed caches.
MAX_ITERS = 40
WORK_ROUNDS = 12
WORK_INNER = 6
AGG_OWNERS = (2, 12)
REVISIONS = 1_000_000

#: Configuration variants a fresh source draws one of (OT: with /
#: without Alice's host preference, or with one inert host; others:
#: 0-2 inert hosts).
VARIANTS = 3


class Spec(NamedTuple):
    family: str
    params: Tuple[int, ...]
    variant: int

    @property
    def source_key(self) -> Tuple[str, Tuple[int, ...]]:
        return self.family, self.params


def _with_inert_hosts(trust: TrustConfiguration, count: int) -> TrustConfiguration:
    """Hosts no data or code may be placed on: fresh principals."""
    for j in range(1, count + 1):
        trust.add_host(
            HostDescriptor.of(f"X{j}", f"{{Ext{j}:}}", f"{{?:Ext{j}}}")
        )
    return trust


def materialize(spec: Spec) -> Tuple[str, TrustConfiguration]:
    """The (source, trust configuration) pair a spec names; the last
    parameter is the source's revision number."""
    family, params, variant = spec
    *shape, revision = params
    header = f"// revision {revision}\n"
    if family == "ot":
        source = header + ot.source(rounds=shape[0])
        if variant < 2:
            return source, ot.config(prefer_alice_a=variant == 0)
        return source, _with_inert_hosts(ot.config(), 1)
    if family == "agg":
        source = header + throughput.aggregation_source(shape[0])
        trust = throughput.aggregation_config(shape[0])
    elif family == "work":
        source = header + work.source(rounds=shape[0], inner=shape[1])
        trust = work.config()
    else:
        module = {"list": listcompare, "tax": tax, "medical": medical}[family]
        source = header + module.source(shape[0])
        trust = module.config()
    return source, _with_inert_hosts(trust, variant)


FAMILIES = ("ot", "list", "tax", "medical", "work", "agg")


def _fresh_params(rng: random.Random, family: str) -> Tuple[int, ...]:
    if family == "work":
        shape = (rng.randint(1, WORK_ROUNDS), rng.randint(1, WORK_INNER))
    elif family == "agg":
        shape = (rng.randint(*AGG_OWNERS),)
    else:
        shape = (rng.randint(1, MAX_ITERS),)
    return shape + (rng.randrange(REVISIONS),)


def compile_stream(seed: int, kinds: Counter) -> Iterator[Spec]:
    """An endless seeded stream of compile requests.

    ``kinds`` counts what each op was: ``fresh`` (a source not seen
    before) or ``exact`` (an earlier pair again).  Fresh sources come
    in shuffled blocks holding each family once, as ``stratified``
    mixes, so every stretch of the stream costs about the same.
    """
    rng = random.Random(seed)
    pairs: List[Spec] = []
    seen: set = set()
    block: List[str] = []
    while True:
        if pairs and rng.random() < EXACT_SHARE:
            kinds["exact"] += 1
            yield rng.choice(pairs)
            continue
        if not block:
            block = list(FAMILIES)
            rng.shuffle(block)
        family = block.pop()
        for _ in range(10_000):
            key = (family, _fresh_params(rng, family))
            if key not in seen:
                break
        else:
            raise RuntimeError("compile corpus exhausted its parameter space")
        seen.add(key)
        spec = Spec(family, key[1], rng.randrange(VARIANTS))
        pairs.append(spec)
        kinds["fresh"] += 1
        yield spec


def first_of_each_family() -> List[Spec]:
    """One small program per family (the compile set-up probe)."""
    return [
        Spec(family, (2, 2, 0) if family == "work" else (2, 0), 0)
        for family in FAMILIES
    ]


def stratified(rng: random.Random, names: Sequence, count: int) -> List:
    """A uniform mix in shuffled blocks: every block of ``len(names)``
    ops holds each name once, so run-to-run mix drift stays small."""
    picks: List = []
    while len(picks) < count:
        block = list(names)
        rng.shuffle(block)
        picks.extend(block)
    return picks[:count]


def poisson_schedule(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """Send offsets (seconds from phase start) of a Poisson process."""
    offsets: List[float] = []
    t = rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def table1_program(name: str) -> Tuple[str, TrustConfiguration]:
    """The full-size Table 1 program ``repro serve`` runs for ``name``."""
    module = {
        "list": listcompare,
        "ot": ot,
        "tax": tax,
        "work": work,
        "medical": medical,
    }[name]
    return module.source(), module.config()


# -- field oracles -------------------------------------------------------------


def _canonical_fields(items) -> Tuple[Dict, Counter]:
    """Split a field store into static fields (compared by key) and a
    multiset of object-field values (object ids are process-global
    counters, so they differ between the two runs being compared)."""
    statics: Dict = {}
    objects: Counter = Counter()
    for (cls, field, oid), value in items:
        if oid is None:
            statics[(cls, field)] = value
        else:
            shown = "ref" if isinstance(value, ObjectRef) else value
            objects[(cls, field, repr(shown))] += 1
    return statics, objects


def single_host_fields(source: str) -> Tuple[Dict, Counter]:
    """The oracle: field values of the unsplit program on one host."""
    return _canonical_fields(run_single_host(source).fields.items())


def fields_match(result: Any, oracle: Tuple[Dict, Counter]) -> str:
    """'' when a distributed run's fields equal the oracle's, else why.

    Every static field the single-host run holds must have the same
    value; object fields must hold the same multiset of values.
    """
    stores: Dict = {}
    for host in result.hosts.values():
        stores.update(host.field_store)
    statics, objects = _canonical_fields(stores.items())
    want_statics, want_objects = oracle
    for key, value in want_statics.items():
        if statics.get(key, _MISSING) != value:
            return f"field {key}: {statics.get(key, _MISSING)!r} != {value!r}"
    got_objects = Counter(
        {key: n for key, n in objects.items() if key[:2] in
         {k[:2] for k in want_objects}}
    )
    if got_objects != want_objects:
        return "object fields differ from the single-host run"
    return ""


_MISSING = object()
