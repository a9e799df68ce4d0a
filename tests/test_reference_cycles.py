"""Compiling leaves no cyclic garbage.

A split, its memoized runtime image and every temporary the splitter
builds must be freed by reference counting alone: nothing the image
owns points back at the split that memoizes it, and no splitter pass
leaves a self-referencing structure behind.  Otherwise each compile
leaves its whole output for the cyclic collector, and full collections
grow with every program a long-running process compiles.

Each input is compiled twice: once through the whole pipeline (the
split cache off, so every pass runs) and once as a rehydrated split,
the form a split-cache hit returns.
"""

import gc
import types
import weakref

import pytest

from repro import progen
from repro.reporting.throughput import request_workloads
from repro.runtime import RuntimeImage, SessionPool
from repro.splitter import cache, split_source
from repro.splitter.serialize import decode_split, encode_split
from repro.trust import KeyRegistry
from repro.workloads import listcompare, medical, ot, tax, work

TABLE1 = {
    "List": listcompare,
    "Medical": medical,
    "OT": ot,
    "Tax": tax,
    "Work": work,
}


def _inputs():
    inputs = {
        f"table1/{name}": (module.source(), module.config())
        for name, module in TABLE1.items()
    }
    for name, pair in request_workloads().items():
        inputs[f"request/{name}"] = pair
    inputs["fig4/OT"] = (ot.source(rounds=1), ot.config())
    # Without Alice's preference for A, the exact min-cut pushes flow,
    # so its augmenting search runs.
    inputs["fig4/OT-no-preference"] = (
        ot.source(rounds=1), ot.config(prefer_alice_a=False)
    )
    for seed in range(20):
        inputs[f"progen/{seed}"] = (
            progen.generate_program(seed), progen.config()
        )
    return inputs


INPUTS = _inputs()


def _compile(name, rehydrated):
    """A split of input ``name`` (fresh or rehydrated) and its image."""
    source, config = INPUTS[name]
    split = split_source(source, config).split
    if rehydrated:
        split = decode_split(encode_split(split), config)
    return split, RuntimeImage.for_split(split)


def _repro_name(obj):
    """The qualified name of ``obj``'s type, or of ``obj`` itself when
    it is a function; None outside the ``repro`` package."""
    named = obj if isinstance(obj, types.FunctionType) else type(obj)
    module = getattr(named, "__module__", None)
    if not isinstance(module, str) or module.split(".")[0] != "repro":
        return None
    return f"{module}.{named.__qualname__}"


def _repro_garbage():
    """The names of the ``repro`` types and functions among the objects
    a full collection finds unreachable; garbage of anything else (the
    test runner's, a coverage tracer's) is ignored.  Only names are
    kept, so a failing assertion holds no garbage alive."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted(filter(None, map(_repro_name, gc.garbage)))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.fixture
def no_collector():
    """The collector off, after a collection clears earlier garbage."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


@pytest.mark.parametrize("rehydrated", [False, True], ids=["fresh", "rehydrated"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_compile_dies_by_reference_counting(
    name, rehydrated, monkeypatch, no_collector
):
    if not rehydrated:
        monkeypatch.setenv(cache.ENV_FLAG, "0")
    split, image = _compile(name, rehydrated)
    refs = [weakref.ref(split), weakref.ref(image)]
    del split, image
    assert [ref() for ref in refs] == [None, None]
    assert _repro_garbage() == []

    # Sessions keep cycles of their own; once one collection has freed
    # those, the split and image still need none.
    # No durable tier (under ``--session-storage sqlite`` too): a tier
    # outlives its session and keeps it, and so its image, alive.
    split, image = _compile(name, rehydrated)
    pool = SessionPool(image, size=1, storage=None)
    session = pool.acquire()
    session.run()
    pool.release(session)
    del pool, session
    gc.collect()
    refs = [weakref.ref(split), weakref.ref(image)]
    del split, image
    assert [ref() for ref in refs] == [None, None]


def test_explicit_registry_images_are_not_retained():
    source, config = INPUTS["fig4/OT"]
    split = split_source(source, config).split
    default = RuntimeImage.for_split(split)
    first, second = KeyRegistry(), KeyRegistry()
    image = RuntimeImage.for_split(split, first)
    assert image.registry is first
    assert RuntimeImage.for_split(split, second).registry is second
    assert RuntimeImage.for_split(split, first) is not image
    ref = weakref.ref(first)
    del first, image
    assert ref() is None
    assert RuntimeImage.for_split(split) is default
