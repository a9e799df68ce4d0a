"""Differential tests: compiled fragment bodies ≡ the reference interpreter.

``TrustedHost.run_chain`` runs every fragment as compiled closures
(``repro.runtime.compiler``).  The tree-walking oracle in
``repro.runtime.reference`` is swapped in for it here, and both must
produce bit-identical observable behaviour: message counts, simulated
network time, audits, frame variables, and field stores.
"""

import pytest

from repro import progen
from repro.runtime import DistributedExecutor, RuntimeImage, TrustedHost
from repro.runtime import reference
from repro.splitter import split_source
from repro.workloads import listcompare, ot, tax, work

from tests.programs import OT_SOURCE, SIMPLE_SOURCE, config_abt, single_host_config


def observables(outcome):
    """Everything a run exposes, in comparable form.

    Object/array ids and frame serials come from process-global
    counters, so two runs of the same program never share raw ids;
    renumber them in order of first appearance (execution order is
    deterministic, so matching runs renumber identically).
    """
    from repro.runtime.values import ArrayRef, ObjectRef

    remap = {}

    def oid_of(raw):
        if raw not in remap:
            remap[raw] = len(remap)
        return remap[raw]

    def norm(value):
        if isinstance(value, ObjectRef):
            return ("obj", value.cls, oid_of(value.oid))
        if isinstance(value, ArrayRef):
            return ("arr", oid_of(value.oid), value.length, value.host)
        return value

    fields = {
        name: {
            (cls, field, None if oid is None else oid_of(oid)): norm(value)
            for (cls, field, oid), value in host.field_store.items()
        }
        for name, host in outcome.hosts.items()
    }
    frames = {
        name: [
            (
                fid.method_key,
                {var: norm(value) for var, value in frame.items()},
            )
            for fid, frame in sorted(
                host.frames.items(), key=lambda kv: kv[0].fid
            )
        ]
        for name, host in outcome.hosts.items()
    }
    return {
        "counts": outcome.counts,
        "elapsed": outcome.elapsed,
        "audits": list(outcome.audits),
        "fields": fields,
        "frames": frames,
    }


def run_both(source, config, monkeypatch):
    """One split, executed compiled and by the reference interpreter."""
    result = split_source(source, config)
    compiled = DistributedExecutor(result.split).run()
    with monkeypatch.context() as patch:
        patch.setattr(TrustedHost, "run_chain", reference.run_chain)
        interpreted = DistributedExecutor(result.split).run()
    return observables(compiled), observables(interpreted)


class TestWorkloads:
    @pytest.mark.parametrize(
        "source,config",
        [
            (SIMPLE_SOURCE, single_host_config()),
            (OT_SOURCE, config_abt()),
            (listcompare.source(8), listcompare.config()),
            (ot.source(rounds=2), ot.config()),
            (tax.source(), tax.config()),
            (work.source(rounds=12), work.config()),
        ],
        ids=["simple", "ot-test", "list", "ot", "tax", "work"],
    )
    def test_workload_identical(self, source, config, monkeypatch):
        compiled, interpreted = run_both(source, config, monkeypatch)
        assert compiled == interpreted


class TestGeneratedPrograms:
    @pytest.mark.parametrize("seed", range(0, 40, 2))
    def test_progen_identical(self, seed, monkeypatch):
        source = progen.generate_program(seed)
        compiled, interpreted = run_both(
            source, progen.config(), monkeypatch
        )
        assert compiled == interpreted


class TestOraclePaths:
    def test_reference_run_compiles_nothing(self, monkeypatch):
        """Guard the oracle: under the patched ``run_chain`` no fragment
        is ever compiled, or the differential above would compare
        compiled against compiled."""
        split = split_source(work.source(rounds=12), work.config()).split
        monkeypatch.setattr(TrustedHost, "run_chain", reference.run_chain)
        DistributedExecutor(split).run()
        assert RuntimeImage.for_split(split).compiled == {}

    def test_every_executed_entry_is_compiled(self, monkeypatch):
        """A normal run compiles each fragment it enters, and only those
        (the differential would pass vacuously if compiled code never
        ran)."""
        split = split_source(work.source(rounds=12), work.config()).split
        executed = set()
        run_fragment = reference.run_terminator

        def record(host, fragment, state):
            executed.add(fragment.entry)
            return run_fragment(host, fragment, state)

        with monkeypatch.context() as patch:
            patch.setattr(TrustedHost, "run_chain", reference.run_chain)
            patch.setattr(reference, "run_terminator", record)
            DistributedExecutor(split).run()
        DistributedExecutor(split).run()
        assert executed
        assert set(RuntimeImage.for_split(split).compiled) == executed
