"""The Section 3.2 security assurance property, checked on real runs.

Every message carrying labeled data is instrumented; we assert that
data labeled L only ever becomes visible to a host h with C(L) ⊑ C_h,
and that every value accepted into a location labeled L came from a
host with I_h ⊑ I(L).  (The static splitter plus the Figure 6 dynamic
checks are supposed to guarantee this; the instrumentation verifies it
end to end.)
"""

import pytest

from repro.labels import C
from repro.reporting.throughput import request_workloads
from repro.runtime import run_split_program
from repro.splitter import ir, split_source
from repro.trust import HostDescriptor, TrustConfiguration
from repro.workloads import medical

from tests.programs import (
    OT_SOURCE,
    OT_S_SOURCE,
    PINGPONG_SOURCE,
    config_abs,
    config_abt,
)

PROGRAMS = [
    (OT_SOURCE, config_abt()),
    (OT_SOURCE, config_abt(prefer_alice_a=False)),
    (OT_S_SOURCE, config_abs()),
    (PINGPONG_SOURCE, config_abt()),
    *request_workloads().values(),
]


@pytest.mark.parametrize("source,config", PROGRAMS)
def test_no_confidential_data_reaches_uncleared_host(source, config):
    result = split_source(source, config)
    for opt_level in (0, 1, 2):
        outcome = run_split_program(result.split, opt_level=opt_level)
        for label, host in outcome.network.flow_log:
            descriptor = config.host(host)
            assert label.conf.flows_to(descriptor.conf), (
                f"data labeled {label} became visible to {host} "
                f"(C_h = {{{descriptor.conf}}}) at opt level {opt_level}"
            )


@pytest.mark.parametrize("source,config", PROGRAMS)
def test_field_placements_respect_trust(source, config):
    result = split_source(source, config)
    for placement in result.split.fields.values():
        descriptor = config.host(placement.host)
        assert C(placement.label).flows_to(descriptor.conf)
        assert placement.loc_label.flows_to(descriptor.conf)
        assert descriptor.integ.flows_to(placement.label.integ)


@pytest.mark.parametrize("source,config", PROGRAMS)
def test_statement_placements_respect_trust(source, config):
    result = split_source(source, config)
    for method in result.program.methods.values():
        for stmt in ir.walk_stmts(method.body):
            host = result.assignment.statement_host(stmt)
            descriptor = config.host(host)
            assert C(stmt.info.l_in).flows_to(descriptor.conf), (
                f"statement at {stmt.info.pos} on {host} reads "
                f"{stmt.info.l_in}"
            )
            if stmt.info.l_out is not None and (
                stmt.info.defined_vars or stmt.info.defined_fields
            ):
                assert descriptor.integ.flows_to(stmt.info.l_out.integ)
            if isinstance(stmt, ir.AssignVar) and isinstance(
                stmt.expr, ir.NewArr
            ):
                # The elements live on the allocating host (Section 4.1).
                assert C(stmt.expr.label).flows_to(descriptor.conf), (
                    f"array allocated at {stmt.info.pos} on {host} holds "
                    f"{stmt.expr.label}"
                )


def test_written_back_array_never_lands_on_an_uncleared_host():
    """Medical with the clinic-only scores written back into
    ``readings``: the array must live where {Patient: Clinic} may be
    read, never on LabHost, and hold the right values."""
    config = medical.config()
    source = medical.source(patients=3).replace(
        "total = total + s;", "readings[i] = s;\n      total = total + s;"
    )
    assert "readings[i] = s;" in source
    outcome = run_split_program(split_source(source, config).split)
    scores = [abs((17 + i) * 3 % 101 - 50) for i in range(3)]
    arrays = []
    for name, host in outcome.hosts.items():
        for oid, label in host.array_meta.items():
            assert C(label).flows_to(config.host(name).conf), (
                f"array {host.array_store[oid]} labeled {label} is "
                f"stored on {name}"
            )
            arrays.append((name, host.array_store[oid]))
    assert [values for _, values in arrays] == [scores]
    assert arrays[0][0] != "LabHost"
    assert outcome.field_value("MedicalSystem", "totalScore") == sum(scores)


@pytest.mark.parametrize("source,config", PROGRAMS)
def test_entry_acls_respect_integrity(source, config):
    result = split_source(source, config)
    for entry, fragment in result.split.fragments.items():
        for invoker in result.split.entry_invokers(entry):
            descriptor = config.host(invoker)
            assert descriptor.integ.flows_to(fragment.integ)


def test_compromise_of_untrusted_host_bounded():
    """Simulate the Section 3.2 claim: if Alice's machine A is bad, only
    data Alice owns was ever exposed to it."""
    config = config_abt()
    result = split_source(OT_SOURCE, config)
    outcome = run_split_program(result.split)
    exposed_to_a = [
        label for label, host in outcome.network.flow_log if host == "A"
    ]
    for label in exposed_to_a:
        owners = {p.name for p in label.conf.owners()}
        assert owners <= {"Alice"}, (
            f"host A saw data owned by {owners}: only Alice's policy may "
            "be threatened when A is compromised"
        )


def test_compromise_of_b_never_sees_alice_only_data():
    config = config_abt()
    result = split_source(OT_SOURCE, config)
    outcome = run_split_program(result.split)
    for label, host in outcome.network.flow_log:
        if host != "B":
            continue
        # Anything B sees must be readable by Bob under every policy.
        universe = [p for p in label.conf.owners()] + []
        from repro.labels import Principal

        assert label.conf.flows_to(config.host("B").conf)


def test_semi_trusted_t_sees_but_cannot_corrupt():
    """Host T may see both parties' data (C_T allows it) but Alice-
    trusted state only ever receives writes from Alice-trusted hosts."""
    config = config_abt()
    result = split_source(OT_SOURCE, config)
    # Writers ACL for Alice-trusted fields excludes B and any host
    # without Alice's integrity.
    for key in (("OTExample", "m1"), ("OTExample", "isAccessed")):
        writers = result.split.fields[key].writers
        assert "B" not in writers
