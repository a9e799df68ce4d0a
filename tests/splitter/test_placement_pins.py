"""Pinned host placements: the SHA-256 of every chosen assignment.

Each digest covers a complete assignment, fields and statements alike,
in a uid-free form (statement uids come from a global counter, so
statement hosts are listed by method and walk position).  The groups
are the Table 1 workloads at full and request size, the Figure 4
oblivious transfer, and progen seeds 0-49 under ``progen.config()``.
Loop bounds change only literals, so a workload's full and request
sizes share one digest, and Figure 4's OT is the request-sized OT.

A change to the placement cost model or to either solver that moves a
placement fails here; a deliberate move is recorded by editing the pin.
"""

import hashlib
import json

import pytest

from repro import progen
from repro.reporting.throughput import request_workloads
from repro.splitter import ir, split_source
from repro.workloads import listcompare, medical, ot, tax, work

PINS = {
    "table1/List":
        "d45f9e30c1a072bbd0da965fe343dbdf1b3b1ea0d76ecd0ce6cf9a6c5944aa59",
    "table1/Medical":
        "9401e678fd9b6811c6da5996f6578df0ff7289e0af06e6331f2c7bf54b041b8d",
    "table1/OT":
        "09115fa45692cec0d31aeac33c6e57fe78eefa49e1ee351e3aef707eba8082c0",
    "table1/Tax":
        "bfd9e6523bac58da787a6ba34ada7ddb80555ba43bc313bb2128ed0df7463c17",
    "table1/Work":
        "b8f122e444b5dd7dbb26855c0684ae65ec51e5ab68471f980442b34573decae7",
    "request/List":
        "d45f9e30c1a072bbd0da965fe343dbdf1b3b1ea0d76ecd0ce6cf9a6c5944aa59",
    "request/Medical":
        "9401e678fd9b6811c6da5996f6578df0ff7289e0af06e6331f2c7bf54b041b8d",
    "request/OT":
        "09115fa45692cec0d31aeac33c6e57fe78eefa49e1ee351e3aef707eba8082c0",
    "request/Tax":
        "bfd9e6523bac58da787a6ba34ada7ddb80555ba43bc313bb2128ed0df7463c17",
    "request/Work":
        "b8f122e444b5dd7dbb26855c0684ae65ec51e5ab68471f980442b34573decae7",
    "fig4/OT":
        "09115fa45692cec0d31aeac33c6e57fe78eefa49e1ee351e3aef707eba8082c0",
    "progen/0-49":
        "422bc5b2a141b4d3255324083253fb6ece6c46c9a4b663fda86d8e3f9c75adbd",
}

TABLE1 = {
    "List": listcompare,
    "Medical": medical,
    "OT": ot,
    "Tax": tax,
    "Work": work,
}


def _snapshot(result):
    assignment = result.assignment
    return [
        sorted([list(key), host] for key, host in assignment.fields.items()),
        [
            [
                list(mkey),
                [
                    assignment.statements[stmt.info.uid]
                    for stmt in ir.walk_stmts(method.body)
                ],
            ]
            for mkey, method in result.program.methods.items()
        ],
    ]


def _digest(snapshot) -> str:
    return hashlib.sha256(json.dumps(snapshot).encode("utf-8")).hexdigest()


def _placement(name: str) -> str:
    group, _, item = name.partition("/")
    if group == "table1":
        module = TABLE1[item]
        return _digest(_snapshot(split_source(module.source(), module.config())))
    if group == "request":
        source, config = request_workloads()[item]
        return _digest(_snapshot(split_source(source, config)))
    if group == "fig4":
        return _digest(
            _snapshot(split_source(ot.source(rounds=1), ot.config()))
        )
    return _digest([
        _snapshot(split_source(progen.generate_program(seed), progen.config()))
        for seed in range(50)
    ])


@pytest.mark.parametrize("name", sorted(PINS))
def test_placement_is_pinned(name):
    assert _placement(name) == PINS[name]
