"""Request-sized workloads for the many-session runtime.

The paper's deployment model is *run many times*: a split program is
published once, then executed per request by mutually distrusting
principals.  This module holds the programs that model such requests:
request-sized variants of the Table 1 workloads (loop bounds shrunk, as
the fault sweep does, so a request is milliseconds, not seconds) and a
generated aggregation program whose principal count is a parameter.

The repo benchmark (``perfbench/``) drives them, and
``tests/workloads/test_invariants.py`` pins their observables.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..trust import HostDescriptor, TrustConfiguration
from ..workloads import listcompare, medical, ot, tax, work


def request_workloads() -> Dict[str, Tuple[str, TrustConfiguration]]:
    """Request-sized variants of the Table 1 workloads.

    Loop bounds are shrunk so one session is request-shaped (sub-
    millisecond to a few milliseconds): the many-session story is about
    per-request overheads, which the full-size benchmark workloads — up
    to 100-iteration loops — would drown in loop-body execution.
    """
    return {
        "List": (listcompare.source(4), listcompare.config()),
        "OT": (ot.source(rounds=1), ot.config()),
        "Tax": (tax.source(records=3), tax.config()),
        "Work": (work.source(rounds=2, inner=2), work.config()),
        "Medical": (medical.source(patients=3), medical.config()),
    }


def aggregation_source(owners: int) -> str:
    """A generated aggregation program with ``owners`` data owners.

    Each principal ``Ij`` contributes a secret pinned to its own host;
    the client (who owns the data's confidentiality) aggregates.  The
    Tax shape generalized to N parties, so the principal count becomes
    a parameter."""
    fields = "\n".join(
        f"  int{{Client: I{j}; ?:I{j}}} s{j} = {3 + j};"
        for j in range(1, owners + 1)
    )
    body = "\n".join(
        f"    acc = acc + s{j} * 3 % 17;" for j in range(1, owners + 1)
    )
    return (
        "class Agg {\n"
        f"{fields}\n"
        "  int{Client:} total;\n\n"
        "  void main{?:Client}() {\n"
        "    int{Client:} acc = 0;\n"
        f"{body}\n"
        "    total = acc;\n"
        "  }\n"
        "}\n"
    )


def aggregation_config(owners: int) -> TrustConfiguration:
    hosts = [HostDescriptor.of("ClientHost", "{Client:}", "{?:Client}")]
    for j in range(1, owners + 1):
        hosts.append(
            HostDescriptor.of(
                f"H{j}", f"{{Client: I{j}; I{j}:}}", f"{{?:Client, I{j}}}"
            )
        )
    trust = TrustConfiguration(hosts)
    for j in range(1, owners + 1):
        trust.pin_field("Agg", f"s{j}", f"H{j}")
    return trust
