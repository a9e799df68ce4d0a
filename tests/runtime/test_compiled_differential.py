"""Differential tests: generated component functions ≡ the reference
interpreter.

``TrustedHost.run_chain`` runs every fragment inside the one generated
Python function of its local-jump component
(``repro.runtime.compiler``).  The tree-walking oracle in
``repro.runtime.reference`` is swapped in for it here, and both must
produce bit-identical observable behaviour: message counts, simulated
network time, audits, frame variables, and field stores.  Runs that
fail must fail the same way: the same exception, message and state.
"""

import gc
import random
import re
import traceback
import weakref
from collections import Counter

import pytest

from repro import progen
from repro.runtime import (
    RuntimeImage,
    Session,
    TrustedHost,
)
from repro.runtime import reference
from repro.runtime.compiler import (
    ForeignFragmentError,
    Linkage,
    component,
    generate,
)
from repro.runtime.faults import CrashPointInjector, FaultInjector, FaultPolicy
from repro.runtime.faultsweep import random_policy
from repro.runtime.network import DeliveryTimeoutError, Message
from repro.runtime.values import FrameID
from repro.reporting.throughput import request_workloads
from repro.runtime.trace import recorded_run
from repro.splitter import EdgeAction, TermBranch, TermJump, split_source
from repro.workloads import listcompare, ot, tax, work

from tests.programs import (
    OT_SOURCE,
    SIMPLE_SOURCE,
    config_abt,
    single_host_config,
)


def host_state(hosts):
    """The field stores and frames of ``hosts``, in comparable form.

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
        for name, host in hosts.items()
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
        for name, host in hosts.items()
    }
    return {"fields": fields, "frames": frames}


def observables(outcome):
    """Everything a run exposes, in comparable form."""
    return {
        "counts": outcome.counts,
        "elapsed": outcome.elapsed,
        "audits": list(outcome.audits),
        **host_state(outcome.hosts),
    }


def interpreted(run, monkeypatch):
    """``run()`` with the reference interpreter in place of the
    generated fragment functions."""
    with monkeypatch.context() as patch:
        patch.setattr(TrustedHost, "run_chain", reference.run_chain)
        return run()


def run_both(source, config, monkeypatch):
    """One split, executed compiled and by the reference interpreter."""
    split = split_source(source, config).split

    def run():
        return observables(Session(RuntimeImage.for_split(split)).run())

    return run(), interpreted(run, monkeypatch)


def failure_both(source, config, monkeypatch):
    """One split whose run raises, executed both ways: the exception's
    type and message and everything the hosts and network hold after
    it."""
    split = split_source(source, config).split

    def run():
        executor = Session(RuntimeImage.for_split(split))
        with pytest.raises(Exception) as info:
            executor.run()
        network = executor.network
        return {
            "error": (type(info.value), str(info.value)),
            "counts": dict(network.counts),
            "clock": network.clock,
            "audits": list(network.audit_log),
            **host_state(executor.hosts),
        }

    return run(), interpreted(run, monkeypatch)


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


class TestRequestWorkloads:
    """The request-sized Table 1 workloads, Medical included: calls,
    returns and piggybacked forwards across three and four hosts."""

    @pytest.mark.parametrize("name", sorted(request_workloads()))
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_request_workload_identical(self, name, level, monkeypatch):
        source, config = request_workloads()[name]
        split = split_source(source, config).split

        def run():
            executor = Session(RuntimeImage.for_split(split), opt_level=level)
            return exact(executor, executor.run())

        assert run() == interpreted(run, monkeypatch)


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
        Session(RuntimeImage.for_split(split)).run()
        assert RuntimeImage.for_split(split).compiled == {}

    def test_every_executed_entry_is_compiled(self, monkeypatch):
        """A normal run compiles the component of each fragment it
        enters, and only those (the differential would pass vacuously
        if compiled code never ran); each component is one function
        registered under every member."""
        split = split_source(work.source(rounds=12), work.config()).split
        executed = set()
        run_fragment = reference.run_terminator

        def record(host, fragment, state):
            executed.add(fragment.entry)
            return run_fragment(host, fragment, state)

        with monkeypatch.context() as patch:
            patch.setattr(TrustedHost, "run_chain", reference.run_chain)
            patch.setattr(reference, "run_terminator", record)
            Session(RuntimeImage.for_split(split)).run()
        Session(RuntimeImage.for_split(split)).run()
        assert executed
        components = {
            entry: [
                f.entry
                for f in component(split, split.entry_host(entry), entry)
            ]
            for entry in executed
        }
        compiled = RuntimeImage.for_split(split).compiled
        assert set(compiled) == {
            member for members in components.values() for member in members
        }
        for members in components.values():
            assert len({id(compiled[member]) for member in members}) == 1
        assert any(len(members) > 1 for members in components.values())


# ----------------------------------------------------------------------
# Hand-written edge cases.  The progen corpus runs on one host, so these
# programs are what put remote reads, short-circuits over them and
# runtime failures in front of the generated code.
# ----------------------------------------------------------------------

#: Java ``/`` and ``%`` over negative and positive dividends, exact and
#: inexact, by constant and by variable divisors of either sign.
JAVA_ARITHMETIC = """
class Arith {
  int{Alice:; ?:Alice} acc;
  int{Alice:; ?:Alice} last;

  void main{?:Alice}() {
    int{Alice:; ?:Alice} total = 7;
    int{Alice:; ?:Alice} negative = -3;
    int{Alice:; ?:Alice} positive = 4;
    int{Alice:; ?:Alice} i = -9;
    while (i < 10) {
      total = (total * 7 + i / 4 + i % 4 + i / negative + i % negative
               + i / positive + i % positive + (0 - i) / 5 + (0 - i) % 5)
              % 1000003;
      i = i + 1;
    }
    acc = total;
    last = -17 / 5 + -17 % 5 * 10;
  }
}
"""


def java_arithmetic_expected():
    def div(a, b):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q

    def mod(a, b):
        return a - div(a, b) * b

    total = 7
    for i in range(-9, 10):
        total = mod(
            total * 7 + div(i, 4) + mod(i, 4) + div(i, -3) + mod(i, -3)
            + div(i, 4) + mod(i, 4) + div(-i, 5) + mod(-i, 5),
            1000003,
        )
    return total, div(-17, 5) + mod(-17, 5) * 10


#: ``&&``/``||`` on T whose right operand reads a field placed on A: the
#: read (a getField message) happens only when the left operand does not
#: decide the result.  The last one reads T's frame after a remote read
#: in the same expression.
SHORT_CIRCUIT_REMOTE = """
class Guard authority(Alice) {
  boolean{Alice:; ?:Alice} flagA = true;
  int{Alice:; ?:Alice} countA = 3;
  int{Bob:; ?:Bob} bobVal = 5;
  int{Alice:; Bob:} out;

  void main{?:Alice}() where authority(Alice) {
    int{Alice:; Bob:} x = bobVal;
    boolean{Alice:; Bob:} both = x > 0 && flagA;
    boolean{Alice:; Bob:} either = x > 9 || countA > 2;
    boolean{Alice:; Bob:} skipped = x > 9 && flagA;
    boolean{Alice:; Bob:} decided = x > 0 || flagA;
    boolean{Alice:; Bob:} after = flagA && x > 4;
    if (both && either && !skipped && decided && after) { out = 1; }
    else { out = 2; }
  }
}
"""

#: T's first touch of main's frame is an assignment whose value needs
#: two remote field reads (from A and from B).
FIRST_TOUCH_REMOTE = """
class First authority(Alice) {
  int{Alice:; ?:Alice} countA = 3;
  int{Bob:; ?:Bob} bobVal = 5;
  int{Alice:; Bob:} out;

  void main{?:Alice}() where authority(Alice) {
    int{Alice:; Bob:} y = countA + bobVal;
    out = y * 2;
  }
}
"""

#: An array element read after a remote field read in one expression.
REMOTE_THEN_ARRAY = """
class Remote authority(Alice) {
  int{Bob:; ?:Bob} bobVal = 5;
  int{Alice:; Bob:} out;
  void main{?:Alice}() where authority(Alice) {
    int{Alice:; ?:Alice}[] xs = new int[3];
    xs[0] = 7;
    int{Alice:; ?:Alice} k = INDEX;
    out = xs[0] + bobVal + xs[k];
  }
}
"""

#: An array allocated on A and read from T.
CROSS_HOST_ELEMENT = """
class X authority(Alice) {
  int{Bob:; ?:Bob} bobVal = 5;
  int{Alice:; Bob:} out;
  int{Alice:; ?:Alice} sum;
  void main{?:Alice}() where authority(Alice) {
    int{Alice:; ?:Alice}[] xs = new int[3];
    xs[1] = 4;
    sum = xs[1] * 2;
    out = xs[1] + bobVal;
  }
}
"""

NODE = "class Node { int{Alice:; ?:Alice} val; }\n"

#: Runs that fail inside a fragment.  ``null-field-read`` fails before
#: its fragment touches the frame, so the frame must not exist after.
FAILURES = {
    "null-field-read": NODE + """
class Nulls {
  Node{Alice:; ?:Alice} holder;
  int{Alice:; ?:Alice} out;
  void main{?:Alice}() {
    int{Alice:; ?:Alice} y = holder.val;
    out = y;
  }
}
""",
    "null-field-write": NODE + """
class Nulls {
  Node{Alice:; ?:Alice} holder;
  void main{?:Alice}() {
    int{Alice:; ?:Alice} y = 3;
    holder.val = y;
  }
}
""",
    "null-array-length": """
class Lens {
  int{Alice:; ?:Alice} out;
  void main{?:Alice}() {
    int{Alice:; ?:Alice}[] xs = null;
    out = xs.length;
  }
}
""",
    "null-array-read": """
class Elems {
  int{Alice:; ?:Alice} out;
  void main{?:Alice}() {
    int{Alice:; ?:Alice}[] xs = null;
    out = xs[0];
  }
}
""",
    "array-read-out-of-bounds": """
class Bounds {
  int{Alice:; ?:Alice} out;
  void main{?:Alice}() {
    int{Alice:; ?:Alice}[] xs = new int[3];
    int{Alice:; ?:Alice} i = 0;
    while (i < 5) { out = out + xs[i]; i = i + 1; }
  }
}
""",
    "array-write-out-of-bounds": """
class Bounds {
  void main{?:Alice}() {
    int{Alice:; ?:Alice}[] xs = new int[2];
    xs[2] = 1;
  }
}
""",
    "remote-then-out-of-bounds": REMOTE_THEN_ARRAY.replace("INDEX", "3"),
    "division-by-zero": """
class Zero {
  int{Alice:; ?:Alice} out;
  void main{?:Alice}() {
    int{Alice:; ?:Alice} z = 0;
    out = 5 / z;
  }
}
""",
    "remainder-by-zero": """
class Zero {
  int{Alice:; ?:Alice} out;
  void main{?:Alice}() {
    int{Alice:; ?:Alice} z = 7;
    out = z % 0;
  }
}
""",
}


def chain(op, terms):
    """``terms`` joined by ``op``, which the parser nests to the left."""
    return f" {op} ".join(terms)


def nest(op, terms):
    """``terms`` joined by ``op``, parenthesised to nest to the right."""
    return f" {op} (".join(terms) + ")" * (len(terms) - 1)


#: Operator chains too deep to generate as one inline expression: a
#: ~300-term sum (also as a branch condition), a ~150-term ``&&`` chain
#: that turns false near its end and skips the remote reads after it, a
#: right-nested ``||`` chain, an array write whose value is deep (its
#: array and index are evaluated first), a call whose argument and
#: return value are deep, and a method whose first frame access sits in
#: the skipped right operands of a deep ``&&`` chain.
DEEP_SUM = chain("+", ["x", "countA", "x * 2", "-countA"] * 75)
DEEP_CHAINS = f"""
class Deep authority(Alice) {{
  int{{Alice:; ?:Alice}} countA = 3;
  boolean{{Alice:; ?:Alice}} flagA = true;
  boolean{{Alice:; ?:Alice}} flagOff = false;
  int{{Bob:; ?:Bob}} bobVal = 5;
  int{{Alice:; Bob:}} sum;
  boolean{{Alice:; Bob:}} all;
  boolean{{Alice:; Bob:}} nested;
  int{{Alice:; Bob:}} branch;
  int{{Alice:; ?:Alice}} elem;
  int{{Alice:; Bob:}} twice;
  boolean{{Alice:; Bob:}} gated;

  int{{Alice:; Bob:}} add{{?:Alice}}(int{{Alice:; Bob:}} a,
                                  int{{Alice:; Bob:}} b) {{
    return {chain("+", ["a", "b"] * 80)};
  }}

  boolean{{Alice:; Bob:}} gate{{?:Alice}}(int{{Alice:; Bob:}} a) {{
    boolean{{Alice:; Bob:}} r =
      {chain("&&", ["flagOff"] * 62 + ["a > 0"] * 8)};
    return r;
  }}

  void main{{?:Alice}}() where authority(Alice) {{
    int{{Alice:; Bob:}} x = bobVal;
    sum = {DEEP_SUM};
    all = {chain("&&", ["x > 0", "flagA"] * 70 + ["x > 9"] + ["flagA"] * 8)};
    nested = {nest("||", ["x > 9", "countA > 7"] * 60)};
    if ({DEEP_SUM} > 0) {{ branch = 1; }} else {{ branch = 2; }}
    int{{Alice:; ?:Alice}}[] xs = new int[3];
    xs[countA - 2] = {chain("+", ["countA"] * 200)};
    elem = xs[1];
    twice = add(x, {chain("-", ["x"] * 100)});
    gated = gate(x);
  }}
}}
"""

#: A deep array-write value that fails after its array index read a
#: field on another host: the index must be evaluated first.
FAILURES["deep-operand-order"] = NODE + f"""
class DeepFail authority(Alice) {{
  int{{Alice:; ?:Alice}} countA = 3;
  int{{Bob:; ?:Bob}} bobVal = 5;
  Node{{Alice:; ?:Alice}} holder;
  void main{{?:Alice}}() where authority(Alice) {{
    int{{Alice:; Bob:}}[] ys = new int[3];
    ys[bobVal - 4] = {chain("+", ["countA"] * 80)} + holder.val;
  }}
}}
"""


class TestEdgeBattery:
    def test_java_division_and_remainder(self, monkeypatch):
        compiled, oracle = run_both(JAVA_ARITHMETIC, config_abt(), monkeypatch)
        assert compiled == oracle
        (fields,) = [f for f in compiled["fields"].values() if f]
        assert (
            fields[("Arith", "acc", None)],
            fields[("Arith", "last", None)],
        ) == java_arithmetic_expected()

    @pytest.mark.parametrize(
        "source",
        [
            SHORT_CIRCUIT_REMOTE,
            FIRST_TOUCH_REMOTE,
            REMOTE_THEN_ARRAY.replace("INDEX", "1"),
            CROSS_HOST_ELEMENT,
        ],
        ids=[
            "short-circuit", "first-touch", "remote-then-array", "cross-host",
        ],
    )
    def test_remote_access_identical(self, source, monkeypatch):
        compiled, oracle = run_both(source, config_abt(), monkeypatch)
        assert compiled == oracle
        assert compiled["counts"]["getField"] > 0

    def test_short_circuit_skips_remote_reads(self, monkeypatch):
        """Two of the four remote right operands run (``x > 0 && flagA``
        and ``x > 9 || countA > 2``) and two are skipped; ``flagA && x >
        4`` reads on the left.  That is three getField messages."""
        compiled, _ = run_both(SHORT_CIRCUIT_REMOTE, config_abt(), monkeypatch)
        assert compiled["counts"]["getField"] == 3
        assert compiled["fields"]["T"][("Guard", "out", None)] == 1

    @pytest.mark.parametrize("name", sorted(FAILURES))
    def test_failure_identical(self, name, monkeypatch):
        compiled, oracle = failure_both(
            FAILURES[name], config_abt(), monkeypatch
        )
        assert compiled == oracle

    def test_deep_chains_identical(self, monkeypatch):
        compiled, oracle = run_both(DEEP_CHAINS, config_abt(), monkeypatch)
        assert compiled == oracle
        fields = {}
        for host_fields in compiled["fields"].values():
            fields.update(host_fields)
        assert {
            field: fields[("Deep", field, None)]
            for field in (
                "sum", "all", "nested", "branch", "elem", "twice", "gated",
            )
        } == {
            "sum": 75 * (5 + 3 + 10 - 3),
            "all": False,
            "nested": False,
            "branch": 1,
            "elem": 200 * 3,
            "twice": 80 * (5 + (5 - 99 * 5)),
            "gated": False,
        }

    def test_deep_operand_order(self, monkeypatch):
        compiled, _ = failure_both(
            FAILURES["deep-operand-order"], config_abt(), monkeypatch
        )
        assert compiled["error"] == (
            RuntimeError, "null dereference in field read"
        )
        assert compiled["counts"]["getField"] > 0

    def test_failure_before_first_touch_creates_no_frame(self, monkeypatch):
        compiled, _ = failure_both(
            FAILURES["null-field-read"], config_abt(), monkeypatch
        )
        assert compiled["error"] == (
            RuntimeError, "null dereference in field read"
        )
        assert all(not frames for frames in compiled["frames"].values())


# ----------------------------------------------------------------------
# Under faults: crashes and recoveries replace a host's frames, which
# the generated code must fetch again after every network access.
# ----------------------------------------------------------------------

FAULT_WORKLOADS = {
    "ot": lambda: (ot.source(rounds=1), ot.config()),
    "tax": lambda: (tax.source(), tax.config()),
}


def faulty_run(split, faults, token_seed):
    """Observables of one run under ``faults`` (a timeout included)."""
    executor = Session(
        RuntimeImage.for_split(split), faults=faults, token_rng=random.Random(token_seed)
    )
    try:
        observed = observables(executor.run())
    except DeliveryTimeoutError as error:
        observed = {
            "timeout": (error.seq, error.attempts),
            "counts": dict(executor.network.counts),
            "clock": executor.network.clock,
            **host_state(executor.hosts),
        }
    observed["fault_counts"] = dict(executor.network.fault_counts)
    return observed


class CrashSequence(FaultInjector):
    """Crash each ``(host, kind)`` in turn, at its first receipt once
    the previous crash has fired (``(host, kind, skip)``: after
    ``skip`` more receipts); nothing else."""

    def __init__(self, points):
        super().__init__(
            FaultPolicy(crash_prob=1.0, max_crashes=len(points),
                        crash_mode="volatile"),
            seed=0,
        )
        self.points = [(*point, 0)[:3] for point in points]

    def maybe_crash(self, host, clock, kind=None):
        if not self.points or self.points[0][:2] != (host, kind):
            return False
        skip = self.points[0][2]
        if skip:
            self.points[0] = (host, kind, skip - 1)
            return False
        self.points.pop(0)
        self.crashes += 1
        self.down_until[host] = clock + self.policy.crash_downtime
        return True


def crash_points(split):
    """Every remote receipt boundary of a fault-free run: its first,
    middle and last occurrence per (host, kind)."""
    _, messages = recorded_run(split, token_rng=random.Random(0))
    totals = Counter((m.dst, m.kind) for m in messages if m.src != m.dst)
    return [
        (host, kind, occurrence)
        for (host, kind), total in sorted(totals.items())
        for occurrence in sorted({0, total // 2, total - 1})
    ]


class TestUnderFaults:
    @pytest.mark.parametrize("workload", sorted(FAULT_WORKLOADS))
    def test_volatile_crash_points_identical(self, workload, monkeypatch):
        split = split_source(*FAULT_WORKLOADS[workload]()).split
        for host, kind, occurrence in crash_points(split):

            def run():
                injector = CrashPointInjector(host, kind, occurrence)
                observed = faulty_run(split, injector, 0x5EED)
                assert injector.fired
                return observed

            assert run() == interpreted(run, monkeypatch), (
                host, kind, occurrence,
            )

    @pytest.mark.parametrize("workload", sorted(FAULT_WORKLOADS))
    def test_random_schedules_identical(self, workload, monkeypatch):
        split = split_source(*FAULT_WORKLOADS[workload]()).split
        for seed in range(10):

            def run():
                policy = random_policy(random.Random(seed))
                return faulty_run(
                    split, FaultInjector(policy, seed=seed), seed ^ 0x5EED
                )

            assert run() == interpreted(run, monkeypatch), seed

    @pytest.mark.parametrize(
        "source,crashed",
        [
            (FIRST_TOUCH_REMOTE, "A"),
            (FIRST_TOUCH_REMOTE, "B"),
            (SHORT_CIRCUIT_REMOTE, "A"),
        ],
        ids=["first-touch-A", "first-touch-B", "short-circuit-A"],
    )
    def test_wipe_during_remote_read_identical(
        self, source, crashed, monkeypatch
    ):
        """T is wiped while one of its fragments waits on a remote read:
        the field's host crashes on the getField, and T crashes on the
        recovery announcement that host sends when the retransmission
        restarts it.  The rest of the fragment must use T's new frames."""
        split = split_source(source, config_abt()).split

        def run():
            injector = CrashSequence([(crashed, "getField"), ("T", "recover")])
            observed = faulty_run(split, injector, 0x5EED)
            assert injector.points == [], "a crash never fired"
            return observed

        assert run() == interpreted(run, monkeypatch)


# ----------------------------------------------------------------------
# Local-jump components: fragments of one host linked by local jumps run
# as one function that loops over them.
# ----------------------------------------------------------------------

#: An outer loop on A whose every round leaves for T (a field only T
#: may hold, fed by a read of B's field) and comes back by rgoto to the
#: middle of A's component.
RGOTO_MIDDLE = """
class Mid authority(Alice) {
  int{Alice:; Bob:} shared;
  int{Bob:; ?:Bob} bobVal = 5;
  int{Alice:; ?:Alice} accF = 1;
  void main{?:Alice}() where authority(Alice) {
    int{?:Alice} i = 0;
    while (i < 3) {
      int{Alice:; ?:Alice} j = 0;
      while (j < 4) { accF = (accF * 3 + j) % 1009; j = j + 1; }
      shared = shared + bobVal;
      i = i + 1;
    }
  }
}
"""

#: Nested loops on T with a read of B's field as the last step of every
#: outer round, right before the local jump back to the loop header.
LOOP_REMOTE = """
class Loop authority(Alice) {
  int{Alice:; Bob:} shared;
  int{Bob:; ?:Bob} bobVal = 5;
  int{Alice:; ?:Alice} out;
  void main{?:Alice}() where authority(Alice) {
    int{?:Alice} i = 0;
    int{Alice:; ?:Alice} acc = 1;
    while (i < 3) {
      int{Alice:; ?:Alice} j = 0;
      while (j < 4) { acc = (acc * 3 + j) % 1009; j = j + 1; }
      i = i + 1;
      shared = shared + acc + bobVal;
    }
    out = acc;
  }
}
"""

#: The first statement's only frame access is the right operand of an
#: ``&&`` that never runs it; a fused jump into a loop follows.
RIGHT_OPERAND_ONLY = """
class Sc {
  int{Alice:; ?:Alice} out;
  void main{?:Alice}() {
    int{Alice:; ?:Alice} k;
    boolean{Alice:; ?:Alice} c = 1 > 2 && k > 0;
    while (k < 3) { k = k + 1; }
    if (c) { out = 1; } else { out = k; }
  }
}
"""


#: A call that returns ``null`` assigns it (the second round's ``n``).
RETURNS_NULL = NODE + """
class Picker {
  int{Alice:; ?:Alice} out;
  Node{Alice:; ?:Alice} pick{Alice:; ?:Alice}(int{Alice:; ?:Alice} k) {
    if (k == 0) return new Node();
    else return null;
  }
  void main{?:Alice}() {
    int{Alice:; ?:Alice} i = 0;
    out = 0;
    while (i < 2) {
      Node{Alice:; ?:Alice} n = pick(i);
      if (n == null) out = out + 10;
      else out = out + 1;
      i = i + 1;
    }
  }
}
"""


def exact(executor, outcome=None):
    """Observables of a finished or failed run, the clock to the bit."""
    network = executor.network
    observed = {
        "counts": dict(network.counts),
        "clock": network.clock.hex(),
        "audits": list(network.audit_log),
        **host_state(executor.hosts),
    }
    if outcome is not None:
        observed.update(observables(outcome))
    return observed


def transfers_into_middle(split):
    """The rgoto/lgoto messages of a fault-free run whose target is not
    the first member of its component."""
    _, messages = recorded_run(split)
    found = []
    for message in messages:
        if message.kind == "rgoto":
            entry = message.payload["entry"]
        elif message.kind == "lgoto":
            entry = message.payload["token"].entry
        else:
            continue
        members = [f.entry for f in component(split, message.dst, entry)]
        if members.index(entry) > 0:
            found.append((message.kind, entry))
    return found


class TestComponents:
    def test_one_host_loop_like_work(self, monkeypatch):
        split = split_source(work.source(rounds=6), single_host_config()).split
        (host,) = {f.host for f in split.fragments.values()}
        members = component(split, host, split.main_entry)
        assert len(members) == len(split.fragments)

        def run():
            executor = Session(RuntimeImage.for_split(split))
            return exact(executor, executor.run())

        compiled = run()
        assert compiled == interpreted(run, monkeypatch)
        assert compiled["counts"]["total_messages"] == 0
        bodies = RuntimeImage.for_split(split).compiled
        assert len({id(bodies[f.entry]) for f in members}) == 1

    @pytest.mark.parametrize(
        "source,config,kind",
        [
            (RGOTO_MIDDLE, config_abt(), "rgoto"),
            (work.source(rounds=4), work.config(), "lgoto"),
        ],
        ids=["rgoto", "lgoto"],
    )
    def test_entered_at_a_middle_member(
        self, source, config, kind, monkeypatch
    ):
        split = split_source(source, config).split
        assert kind in {found for found, _ in transfers_into_middle(split)}

        def run():
            executor = Session(RuntimeImage.for_split(split))
            return exact(executor, executor.run())

        assert run() == interpreted(run, monkeypatch)

    def test_fused_sync_rejected(self, monkeypatch):
        """A ``[sync, local]`` plan runs its sync inline; when the sync
        is rejected (``_do_sync`` returns ``None``) the chain ends there
        and the run stalls, exactly as in the reference ``run_plan``."""
        split = split_source(work.source(rounds=4), work.config()).split
        ((plan_owner, sync_entry),) = [
            (fragment.entry, plan[0].entry)
            for fragment in split.fragments.values()
            if isinstance(fragment.terminator, TermBranch)
            for plan in (fragment.terminator.plan_true,
                         fragment.terminator.plan_false)
            if [a.kind for a in plan] == ["sync", "local"]
        ]
        host = split.entry_host(plan_owner)
        source, _ = generate(split, component(split, host, plan_owner))
        assert f"host._do_sync({sync_entry!r}, fid, token)" in source
        do_sync = TrustedHost._do_sync

        def run():
            calls = []

            def reject_second(self, entry, frame, token):
                if entry == sync_entry:
                    calls.append(entry)
                    if len(calls) == 2:
                        self.network.audit(
                            self.name, f"sync to {entry} refused"
                        )
                        return None
                return do_sync(self, entry, frame, token)

            executor = Session(RuntimeImage.for_split(split))
            with monkeypatch.context() as patch:
                patch.setattr(TrustedHost, "_do_sync", reject_second)
                with pytest.raises(RuntimeError, match="stalled") as info:
                    executor.run()
            return {"error": str(info.value), "calls": len(calls),
                    **exact(executor)}

        compiled = run()
        assert compiled == interpreted(run, monkeypatch)
        assert compiled["calls"] == 2

    def test_crash_mid_loop_replaces_frames(self, monkeypatch):
        """T's loop reads B's field each round.  B crashes on the second
        read and T on B's recovery announcement, while T's component
        waits on the read: the jump back to the loop header must carry
        a stale frame, and T's later writes land in its new frames."""
        split = split_source(LOOP_REMOTE, config_abt()).split
        assert len(component(split, "T", split.main_entry)) > 1

        def run():
            injector = CrashSequence([("B", "getField", 1), ("T", "recover")])
            executor = Session(
                RuntimeImage.for_split(split), faults=injector, token_rng=random.Random(0x5EED)
            )
            observed = exact(executor, executor.run())
            assert injector.points == [], "a crash never fired"
            return observed

        assert run() == interpreted(run, monkeypatch)

    def test_right_operand_only_frame_access(self, monkeypatch):
        split = split_source(RIGHT_OPERAND_ONLY, single_host_config()).split

        def run():
            executor = Session(RuntimeImage.for_split(split))
            return exact(executor, executor.run())

        compiled = run()
        assert compiled == interpreted(run, monkeypatch)
        assert compiled["fields"]["H"][("Sc", "out", None)] == 3


    def test_message_into_a_member_only_jumps_enter(self, monkeypatch):
        """Work's inner-loop body is entered only by the loop header's
        jump, so it is generated in place inside the header's loop.  A
        message that enters it anyway dispatches to the one re-entry
        leaf, which runs the component compiled with that member
        entered; the run matches the oracle."""
        self.enter_from_outside("Work.main.4@A", 1, monkeypatch)

    def test_message_into_a_loop_block(self, monkeypatch):
        """Work's inner-loop header is a block that only jumps enter, so
        it expects ``S`` fresh and the counter in a local; a message
        that enters it takes the same re-entry leaf."""
        self.enter_from_outside("Work.main.3@A", 2, monkeypatch)

    @staticmethod
    def enter_from_outside(entry, j, monkeypatch):
        split = split_source(work.source(rounds=2, inner=3), work.config()).split
        assert entry not in Linkage(split).entered
        source, namespace = generate(split, component(split, "A", entry))
        index = namespace["_index"]
        assert index[entry] == max(index.values())
        assert index[split.main_entry] != index[entry]
        assert source.count("while True:") == 2
        assert "return _reenter(host, entry, fid, token)" in source

        def run():
            executor = Session(RuntimeImage.for_split(split), storage=None)
            frame = FrameID(split.fragments[entry].method_key)
            executor.hosts["A"].frames[frame] = {"i": 1, "j": j, "acc": 5}
            executor.network.post(
                Message("rgoto", "A", "A", {"entry": entry, "frame": frame,
                                            "token": None, "vars": {}})
            )
            while not executor.step():
                pass
            return exact(executor)

        compiled = run()
        assert compiled == interpreted(run, monkeypatch)
        (frame,) = compiled["frames"]["A"]
        assert frame[1]["j"] == 3
        body = RuntimeImage.for_split(split).compiled[entry]
        assert set(body.__globals__["_reenter"].bodies) == {entry}

    def test_returned_null_identical(self, monkeypatch):
        compiled, oracle = run_both(RETURNS_NULL, config_abt(), monkeypatch)
        assert compiled == oracle
        assert compiled["fields"]["A"][("Picker", "out", None)] == 11


# ----------------------------------------------------------------------
# Local loops: a member with one incoming fused jump is generated in
# place at that jump, and a block that jumps back to itself is a Python
# ``while True:`` loop.
# ----------------------------------------------------------------------

#: Three nested loops with straight-line bodies on one host.  Only the
#: innermost is an inner ``while True:``; its exit, the middle loop's
#: increment, is generated in place and breaks out to the middle header.
NESTED_LOOPS = """
class Nest {
  int{Alice:; ?:Alice} out;
  void main{?:Alice}() {
    int{Alice:; ?:Alice} acc = 3;
    int{?:Alice} i = 0;
    while (i < 3) {
      int{?:Alice} j = 0;
      while (j < i + 2) {
        int{?:Alice} k = 0;
        while (k < 3) { acc = (acc * 5 + k + j) % 997; k = k + 1; }
        j = j + 1;
      }
      i = i + 1;
    }
    out = acc;
  }
}
"""

#: The same nesting with an ``&&`` guard and an if/else in the innermost
#: body, whose join has two incoming jumps and so stays a block.
NESTED_BRANCHY = """
class Nest {
  int{Alice:; ?:Alice} out;
  void main{?:Alice}() {
    int{Alice:; ?:Alice} acc = 3;
    int{?:Alice} i = 0;
    while (i < 3) {
      int{?:Alice} j = 0;
      while (j < i + 2) {
        int{?:Alice} k = 0;
        while (k < 3 && j >= 0) {
          if (k == 1) { acc = (acc * 5 + k) % 997; } else { acc = acc + j; }
          k = k + 1;
        }
        j = j + 1;
      }
      i = i + 1;
    }
    out = acc;
  }
}
"""

#: Every round of A's outer loop syncs its continuation and leaves for
#: B; the inner loop writes B's field ``sink`` and forwards ``j`` to B
#: on every iteration.
LOOP_PROTOCOL = """
class LoopMix authority(Alice) {
  int{Alice:; ?:Alice} out;
  int{Bob:} ticker;
  int{Bob:} sink;
  void main{?:Alice}() where authority(Alice) {
    int{?:Alice} i = 0;
    int{Alice:; ?:Alice} a = 1;
    while (i < 4) {
      int{?:Alice} j = 0;
      while (j < 3) { a = (a * 7 + j) % 101; j = j + 1; sink = j; }
      ticker = ticker + i + j;
      i = i + 1;
    }
    out = a;
  }
}
"""


def config_bob_on_b():
    """:func:`config_abt` with Bob's data pinned to B as well."""
    config = config_abt()
    config.set_preference("Bob", "B", 0.5)
    return config


def loop_blocks(split, host):
    """The inner ``while True:`` loops of ``host``'s main component,
    each as the source lines up to the end of its indentation."""
    source, _ = generate(split, component(split, host, split.main_entry))
    lines = source.splitlines()
    loops = []
    for i, line in enumerate(lines):
        if line.strip() == "while True:" and line.startswith("        "):
            pad = len(line) - len(line.lstrip())
            body = []
            for inner in lines[i + 1:]:
                if len(inner) - len(inner.lstrip()) <= pad:
                    break
                body.append(inner)
            loops.append("\n".join(body))
    return source, loops


class TestLoops:
    def test_nested_loops_shape(self):
        split = split_source(NESTED_LOOPS, single_host_config()).split
        _, (loop,) = loop_blocks(split, "H")
        assert "break" in loop
        assert loop.count("\n" + " " * 20 + "continue") == 1

    @pytest.mark.parametrize(
        "source,config",
        [
            (NESTED_LOOPS, single_host_config),
            (NESTED_LOOPS, config_abt),
            (NESTED_BRANCHY, single_host_config),
            (NESTED_BRANCHY, config_abt),
        ],
        ids=["straight-H", "straight-abt", "branchy-H", "branchy-abt"],
    )
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_nested_loops_identical(self, source, config, level, monkeypatch):
        split = split_source(source, config()).split

        def run():
            executor = Session(RuntimeImage.for_split(split), opt_level=level)
            return exact(executor, executor.run())

        compiled = run()
        assert compiled == interpreted(run, monkeypatch)
        (fields,) = [f for f in compiled["fields"].values() if f]
        assert fields[("Nest", "out", None)] == nested_out(source)

    def test_protocol_loop_shape(self):
        """The inner loop writes the remote field and defers the forward
        on each iteration; the outer round's sync is in the same
        component."""
        split = split_source(LOOP_PROTOCOL, config_bob_on_b()).split
        assert split.fields[("LoopMix", "sink")].host == "B"
        source, (loop,) = loop_blocks(split, "A")
        assert "host.write_field('LoopMix', 'sink'" in loop
        assert "host.defer_forward('B', (fid.fid, 'j')" in loop
        assert "host._do_sync(" in source

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_protocol_loop_identical(self, level, monkeypatch):
        split = split_source(LOOP_PROTOCOL, config_bob_on_b()).split

        def run():
            executor = Session(RuntimeImage.for_split(split), opt_level=level)
            return exact(executor, executor.run())

        compiled = run()
        assert compiled == interpreted(run, monkeypatch)
        assert compiled["counts"]["setField"] > 0
        assert compiled["fields"]["B"][("LoopMix", "ticker", None)] == 18

    @pytest.mark.parametrize(
        "level,kind",
        [(0, "forward"), (0, "setField"), (1, "setField"), (2, "setField")],
    )
    def test_protocol_loop_crashes_identical(self, level, kind, monkeypatch):
        """B crashes on the second remote write of the inner loop, or
        on the second forward (only opt level 0 sends one), and A on
        B's recovery announcement, while A's loop waits on that
        request: A's next writes must land in its new frames."""
        split = split_source(LOOP_PROTOCOL, config_bob_on_b()).split
        points = [("B", kind, 1), ("A", "recover")]

        def run():
            injector = CrashSequence(points)
            executor = Session(
                RuntimeImage.for_split(split), opt_level=level,
                faults=injector, token_rng=random.Random(0x5EED),
            )
            observed = exact(executor, executor.run())
            assert injector.points == [], "a crash never fired"
            return observed

        assert run() == interpreted(run, monkeypatch)


def nested_out(source):
    """``Nest.out`` of :data:`NESTED_LOOPS` or :data:`NESTED_BRANCHY`,
    computed in Python."""
    acc = 3
    for i in range(3):
        for j in range(i + 2):
            for k in range(3):
                if source is NESTED_LOOPS:
                    acc = (acc * 5 + k + j) % 997
                elif k == 1:
                    acc = (acc * 5 + k) % 997
                else:
                    acc = acc + j
    return acc


class TestPlacementCheck:
    def test_local_jump_to_another_host_fails_closed(self, monkeypatch):
        """A local plan whose target is placed on another host fails the
        run with a structured error, also under ``python -O``: the
        compiled path when the component is compiled, the oracle when it
        reaches the jump."""
        split = split_source(
            work.source(rounds=2, inner=2), work.config()
        ).split
        fragment = split.fragments["Work.main.4@A"]
        assert split.entry_host("Work.main.5@B") == "B"
        saved = fragment.terminator
        fragment.terminator = TermJump([EdgeAction("local", "Work.main.5@B")])

        def run():
            with pytest.raises(ForeignFragmentError) as info:
                Session(RuntimeImage(split), storage=None).run()
            error = info.value
            return error.host, error.entry, error.owner, str(error)

        try:
            assert run() == interpreted(run, monkeypatch) == (
                "A", "Work.main.5@B", "B",
                "A asked to run Work.main.5@B, which is placed on B",
            )
        finally:
            fragment.terminator = saved


# ----------------------------------------------------------------------
# The generated functions themselves
# ----------------------------------------------------------------------


class TestGeneratedCode:
    def test_traceback_names_the_fragment(self):
        """A traceback names the code object after the members of the
        failing fragment's component."""
        split = split_source(FAILURES["null-field-read"], config_abt()).split
        with pytest.raises(RuntimeError, match="null dereference") as info:
            Session(RuntimeImage.for_split(split)).run()
        files = [
            frame.filename
            for frame in traceback.extract_tb(info.value.__traceback__)
        ]
        host = split.entry_host(split.main_entry)
        members = component(split, host, split.main_entry)
        assert split.main_entry in [f.entry for f in members]
        name = " ".join(f.entry for f in members)
        assert f"<fragments {name}>" in files

    def test_dropped_image_frees_bodies_without_gc(self):
        """A body is not reachable from its own globals, so dropping its
        image frees it by refcount alone."""
        split = split_source(work.source(rounds=2), work.config()).split
        image = RuntimeImage(split)
        Session(image, storage=None).run()
        gc.collect()  # the finished session's host/network cycles
        bodies = [weakref.ref(body) for body in set(image.compiled.values())]
        assert bodies
        gc.disable()
        try:
            del image, split
            assert [body() for body in bodies] == [None] * len(bodies)
        finally:
            gc.enable()

    def test_local_jump_is_inlined(self):
        """The inner loop runs as a Python loop: its body, which only
        the loop header jumps to, is generated in place under the
        header's test, and its jump back to the header is a bare
        ``continue`` of the header's ``while True:``.  The loop's exit,
        an rgoto to B, is generated in place: it builds its message for
        the static target host and posts it, with no host plan method in
        between, and no ``ExecutionState`` is built."""
        split = split_source(work.source(rounds=2), work.config()).split
        members = component(split, "A", "Work.main.4@A")
        entries = [f.entry for f in members]
        assert {"Work.main.3@A", "Work.main.4@A"} <= set(entries)
        source, namespace = generate(split, members)
        assert "state" not in source
        assert "_run_plan" not in source
        rgoto = "N.post(Message('rgoto', 'A', 'B', {'entry': 'Work.main.5@B'"
        assert source.count(rgoto) == 1
        header = "while True:\n" + " " * 16 + "N.clock += C\n"
        assert source.count(header) == 1
        back = re.search(r"D\.log\('var', fid, 'j', L\d+\)\n( +)continue\n", source)
        assert back and len(back.group(1)) == 20
        assert "body" not in namespace

    def test_forward_keeps_the_frame(self):
        """A forward only defers at opt levels 1-2, so ``S`` and the
        held locals survive it: List reads ``headB`` from its local
        right after forwarding ``b``.  Only opt level 0 flushes there,
        and its branch fetches ``S`` again and reloads every held
        local."""
        split = split_source(listcompare.source(), listcompare.config()).split
        source, _ = generate(split, component(split, "A", split.main_entry))
        start = source.index("host.defer_forward('B', (fid.fid, 'b')")
        end = source.index("host.defer_forward('B', (fid.fid, 'headB')")
        lines = source[start:end].splitlines()[1:-1]
        flush, *branch, read = lines
        assert flush.strip() == "if host.opt_level == 0:"
        pad = len(flush) - len(flush.lstrip())
        assert all(len(line) - len(line.lstrip()) > pad for line in branch)
        assert [line.strip() for line in branch[:2]] == [
            "host.flush_forwards(None)",
            "S = host.frames.get(fid) or host.frame(fid)",
        ]
        reloaded = {line.split(" = ")[0].strip() for line in branch[2:]}
        assert re.fullmatch(r"v = (L\d+)", read.strip())
        assert read.strip()[4:] in reloaded
