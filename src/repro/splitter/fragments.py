"""The split program: fragments, entry points, and placement metadata.

A partitioned program is a set of *fragments*, each assigned to one
host.  A fragment is a straight-line list of operations followed by a
terminator that transfers control — locally, or through the run-time
interface of Figure 3 (``rgoto``/``lgoto``/``sync``).  Fragments that
can be invoked remotely are *entry points* and carry the dynamic access
control label ``I_e`` of Section 5.5.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..labels import ConfLabel, IntegLabel, Label
from ..trust import TrustConfiguration
from . import ir

# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class Op:
    __slots__ = ()


class OpAssignVar(Op):
    """Evaluate an expression and store it in a frame variable."""

    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: ir.IRExpr) -> None:
        self.var = var
        self.expr = expr

    def __repr__(self) -> str:
        return f"OpAssignVar({self.var} = {self.expr!r})"


class OpSetField(Op):
    """Evaluate an expression and write it to a (possibly remote) field."""

    __slots__ = ("cls", "field", "obj", "expr")

    def __init__(
        self, cls: str, field: str, obj: Optional[ir.IRExpr], expr: ir.IRExpr
    ) -> None:
        self.cls = cls
        self.field = field
        self.obj = obj
        self.expr = expr

    def __repr__(self) -> str:
        return f"OpSetField({self.cls}.{self.field} = {self.expr!r})"


class OpSetElem(Op):
    """Evaluate index and value and write a (possibly remote) array
    element; the target host is the array's allocation host."""

    __slots__ = ("array", "index", "expr")

    def __init__(
        self, array: ir.IRExpr, index: ir.IRExpr, expr: ir.IRExpr
    ) -> None:
        self.array = array
        self.index = index
        self.expr = expr

    def __repr__(self) -> str:
        return f"OpSetElem({self.array!r}[{self.index!r}] = {self.expr!r})"


class OpForward(Op):
    """Forward a frame variable's current value to remote hosts holding
    copies of the same frame (Section 5.2)."""

    __slots__ = ("var", "hosts")

    def __init__(self, var: str, hosts: Sequence[str]) -> None:
        self.var = var
        self.hosts = list(hosts)

    def __repr__(self) -> str:
        return f"OpForward({self.var} -> {self.hosts})"


# ---------------------------------------------------------------------------
# Edge plans and terminators
# ---------------------------------------------------------------------------


class EdgeAction:
    """One step of a control transfer plan.

    kind:
      * ``sync``  — obtain a capability for ``entry`` (ICS push);
      * ``rgoto`` — regular transfer to ``entry`` passing the current token;
      * ``lgoto`` — consume the current token (ICS pop);
      * ``local`` — fall through to a same-host fragment;
      * ``halt``  — end of program.
    """

    __slots__ = ("kind", "entry")

    def __init__(self, kind: str, entry: Optional[str] = None) -> None:
        self.kind = kind
        self.entry = entry

    def __repr__(self) -> str:
        return f"{self.kind}({self.entry})" if self.entry else self.kind


EdgePlan = List[EdgeAction]


class Terminator:
    __slots__ = ()


class TermJump(Terminator):
    __slots__ = ("plan",)

    def __init__(self, plan: EdgePlan) -> None:
        self.plan = plan

    def __repr__(self) -> str:
        return f"TermJump({self.plan})"


class TermBranch(Terminator):
    __slots__ = ("cond", "plan_true", "plan_false")

    def __init__(
        self, cond: ir.IRExpr, plan_true: EdgePlan, plan_false: EdgePlan
    ) -> None:
        self.cond = cond
        self.plan_true = plan_true
        self.plan_false = plan_false

    def __repr__(self) -> str:
        return f"TermBranch({self.cond!r}, {self.plan_true}, {self.plan_false})"


class TermCall(Terminator):
    """Method call: sync the continuation entry on the caller's own host,
    create a fresh frame, forward arguments, and rgoto the callee entry."""

    __slots__ = (
        "cont_entry",
        "callee_key",
        "callee_entry",
        "args",
        "arg_hosts",
        "result_var",
        "result_hosts",
    )

    def __init__(
        self,
        cont_entry: str,
        callee_key: Tuple[str, str],
        callee_entry: str,
        args: Sequence[Tuple[str, ir.IRExpr]],
        result_var: Optional[str],
    ) -> None:
        self.cont_entry = cont_entry
        self.callee_key = callee_key
        self.callee_entry = callee_entry
        self.args = list(args)
        #: hosts that consume each argument inside the callee (filled by
        #: the forwarding pass); values go directly there — never to
        #: hosts that merely host other parts of the callee.
        self.arg_hosts: Dict[str, List[str]] = {}
        self.result_var = result_var
        #: hosts that consume the return value (filled by the forwarding
        #: pass); the returning host forwards the value to them directly.
        self.result_hosts: List[str] = []

    def __repr__(self) -> str:
        return f"TermCall({self.callee_entry} -> {self.cont_entry})"


class TermReturn(Terminator):
    """Method return: forward the return value to the caller's frame and
    lgoto the caller's capability."""

    __slots__ = ("expr",)

    def __init__(self, expr: Optional[ir.IRExpr]) -> None:
        self.expr = expr

    def __repr__(self) -> str:
        return f"TermReturn({self.expr!r})"


class TermHalt(Terminator):
    __slots__ = ()

    def __repr__(self) -> str:
        return "TermHalt"


# ---------------------------------------------------------------------------
# Fragments and the split program
# ---------------------------------------------------------------------------


class Fragment:
    """A straight-line code fragment placed on one host."""

    __slots__ = (
        "entry",
        "host",
        "method_key",
        "ops",
        "terminator",
        "integ",
        "pc",
        "remote_entry",
    )

    def __init__(self, entry: str, host: str, method_key: Tuple[str, str]) -> None:
        self.entry = entry
        self.host = host
        self.method_key = method_key
        self.ops: List[Op] = []
        self.terminator: Terminator = TermHalt()
        #: I_e — dynamic access control label (Section 5.5).
        self.integ: IntegLabel = IntegLabel.untrusted()
        #: pc label at the fragment's start (for transfer constraints).
        self.pc: Label = Label.constant()
        #: True when some remote transition targets this fragment.
        self.remote_entry: bool = False

    def __repr__(self) -> str:
        return f"Fragment({self.entry}@{self.host}, {len(self.ops)} ops)"


class FieldPlacement:
    """Where a field lives and which hosts may access it (Section 5.1)."""

    __slots__ = ("cls", "field", "base", "host", "label", "loc_label",
                 "readers", "writers", "initial")

    def __init__(
        self,
        cls: str,
        field: str,
        base: str,
        host: str,
        label: Label,
        loc_label: ConfLabel,
        readers: FrozenSet[str],
        writers: FrozenSet[str],
        initial,
    ) -> None:
        self.cls = cls
        self.field = field
        self.base = base
        self.host = host
        self.label = label
        self.loc_label = loc_label
        #: hosts h1 with C(L_f) ⊑ C_h1 — may getField.
        self.readers = readers
        #: hosts h1 with I_h1 ⊑ I(L_f) — may setField.
        self.writers = writers
        self.initial = initial

    def default_value(self):
        if self.initial is not None:
            return self.initial
        if self.base == "int":
            return 0
        if self.base == "boolean":
            return False
        return None

    def __repr__(self) -> str:
        return f"FieldPlacement({self.cls}.{self.field}@{self.host})"


class MethodPlan:
    """Run-time metadata for one source method."""

    __slots__ = ("cls", "name", "entry", "params", "var_bases",
                 "var_labels", "return_base")

    def __init__(
        self,
        cls: str,
        name: str,
        entry: str,
        params: Sequence[str],
        var_bases: Dict[str, str],
        var_labels: Dict[str, Label],
        return_base: str,
    ) -> None:
        self.cls = cls
        self.name = name
        self.entry = entry
        self.params = list(params)
        self.var_bases = dict(var_bases)
        self.var_labels = dict(var_labels)
        self.return_base = return_base

    def default_value(self, var: str):
        base = self.var_bases.get(var)
        if base == "int":
            return 0
        if base == "boolean":
            return False
        return None

    def __repr__(self) -> str:
        return f"MethodPlan({self.cls}.{self.name} -> {self.entry})"


class SplitProgram:
    """The complete output of the splitter."""

    def __init__(self, config: TrustConfiguration, digest: bytes) -> None:
        self.config = config
        self.digest = digest
        self.fragments: Dict[str, Fragment] = {}
        self.fields: Dict[Tuple[str, str], FieldPlacement] = {}
        self.methods: Dict[Tuple[str, str], MethodPlan] = {}
        self.main_entry: Optional[str] = None
        #: continuation entry -> (result variable, consumer hosts),
        #: built on the first :meth:`cont_result`.
        self._cont_results: Optional[
            Dict[str, Tuple[Optional[str], Tuple[str, ...]]]
        ] = None
        #: the default-registry runtime image
        #: (:meth:`~repro.runtime.session.RuntimeImage.for_split`).
        self._image = None

    def shared_view(self) -> "SplitProgram":
        """This split over the same ``fragments``, ``fields`` and
        ``methods`` tables, without its memos.

        A runtime image holds the view, so nothing the image owns
        points back at the split that memoizes it: a split and its
        image die by reference counting.  A mutation of the tables
        reaches both.
        """
        view = SplitProgram(self.config, self.digest)
        view.fragments = self.fragments
        view.fields = self.fields
        view.methods = self.methods
        view.main_entry = self.main_entry
        return view

    def cont_result(self, entry: str):
        """(result variable, consumer hosts) for the call whose
        continuation is ``entry``; (None, ()) when not a continuation.

        Static per call site, so the returning host derives the whole
        return route from the capability token alone.
        """
        cache = self._cont_results
        if cache is None:
            cache = {}
            for fragment in self.fragments.values():
                terminator = fragment.terminator
                if isinstance(terminator, TermCall):
                    cache[terminator.cont_entry] = (
                        terminator.result_var,
                        tuple(terminator.result_hosts),
                    )
            self._cont_results = cache
        return cache.get(entry, (None, ()))

    def entry_invokers(self, entry: str) -> FrozenSet[str]:
        """Hosts allowed to rgoto/sync this entry: {i : I_i ⊑ I_e}."""
        integ = self.fragments[entry].integ
        hierarchy = self.config.hierarchy
        return frozenset(
            descriptor.name
            for descriptor in self.config.hosts
            if descriptor.integ.flows_to(integ, hierarchy)
        )

    @property
    def main_host(self) -> str:
        assert self.main_entry is not None
        return self.fragments[self.main_entry].host

    def fragments_on(self, host: str) -> List[Fragment]:
        return [f for f in self.fragments.values() if f.host == host]

    def fields_on(self, host: str) -> List[FieldPlacement]:
        return [f for f in self.fields.values() if f.host == host]

    def hosts_used(self) -> List[str]:
        used = {f.host for f in self.fragments.values()}
        used |= {f.host for f in self.fields.values()}
        return sorted(used)

    def entry_host(self, entry: str) -> str:
        return self.fragments[entry].host

    def __repr__(self) -> str:
        return (
            f"SplitProgram({len(self.fragments)} fragments on "
            f"{len(self.hosts_used())} hosts)"
        )
