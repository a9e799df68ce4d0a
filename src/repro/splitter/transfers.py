"""Translation of host-assigned IR into fragments with control transfers.

This implements Section 6's translation, obeying the Section 5.5
constraints on where ``rgoto`` and ``sync`` may be inserted:

* code is segmented into per-host runs; each run becomes a fragment with
  an entry point;
* every entry point gets its dynamic access-control label ``I_e``.  We
  compute ``I_e = I(pc) ⊓ (⊓ I_v for written v) ⊓ I_P`` over the code
  locally reachable from the entry — the ``I(pc)`` component strengthens
  the paper's written definition and is what makes the Figure 4 checks
  come out right (B may not re-enter T's code between transfers);
* a transfer to an entry the source host may invoke directly becomes
  ``rgoto``; a transfer *up* in integrity becomes ``lgoto`` of a
  capability ``sync``-ed earlier by a host with sufficient integrity,
  with sync–lgoto pairs well nested so the global ICS stays a stack;
* method calls uniformly sync the caller's continuation entry on the
  caller's own host (a local ICS push), so returns are ``lgoto``s of a
  one-shot capability — this is what serializes Bob's transfer requests
  in the oblivious-transfer example (Section 5.4).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..labels import C, I, IntegLabel, Label
from ..trust import TrustConfiguration
from . import ir
from .fragments import (
    EdgeAction,
    EdgePlan,
    Fragment,
    TermBranch,
    TermCall,
    TermHalt,
    TermJump,
    TermReturn,
)
from .optimizer import Assignment
from .selection import SplitError

# ---------------------------------------------------------------------------
# Segmentation
# ---------------------------------------------------------------------------


class SegItem:
    """A placeable unit of the segmented method body."""

    __slots__ = ("entry", "host", "fragment", "pc_hint")

    def __init__(self, entry: str, host: str) -> None:
        self.entry = entry
        self.host = host
        self.fragment: Optional[Fragment] = None
        #: pc label for synthetic (statement-free) items.
        self.pc_hint: Optional[Label] = None


class SegRun(SegItem):
    __slots__ = ("stmts",)

    def __init__(self, entry: str, host: str, stmts: List[ir.IRStmt]) -> None:
        super().__init__(entry, host)
        self.stmts = stmts


class SegCall(SegItem):
    __slots__ = ("stmt",)

    def __init__(self, entry: str, host: str, stmt: ir.CallStmt) -> None:
        super().__init__(entry, host)
        self.stmt = stmt


class SegReturn(SegItem):
    __slots__ = ("stmt",)

    def __init__(self, entry: str, host: str, stmt: ir.ReturnStmt) -> None:
        super().__init__(entry, host)
        self.stmt = stmt


class SegIf(SegItem):
    __slots__ = ("stmt", "then_seq", "else_seq")

    def __init__(
        self,
        entry: str,
        host: str,
        stmt: ir.IfStmt,
        then_seq: List[SegItem],
        else_seq: List[SegItem],
    ) -> None:
        super().__init__(entry, host)
        self.stmt = stmt
        self.then_seq = then_seq
        self.else_seq = else_seq


class SegWhile(SegItem):
    __slots__ = ("stmt", "body_seq")

    def __init__(
        self, entry: str, host: str, stmt: ir.WhileStmt, body_seq: List[SegItem]
    ) -> None:
        super().__init__(entry, host)
        self.stmt = stmt
        self.body_seq = body_seq


class Translator:
    """Translates one whole program; see :func:`translate`."""

    def __init__(
        self,
        program: ir.IRProgram,
        assignment: Assignment,
        config: TrustConfiguration,
    ) -> None:
        self.program = program
        self.assignment = assignment
        self.config = config
        self.fragments: Dict[str, Fragment] = {}
        self._counters: Dict[Tuple[str, str], itertools.count] = {}
        self._method_seqs: Dict[Tuple[str, str], List[SegItem]] = {}
        # Set by linking, and kept here rather than on the items so the
        # segment tree holds no reference cycle.
        #: item -> the item control falls through to (None = method
        #: return point).
        self._next: Dict[SegItem, Optional[SegItem]] = {}
        #: item -> the sequence it belongs to.
        self._parent: Dict[SegItem, List[SegItem]] = {}
        self._entry_integ: Dict[str, IntegLabel] = {}
        self._entry_pc: Dict[str, Label] = {}
        #: while emitting a branch/loop body, the guard's edge plan can
        #: still accept one sync (stack of [plan, guard item, used flag]).
        self._branch_hooks: List[list] = []

    # -- naming -------------------------------------------------------------

    def _new_entry(self, key: Tuple[str, str], host: str) -> str:
        counter = self._counters.setdefault(key, itertools.count())
        return f"{key[0]}.{key[1]}.{next(counter)}@{host}"

    def _host_of(self, stmt: ir.IRStmt) -> str:
        return self.assignment.statements[stmt.info.uid]

    # -- driver -------------------------------------------------------------

    def run(self) -> Dict[str, Fragment]:
        for key, method in self.program.methods.items():
            self._method_seqs[key] = self._segment(key, method.body)
            self._maybe_prepend_prologue(key, method)
        for key in self.program.methods:
            self._link(self._method_seqs[key], None)
        for key in self.program.methods:
            self._compute_entry_integrity(key)
        # Consecutive fragments on mutually untrusting hosts need a relay
        # through a host both sides' capabilities can anchor on.
        inserted = False
        for key in self.program.methods:
            inserted |= self._insert_relays(key, self._method_seqs[key])
        if inserted:
            self._entry_integ.clear()
            self._entry_pc.clear()
            for key in self.program.methods:
                self._link(self._method_seqs[key], None)
            for key in self.program.methods:
                self._compute_entry_integrity(key)
        for key, method in self.program.methods.items():
            self._emit_method(key, method)
        self._mark_remote_entries()
        return self.fragments

    def _insert_relays(self, key: Tuple[str, str], seq: List[SegItem]) -> bool:
        """Insert empty relay runs on an anchoring host between adjacent
        items whose direct transfer is impossible: the source host may
        not rgoto the target, and the target host may not hold a
        capability for itself (Section 5.5's ``I_h ⊑ I(pc)``).

        The relay restores the [high][low][high] shape the stack
        discipline handles: the low host lgotos to the relay (whose
        capability a preceding anchored fragment syncs), and the relay
        rgotos onward.
        """
        hierarchy = self.config.hierarchy
        inserted = False
        index = 0
        while index + 1 < len(seq):
            a, b = seq[index], seq[index + 1]
            if isinstance(b, (SegIf, SegWhile)) or isinstance(
                a, (SegIf, SegWhile)
            ):
                index += 1
                continue
            if a.host != b.host and not self._rgoto_ok(a.host, b.entry):
                pc = self._item_pc(b)
                holder = self.config.host(b.host)
                if not holder.integ.flows_to(I(pc), hierarchy):
                    anchor = self._find_anchor(pc)
                    if anchor is not None and anchor != a.host:
                        relay = SegRun(
                            self._new_entry(key, anchor), anchor, []
                        )
                        relay.pc_hint = pc
                        seq.insert(index + 1, relay)
                        inserted = True
            index += 1
        for item in seq:
            if isinstance(item, SegIf):
                inserted |= self._insert_relays(key, item.then_seq)
                inserted |= self._insert_relays(key, item.else_seq)
            elif isinstance(item, SegWhile):
                inserted |= self._insert_relays(key, item.body_seq)
        return inserted

    def _find_anchor(self, pc: Label) -> Optional[str]:
        """A host trusted to hold capabilities at ``pc``."""
        hierarchy = self.config.hierarchy
        for descriptor in self.config.hosts:
            if descriptor.integ.flows_to(I(pc), hierarchy) and C(pc).flows_to(
                descriptor.conf, hierarchy
            ):
                return descriptor.name
        return None

    # -- pass A: segmentation --------------------------------------------------

    def _segment(
        self, key: Tuple[str, str], stmts: Sequence[ir.IRStmt]
    ) -> List[SegItem]:
        items: List[SegItem] = []
        run: List[ir.IRStmt] = []

        def flush() -> None:
            if run:
                host = self._host_of(run[0])
                items.append(SegRun(self._new_entry(key, host), host, list(run)))
                run.clear()

        for stmt in stmts:
            if isinstance(stmt, (ir.AssignVar, ir.AssignField,
                                 ir.AssignElem)):
                host = self._host_of(stmt)
                if run and self._host_of(run[0]) != host:
                    flush()
                run.append(stmt)
            elif isinstance(stmt, ir.CallStmt):
                flush()
                host = self._host_of(stmt)
                items.append(SegCall(self._new_entry(key, host), host, stmt))
            elif isinstance(stmt, ir.ReturnStmt):
                flush()
                host = self._host_of(stmt)
                items.append(SegReturn(self._new_entry(key, host), host, stmt))
            elif isinstance(stmt, ir.IfStmt):
                flush()
                host = self._host_of(stmt)
                items.append(
                    SegIf(
                        self._new_entry(key, host),
                        host,
                        stmt,
                        self._segment(key, stmt.then_body),
                        self._segment(key, stmt.else_body),
                    )
                )
            elif isinstance(stmt, ir.WhileStmt):
                flush()
                host = self._host_of(stmt)
                items.append(
                    SegWhile(
                        self._new_entry(key, host),
                        host,
                        stmt,
                        self._segment(key, stmt.body),
                    )
                )
            else:
                raise AssertionError(f"unexpected IR statement {stmt!r}")
        flush()
        return items

    def _link(self, seq: List[SegItem], cont: Optional[SegItem]) -> None:
        """Set each item's fall-through successor and parent sequence."""
        for index, item in enumerate(seq):
            following = seq[index + 1] if index + 1 < len(seq) else cont
            self._next[item] = following
            self._parent[item] = seq
            if isinstance(item, SegIf):
                self._link(item.then_seq, following)
                self._link(item.else_seq, following)
            elif isinstance(item, SegWhile):
                self._link(item.body_seq, item)

    def _maybe_prepend_prologue(
        self, key: Tuple[str, str], method: ir.IRMethod
    ) -> None:
        """Start each method on a host trusted for its begin-label pc.

        The paper's methods implicitly begin on a trusted host (T holds
        the initial capability in Figure 4); when host assignment puts a
        method's first statement on a low-integrity host, we synthesize
        an empty entry fragment on an anchoring host so capabilities for
        the rest of the method can be created there.
        """
        seq = self._method_seqs[key]
        if not seq:
            return
        pc = method.begin_label
        hierarchy = self.config.hierarchy
        first_descriptor = self.config.host(seq[0].host)
        if first_descriptor.integ.flows_to(I(pc), hierarchy):
            return
        for descriptor in self.config.hosts:
            if descriptor.integ.flows_to(I(pc), hierarchy) and C(pc).flows_to(
                descriptor.conf, hierarchy
            ):
                anchor = descriptor.name
                break
        else:
            return  # no anchor exists; later checks will diagnose
        prologue = SegRun(self._new_entry(key, anchor), anchor, [])
        prologue.pc_hint = pc
        seq.insert(0, prologue)

    # -- pass B: entry integrity I_e ----------------------------------------------

    def _item_pc(self, item: SegItem) -> Label:
        if item.pc_hint is not None:
            return item.pc_hint
        if isinstance(item, SegRun):
            return item.stmts[0].info.pc
        return item.stmt.info.pc

    def _own_integ(self, item: SegItem) -> IntegLabel:
        """I(pc) ⊓ writes ⊓ I_P for the item's own code."""
        integ = I(self._item_pc(item))
        stmts: List[ir.IRStmt]
        if isinstance(item, SegRun):
            stmts = item.stmts
        else:
            stmts = [item.stmt]
        method = None
        for stmt in stmts:
            info = stmt.info
            if info.l_out is not None and (
                info.defined_vars or info.defined_fields
            ):
                integ = integ.meet(I(info.l_out))
            integ = integ.meet(info.authority_integ)
        return integ

    def _local_successors(self, item: SegItem) -> List[SegItem]:
        """Items reachable from ``item`` without leaving its host."""
        successors: List[SegItem] = []

        def add(candidate: Optional[SegItem]) -> None:
            if candidate is not None and candidate.host == item.host:
                successors.append(candidate)

        following = self._next.get(item)
        if isinstance(item, (SegRun, SegCall)):
            add(following)
        elif isinstance(item, SegIf):
            add(item.then_seq[0] if item.then_seq else following)
            add(item.else_seq[0] if item.else_seq else following)
        elif isinstance(item, SegWhile):
            add(item.body_seq[0] if item.body_seq else item)
            add(following)
        return successors

    def _compute_entry_integrity(self, key: Tuple[str, str]) -> None:
        """I_e over the local closure of each entry.

        ``I_e(item)`` is the meet of ``_own_integ`` over every item in the
        local-successor closure, so items in the same strongly connected
        component share one value and an SCC's value is its members' meet
        folded with its successor components' values.  Tarjan emits
        components in reverse topological order, which makes the whole
        pass a single linear sweep instead of one closure walk per entry.
        """
        items = list(self._walk_items(self._method_seqs[key]))
        succs: Dict[int, List[SegItem]] = {}
        own: Dict[int, IntegLabel] = {}
        for item in items:
            succs[id(item)] = self._local_successors(item)
            own[id(item)] = self._own_integ(item)
        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        comp: Dict[int, int] = {}
        comp_value: List[IntegLabel] = []
        on_stack: set = set()
        scc_stack: List[SegItem] = []
        counter = 0
        for root in items:
            if id(root) in index:
                continue
            work: List[Tuple[SegItem, int]] = [(root, 0)]
            while work:
                node, child_pos = work[-1]
                nid = id(node)
                if child_pos == 0:
                    index[nid] = low[nid] = counter
                    counter += 1
                    scc_stack.append(node)
                    on_stack.add(nid)
                descended = False
                children = succs[nid]
                while child_pos < len(children):
                    child = children[child_pos]
                    child_pos += 1
                    cid = id(child)
                    if cid not in index:
                        work[-1] = (node, child_pos)
                        work.append((child, 0))
                        descended = True
                        break
                    if cid in on_stack and index[cid] < low[nid]:
                        low[nid] = index[cid]
                if descended:
                    continue
                work.pop()
                if work:
                    parent_id = id(work[-1][0])
                    if low[nid] < low[parent_id]:
                        low[parent_id] = low[nid]
                if low[nid] == index[nid]:
                    number = len(comp_value)
                    members: List[SegItem] = []
                    while True:
                        member = scc_stack.pop()
                        on_stack.discard(id(member))
                        comp[id(member)] = number
                        members.append(member)
                        if id(member) == nid:
                            break
                    value = IntegLabel.untrusted()
                    for member in members:
                        value = value.meet(own[id(member)])
                        for child in succs[id(member)]:
                            child_comp = comp[id(child)]
                            if child_comp != number:
                                value = value.meet(comp_value[child_comp])
                    comp_value.append(value)
        for item in items:
            self._entry_integ[item.entry] = comp_value[comp[id(item)]]
            self._entry_pc[item.entry] = self._item_pc(item)

    def _walk_items(self, seq: List[SegItem]):
        for item in seq:
            yield item
            if isinstance(item, SegIf):
                yield from self._walk_items(item.then_seq)
                yield from self._walk_items(item.else_seq)
            elif isinstance(item, SegWhile):
                yield from self._walk_items(item.body_seq)

    # -- transfer legality ------------------------------------------------------------

    def _check_pc_visible(self, pc: Label, host: str, what: str) -> None:
        descriptor = self.config.host(host)
        if not C(pc).flows_to(descriptor.conf, self.config.hierarchy):
            raise SplitError(
                f"{what}: transferring control to {host} would leak the "
                f"program counter {{{C(pc)}}} ⋢ {{{descriptor.conf}}} "
                f"(Section 5.5)"
            )

    def _rgoto_ok(self, src_host: str, dst_entry: str) -> bool:
        src_integ = self.config.host(src_host).integ
        return src_integ.flows_to(
            self._entry_integ[dst_entry], self.config.hierarchy
        )

    def _check_sync(
        self, src_host: str, dst_entry: str, pc: Label
    ) -> None:
        dst_host = self._entry_host(dst_entry)
        if not self._rgoto_ok(src_host, dst_entry):
            raise SplitError(
                f"host {src_host} lacks the integrity to sync entry "
                f"{dst_entry} (I_e = {{{self._entry_integ[dst_entry]}}})"
            )
        if not self.config.host(dst_host).integ.flows_to(
            I(pc), self.config.hierarchy
        ):
            raise SplitError(
                f"sync target host {dst_host} could abuse a capability for "
                f"{dst_entry}: I_{dst_host} ⋢ I(pc) = {{{I(pc)}}} "
                f"(Section 5.5)"
            )

    def _entry_host(self, entry: str) -> str:
        return entry.rsplit("@", 1)[1]

    # -- pass C: emission ------------------------------------------------------------

    def _emit_method(self, key: Tuple[str, str], method: ir.IRMethod) -> None:
        seq = self._method_seqs[key]
        if not seq:
            # Empty body: synthesize a single returning fragment on any host.
            host = self.config.host_names[0]
            entry = self._new_entry(key, host)
            fragment = Fragment(entry, host, key)
            fragment.terminator = TermReturn(None)
            self._entry_integ[entry] = I(method.begin_label)
            self.fragments[entry] = fragment
            self._method_seqs[key] = [SegRun(entry, host, [])]
            self._method_seqs[key][0].fragment = fragment
            return
        self._emit_seq(key, seq, via_lgoto=False)

    def _make_fragment(self, item: SegItem, key: Tuple[str, str]) -> Fragment:
        fragment = Fragment(item.entry, item.host, key)
        fragment.integ = self._entry_integ[item.entry]
        fragment.pc = self._item_pc(item)
        self.fragments[item.entry] = fragment
        item.fragment = fragment
        return fragment

    def _emit_seq(
        self, key: Tuple[str, str], seq: List[SegItem], via_lgoto: bool
    ) -> None:
        """Emit fragments for a sequence.

        ``via_lgoto`` — the transition out of this sequence's last item
        must consume the pending capability (set by an enclosing branch
        or loop that synced the continuation).
        """
        for index, item in enumerate(seq):
            is_last = index == len(seq) - 1
            consume = via_lgoto and is_last
            if isinstance(item, SegRun):
                self._emit_run(key, item, consume)
            elif isinstance(item, SegCall):
                self._emit_call(key, item, consume)
            elif isinstance(item, SegReturn):
                if via_lgoto:
                    raise SplitError(
                        f"return at {item.stmt.info.pos} inside a control "
                        "region whose continuation holds a pending "
                        "capability: the ICS stack discipline cannot be "
                        "preserved (Section 6)"
                    )
                self._emit_return(key, item)
            elif isinstance(item, SegIf):
                self._emit_if(key, item, consume)
            elif isinstance(item, SegWhile):
                self._emit_while(key, item, consume)

    def _transition_plan(
        self, src: SegItem, dst: Optional[SegItem], consume: bool, pc: Label
    ) -> EdgePlan:
        """Plan the fall-through edge from ``src``.

        ``dst`` None means the method's implicit return (only possible in
        void methods — normalization appends explicit returns, so this is
        a synthesized void return)."""
        if dst is None:
            raise SplitError(
                "method body may fall off the end; normalize with an "
                "explicit return"
            )
        if consume:
            self._check_pc_visible(pc, dst.host, "lgoto")
            return [EdgeAction("lgoto", dst.entry)]
        if src.host == dst.host:
            return [EdgeAction("local", dst.entry)]
        self._check_pc_visible(pc, dst.host, "rgoto")
        if self._rgoto_ok(src.host, dst.entry):
            return [EdgeAction("rgoto", dst.entry)]
        # The source host may not re-enter the destination directly; a
        # preceding fragment with sufficient integrity must sync it.
        provider = self._find_sync_provider(src, dst, pc)
        return [EdgeAction("lgoto", dst.entry)] if provider else []

    def _find_sync_provider(
        self, src: SegItem, dst: SegItem, pc: Label
    ) -> bool:
        """Retrofit a sync for ``dst`` onto a dominating fragment.

        Preference order: the innermost enclosing guard's edge plan
        (cheap — guards usually share the target's host, so the sync is
        a local ICS push, as in Figure 4), then already-emitted fragments
        on the target's host, then the nearest capable fragment.
        """
        # Candidate providers must *dominate* the source: only items that
        # precede it in its own sequence qualify (a fragment from a
        # sibling branch is never on the path, so a sync there would
        # leave this path's lgoto unbacked — the validator catches it).
        dst_host_early = self._entry_host(dst.entry)
        if self._branch_hooks:
            plan, guard, used = self._branch_hooks[-1]
            if (
                not used
                and guard.host == dst_host_early
                and self._rgoto_ok(guard.host, dst.entry)
            ):
                # The guard shares the target's host: its sync is a free
                # local ICS push (Figure 4's pattern) — take it first.
                self._check_sync(guard.host, dst.entry, self._item_pc(guard))
                plan.insert(len(plan) - 1, EdgeAction("sync", dst.entry))
                self._branch_hooks[-1][2] = True
                return True
        candidates = []
        for position, item in enumerate(self._parent.get(src, ())):
            if item is src:
                break
            fragment = item.fragment
            if fragment is None or not isinstance(
                fragment.terminator, TermJump
            ):
                continue
            if self._rgoto_ok(fragment.host, dst.entry):
                candidates.append((position, fragment))
        # Prefer a provider co-located with the target (local sync),
        # then the nearest preceding one.
        dst_host = self._entry_host(dst.entry)
        local = [c for c in candidates if c[1].host == dst_host]
        pool = local or candidates
        if pool:
            fragment = max(pool)[1]
            self._check_sync(fragment.host, dst.entry, fragment.pc)
            fragment.terminator.plan.insert(0, EdgeAction("sync", dst.entry))
            return True
        # Fall back to the innermost enclosing guard's edge plan (cheap
        # when the guard shares the target's host — a local ICS push, as
        # in Figure 4 — and always on the path into this branch).
        if self._branch_hooks:
            plan, guard, used = self._branch_hooks[-1]
            if not used and self._rgoto_ok(guard.host, dst.entry):
                self._check_sync(guard.host, dst.entry, self._item_pc(guard))
                # Insert just before the plan's final transfer action so
                # any join-capability sync stays below it on the ICS.
                plan.insert(len(plan) - 1, EdgeAction("sync", dst.entry))
                self._branch_hooks[-1][2] = True
                return True
        raise SplitError(
            f"no host on the path can sync entry {dst.entry} for "
            f"{src.host}: control cannot return to higher integrity "
            f"(Section 5.3)"
        )

    def _emit_run(self, key: Tuple[str, str], item: SegRun, consume: bool) -> None:
        from .fragments import OpAssignVar, OpSetElem, OpSetField

        fragment = self._make_fragment(item, key)
        for stmt in item.stmts:
            if isinstance(stmt, ir.AssignVar):
                fragment.ops.append(OpAssignVar(stmt.var, stmt.expr))
            elif isinstance(stmt, ir.AssignField):
                fragment.ops.append(
                    OpSetField(stmt.cls, stmt.field, stmt.obj, stmt.expr)
                )
            elif isinstance(stmt, ir.AssignElem):
                fragment.ops.append(
                    OpSetElem(stmt.array, stmt.index, stmt.expr)
                )
        pc = item.stmts[-1].info.pc if item.stmts else fragment.pc
        plan = self._transition_plan(
            item, self._next.get(item), consume, pc
        )
        fragment.terminator = TermJump(plan)

    def _emit_call(self, key: Tuple[str, str], item: SegCall, consume: bool) -> None:
        stmt = item.stmt
        fragment = self._make_fragment(item, key)
        callee_key = (stmt.cls, stmt.method)
        callee_seq = self._method_seqs[callee_key]
        if not callee_seq:
            raise SplitError(f"cannot call empty method {callee_key}")
        callee_entry = callee_seq[0].entry
        callee_host = callee_seq[0].host
        callee = self.program.methods[callee_key]
        pc = stmt.info.pc
        # The caller syncs its own continuation (a local ICS push) and
        # rgotos the callee; the callee's return is an lgoto of that
        # one-shot capability.
        if self._next.get(item) is None:
            raise SplitError(
                f"call at {stmt.info.pos} has no continuation; normalize "
                "the method with an explicit return"
            )
        self._check_pc_visible(pc, callee_host, "rgoto (call)")
        if not self._rgoto_ok(item.host, callee_entry):
            raise SplitError(
                f"caller host {item.host} may not invoke method entry "
                f"{callee_entry} (I_e = {{{self._entry_integ[callee_entry]}}})"
            )
        if consume:
            raise SplitError(
                f"call at {stmt.info.pos} may not be the last statement of "
                "a capability-consuming region"
            )
        args = list(zip(callee.params, stmt.args))
        cont_entry = self._continuation_entry(key, item, pc)
        self._check_sync(item.host, cont_entry, pc)
        fragment.terminator = TermCall(
            cont_entry,
            callee_key,
            callee_entry,
            args,
            stmt.result,
        )

    def _continuation_entry(
        self, key: Tuple[str, str], item: SegCall, pc: Label
    ) -> str:
        """The entry the callee's return re-enters.

        It must be on the caller's own host (the host whose stack holds
        the capability — Figure 4's e4 lives on T, the caller).  When the
        code after the call sits elsewhere, we synthesize an empty relay
        fragment on the caller that immediately transfers onward; the
        return *value* never passes through it (it is forwarded directly
        to its consumers, Section 5.2).
        """
        nxt = self._next.get(item)
        if nxt.host == item.host:
            return nxt.entry
        cont_entry = self._new_entry(key, item.host)
        relay = Fragment(cont_entry, item.host, key)
        relay.integ = I(pc)
        relay.pc = pc
        self._entry_integ[cont_entry] = relay.integ
        self._entry_pc[cont_entry] = pc
        self._check_pc_visible(pc, nxt.host, "rgoto (call continuation)")
        if not self._rgoto_ok(item.host, nxt.entry):
            raise SplitError(
                f"caller host {item.host} cannot resume at {nxt.entry} "
                f"after the call (I_e = {{{self._entry_integ[nxt.entry]}}})"
            )
        relay.terminator = TermJump([EdgeAction("rgoto", nxt.entry)])
        self.fragments[cont_entry] = relay
        return cont_entry

    def _emit_return(self, key: Tuple[str, str], item: SegReturn) -> None:
        fragment = self._make_fragment(item, key)
        fragment.terminator = TermReturn(item.stmt.expr)

    def _branch_plan(
        self,
        key: Tuple[str, str],
        guard: SegItem,
        branch_seq: List[SegItem],
        join: Optional[SegItem],
        pc: Label,
        loop_back_to: Optional[SegItem] = None,
    ) -> EdgePlan:
        """Plan one outgoing edge of a branch/loop guard and emit the
        branch body."""
        cont = loop_back_to if loop_back_to is not None else join
        if not branch_seq:
            # Empty branch: fall straight through to the continuation.
            if cont is None:
                raise SplitError("branch falls off the end of the method")
            if guard.host == cont.host:
                return [EdgeAction("local", cont.entry)]
            self._check_pc_visible(pc, cont.host, "rgoto")
            if self._rgoto_ok(guard.host, cont.entry):
                return [EdgeAction("rgoto", cont.entry)]
            raise SplitError(
                f"guard host {guard.host} cannot reach join {cont.entry}"
            )
        first = branch_seq[0]
        plan: EdgePlan = []
        needs_capability = self._branch_needs_capability(branch_seq, cont)
        if needs_capability:
            if cont is None:
                raise SplitError("branch needs a capability but has no join")
            self._check_sync(guard.host, cont.entry, pc)
            plan.append(EdgeAction("sync", cont.entry))
        if guard.host == first.host:
            plan.append(EdgeAction("local", first.entry))
        else:
            self._check_pc_visible(pc, first.host, "rgoto")
            if not self._rgoto_ok(guard.host, first.entry):
                raise SplitError(
                    f"guard host {guard.host} may not invoke branch entry "
                    f"{first.entry}"
                )
            plan.append(EdgeAction("rgoto", first.entry))
        self._branch_hooks.append([plan, guard, False])
        try:
            self._emit_seq(key, branch_seq, via_lgoto=needs_capability)
        finally:
            self._branch_hooks.pop()
        return plan

    def _branch_needs_capability(
        self, branch_seq: List[SegItem], cont: Optional[SegItem]
    ) -> bool:
        """Must the fall-through out of this branch consume a capability?"""
        if cont is None:
            return False
        last = branch_seq[-1]
        if isinstance(last, SegReturn):
            return False
        if self._terminates(branch_seq):
            return False
        sources = self._fallthrough_sources(branch_seq)
        needs = any(
            source.host != cont.host
            and not self._rgoto_ok(source.host, cont.entry)
            for source in sources
        )
        if needs and self._contains_return(branch_seq):
            raise SplitError(
                "a branch mixes return paths with a fall-through that "
                "needs a capability; the ICS stack discipline cannot be "
                "preserved"
            )
        return needs

    def _fallthrough_sources(self, seq: List[SegItem]) -> List[SegItem]:
        """The items that directly perform this sequence's final
        fall-through transition."""
        if not seq:
            return []
        last = seq[-1]
        if isinstance(last, SegIf):
            sources = []
            for branch in (last.then_seq, last.else_seq):
                if branch:
                    if not self._terminates(branch):
                        sources.extend(self._fallthrough_sources(branch))
                else:
                    sources.append(last)
            return sources
        if isinstance(last, SegWhile):
            return [last]
        return [last]

    def _terminates(self, seq: List[SegItem]) -> bool:
        """All paths through the sequence end in a return."""
        if not seq:
            return False
        last = seq[-1]
        if isinstance(last, SegReturn):
            return True
        if isinstance(last, SegIf):
            return self._terminates(last.then_seq) and self._terminates(
                last.else_seq
            )
        return False

    def _contains_return(self, seq: List[SegItem]) -> bool:
        return any(
            isinstance(item, SegReturn) for item in self._walk_items(seq)
        )

    def _emit_if(self, key: Tuple[str, str], item: SegIf, consume: bool) -> None:
        fragment = self._make_fragment(item, key)
        if consume and not self._terminates([item]):
            # The join must consume the enclosing capability; delegate by
            # treating each fall-through branch as the consuming region.
            raise SplitError(
                "an if at the end of a capability-consuming region must "
                "return on all paths"
            )
        # pc inside the branches includes the guard's label.
        inner_pc = item.stmt.info.l_in
        plan_true = self._branch_plan(
            key, item, item.then_seq, self._next.get(item), inner_pc
        )
        plan_false = self._branch_plan(
            key, item, item.else_seq, self._next.get(item), inner_pc
        )
        fragment.terminator = TermBranch(item.stmt.cond, plan_true, plan_false)

    def _emit_while(
        self, key: Tuple[str, str], item: SegWhile, consume: bool
    ) -> None:
        if consume:
            raise SplitError(
                "a loop may not end a capability-consuming region"
            )
        fragment = self._make_fragment(item, key)
        inner_pc = item.stmt.info.l_in
        # Body edge: loops back to the guard.
        plan_body = self._branch_plan(
            key, item, item.body_seq, None, inner_pc, loop_back_to=item
        )
        # Exit edge: to the fall-through continuation.  Reaching the exit
        # is inevitable under the termination assumption, so it reveals
        # only the *outer* pc (Section 2.3's point D), not the guard.
        outer_pc = item.stmt.info.pc
        cont = self._next.get(item)
        if cont is None:
            raise SplitError("loop falls off the end of the method")
        if item.host == cont.host:
            plan_exit: EdgePlan = [EdgeAction("local", cont.entry)]
        else:
            self._check_pc_visible(outer_pc, cont.host, "rgoto")
            if not self._rgoto_ok(item.host, cont.entry):
                raise SplitError(
                    f"loop guard host {item.host} cannot reach loop exit "
                    f"{cont.entry}"
                )
            plan_exit = [EdgeAction("rgoto", cont.entry)]
        fragment.terminator = TermBranch(item.stmt.cond, plan_body, plan_exit)

    # -- pass D: entry registration ------------------------------------------------

    def _mark_remote_entries(self) -> None:
        """Mark fragments targeted by any cross-host action as remotely
        invocable entry points."""
        for fragment in self.fragments.values():
            for plan in self._plans_of(fragment):
                for action in plan:
                    if action.entry is None:
                        continue
                    target = self.fragments.get(action.entry)
                    if target is None:
                        continue
                    if action.kind in ("rgoto", "sync", "lgoto"):
                        target.remote_entry = True
            terminator = fragment.terminator
            if isinstance(terminator, TermCall):
                self.fragments[terminator.callee_entry].remote_entry = True
                self.fragments[terminator.cont_entry].remote_entry = True

    def _plans_of(self, fragment: Fragment) -> List[EdgePlan]:
        terminator = fragment.terminator
        if isinstance(terminator, TermJump):
            return [terminator.plan]
        if isinstance(terminator, TermBranch):
            return [terminator.plan_true, terminator.plan_false]
        return []


def translate(
    program: ir.IRProgram,
    assignment: Assignment,
    config: TrustConfiguration,
) -> Tuple[Dict[str, Fragment], Dict[Tuple[str, str], str]]:
    """Translate assigned IR into fragments.

    Returns the fragment table and a map from method key to its entry
    fragment id.
    """
    translator = Translator(program, assignment, config)
    fragments = translator.run()
    entries = {
        key: seq[0].entry for key, seq in translator._method_seqs.items()
    }
    return fragments, entries
