"""Host assignment by cost minimization (Section 6).

Once the Section 4 constraints yield candidate sets, many assignments
are usually legal; the splitter "uses dynamic programming to synthesize
a good solution by attempting to minimize the number of remote control
transfers and field accesses".  We reproduce that scheme:

* statements are assigned by a dynamic program over the statement chain
  in program order, where the transition cost between consecutive
  statements approximates a remote control transfer and each statement
  pays for the remote field accesses it performs, weighted by loop depth;

* fields are placed to minimize total access cost from the statements
  that touch them, biased by per-principal host preferences — a
  preference below 1.0 can pull a principal's fields onto its own
  machine even at some communication cost, exactly the Alice-prefers-A
  scenario that produces the Figure 4 partition;

* field and statement placement feed each other, so the two passes
  alternate for a few rounds (they converge almost immediately on the
  paper's benchmarks).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..lang.typecheck import CheckedProgram
from ..trust import TrustConfiguration
from . import ir
from .cache import resolve_engine
from .mincut import try_exact
from .selection import CandidateSets, SplitError

#: Baseline added to field placement scores so that multiplicative
#: preferences can override a zero communication cost (the paper lets an
#: explicit preference win over the optimizer's default choice).
_PREFERENCE_BASELINE = 1000.0
#: Cost multiplier per loop nesting level.
_LOOP_WEIGHT = 4.0
#: Messages per remote field access (request + reply).
_FIELD_ACCESS_MESSAGES = 2.0
#: Rounds of alternating field/statement placement.
_ROUNDS = 3


class Assignment:
    """The chosen host for every field and statement."""

    def __init__(self) -> None:
        self.fields: Dict[Tuple[str, str], str] = {}
        self.statements: Dict[int, str] = {}

    def field_host(self, cls: str, name: str) -> str:
        return self.fields[(cls, name)]

    def statement_host(self, stmt: ir.IRStmt) -> str:
        return self.statements[stmt.info.uid]


def _loop_weight(depth: int) -> float:
    return _LOOP_WEIGHT ** min(depth, 6)


class Optimizer:
    def __init__(
        self,
        checked: CheckedProgram,
        program: ir.IRProgram,
        config: TrustConfiguration,
        candidates: CandidateSets,
    ) -> None:
        self.checked = checked
        self.program = program
        self.config = config
        self.candidates = candidates
        self.assignment = Assignment()
        self._field_sites: Dict[Tuple[str, str], List[ir.IRStmt]] = {}
        # -- precomputed invariants of the placement search ---------------
        # The search loops below re-ask the same structural questions for
        # every (statement, host) pair on every sweep; everything that
        # does not depend on the current assignment is derived once here.
        #: method -> statements in program order (walk_stmts is a tree
        #: walk; the search needs it dozens of times per method).
        self._method_stmts: Dict = {
            key: list(ir.walk_stmts(method.body))
            for key, method in program.methods.items()
        }
        #: method -> CFG edges with loop weights (identical every sweep).
        self._method_edges: Dict = {
            key: build_cfg_edges(method.body)
            for key, method in program.methods.items()
        }
        #: method -> symmetric weighted adjacency {uid: [(uid, weight)]}
        #: (what _refine_with_cfg_edges consults every sweep).
        self._method_neighbors: Dict = {}
        for key, edges in self._method_edges.items():
            neighbors: Dict[int, List[Tuple[int, float]]] = {
                s.info.uid: [] for s in self._method_stmts[key]
            }
            for a, b, depth in edges:
                weight = _loop_weight(depth)
                neighbors[a].append((b, weight))
                neighbors[b].append((a, weight))
            self._method_neighbors[key] = neighbors
        #: statement uid -> candidate host names / touched field keys /
        #: loop weight.
        self._stmt_hosts: Dict[int, List[str]] = {}
        self._stmt_fields: Dict[int, Tuple[Tuple[str, str], ...]] = {}
        self._stmt_weight: Dict[int, float] = {}
        #: uid -> constant (host, 0.0) cost rows for statements that
        #: touch no fields and make no calls — their local cost can
        #: never change, so the refinement pass reuses one list forever.
        self._zero_cost_rows: Dict[int, List[Tuple[str, float]]] = {}
        for stmts in self._method_stmts.values():
            for stmt in stmts:
                uid = stmt.info.uid
                hosts = candidates.statement_hosts(stmt)
                self._stmt_hosts[uid] = hosts
                self._stmt_fields[uid] = tuple(
                    stmt.info.used_fields | stmt.info.defined_fields
                )
                self._stmt_weight[uid] = _loop_weight(stmt.info.loop_depth)
                if not self._stmt_fields[uid] and not isinstance(
                    stmt, ir.CallStmt
                ):
                    self._zero_cost_rows[uid] = [(h, 0.0) for h in hosts]
        #: (host, host) -> link cost, flattened out of TrustConfiguration.
        names = config.host_names
        self._link: Dict[Tuple[str, str], float] = {
            (a, b): config.link_cost(a, b) for a in names for b in names
        }
        #: (field key, host) -> preference weight (pure in its inputs).
        self._preference_cache: Dict[Tuple[Tuple[str, str], str], float] = {}
        #: (stmt uid, host) -> local cost, valid while the fields the
        #: statement touches stay put (_place_fields drops exactly the
        #: rows a moved field invalidates).
        self._cost_cache: Dict[Tuple[int, str], float] = {}
        #: field key -> tuple of its access sites' hosts when the field
        #: was last scored; unchanged sites ⇒ unchanged choice, so
        #: _place_fields skips the rescore entirely.
        self._field_site_hosts: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._collect_field_sites()

    def _collect_field_sites(self) -> None:
        for stmts in self._method_stmts.values():
            for stmt in stmts:
                for key in self._stmt_fields[stmt.info.uid]:
                    self._field_sites.setdefault(key, []).append(stmt)

    # -- driver ----------------------------------------------------------------

    def run(self) -> Assignment:
        """Alternate statement/field placement from two initial seeds and
        keep the globally cheaper outcome.

        The "overlap" seed starts fields near compatible statements; the
        "gravity" seed starts them on the host that constraint-forced
        statements must use (which is what moves Alice's fields to T in
        the no-preference oblivious transfer, Section 6)."""
        best_cost = None
        best_assignment = None
        first_initial = None
        for seed in ("overlap", "gravity"):
            self.assignment = Assignment()
            self._place_fields_initial(seed)
            if seed == "overlap":
                first_initial = dict(self.assignment.fields)
            elif self.assignment.fields == first_initial:
                # Identical starting placement ⇒ the whole (deterministic)
                # pipeline repeats ⇒ same outcome as the first seed.
                break
            for _ in range(_ROUNDS):
                round_stmts = dict(self.assignment.statements)
                round_fields = dict(self.assignment.fields)
                self._assign_statements()
                self._refine_with_cfg_edges()
                self._place_fields()
                if (
                    self.assignment.statements == round_stmts
                    and self.assignment.fields == round_fields
                ):
                    break  # a fixpoint round changes nothing further
            self._refine_with_cfg_edges()
            cost = self._total_cost()
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_assignment = self.assignment
        self.assignment = best_assignment
        return self.assignment

    def _total_cost(self) -> float:
        """Estimated message cost of the current complete assignment,
        including preference weights on field placements."""
        cost = 0.0
        statements = self.assignment.statements
        link = self._link
        for key, stmts in self._method_stmts.items():
            for stmt in stmts:
                host = statements[stmt.info.uid]
                cost += self._statement_local_cost(stmt, host)
            for a, b, depth in self._method_edges[key]:
                cost += link[statements[a], statements[b]] * _loop_weight(depth)
        for key in self.candidates.fields:
            host = self.assignment.fields[key]
            cost += (
                _PREFERENCE_BASELINE * self._field_preference(key, host)
            )
        return cost

    def _gravity_host(self) -> Optional[str]:
        """The host that constraint-forced statements gravitate to."""
        votes: Dict[str, float] = {}
        for stmts in self._method_stmts.values():
            for stmt in stmts:
                hosts = self._stmt_hosts[stmt.info.uid]
                if len(hosts) == 1:
                    votes[hosts[0]] = votes.get(hosts[0], 0.0) + self._stmt_weight[
                        stmt.info.uid
                    ]
        if not votes:
            return None
        return max(sorted(votes), key=votes.get)

    # -- field placement ----------------------------------------------------------

    def _field_preference(self, key: Tuple[str, str], host: str) -> float:
        cached = self._preference_cache.get((key, host))
        if cached is not None:
            return cached
        info = self.checked.fields[key]
        owners = [p.name for p in info.label.conf.owners()]
        if not owners:
            owners = [p.name for p in info.label.integ.trust]
        weight = 1.0
        for owner in owners:
            weight *= self.config.preference(owner, host)
        self._preference_cache[(key, host)] = weight
        return weight

    def _pinned_host(self, key: Tuple[str, str]) -> Optional[str]:
        """A pinned field placement, validated against the candidates."""
        pin = self.config.field_pin(*key)
        if pin is None:
            return None
        if pin not in self.candidates.field_hosts(key):
            raise SplitError(
                f"field {key[0]}.{key[1]} is pinned to {pin}, but that "
                f"host does not satisfy its Section 4 constraints"
            )
        return pin

    def _place_fields_initial(self, seed: str = "overlap") -> None:
        """Before any statement hosts are known, place each field on the
        candidate most compatible with the statements that access it —
        or, for the "gravity" seed, on the host forced statements use."""
        gravity = self._gravity_host() if seed == "gravity" else None
        for key, hosts in self.candidates.fields.items():
            pin = self._pinned_host(key)
            if pin is not None:
                self.assignment.fields[key] = pin
                continue
            if gravity is not None and any(h.name == gravity for h in hosts):
                self.assignment.fields[key] = gravity
                continue
            sites = self._field_sites.get(key, [])
            scores = []
            for host in hosts:
                overlap = sum(
                    1
                    for stmt in sites
                    if host.name in self._stmt_hosts[stmt.info.uid]
                )
                score = (
                    _PREFERENCE_BASELINE - overlap
                ) * self._field_preference(key, host.name)
                scores.append((score, host.name))
            scores.sort()
            self.assignment.fields[key] = scores[0][1]
        self._cost_cache.clear()
        self._field_site_hosts.clear()

    def _place_fields(self) -> None:
        link = self._link
        statements = self.assignment.statements
        moved: List[Tuple[str, str]] = []
        for key, hosts in self.candidates.fields.items():
            sites = self._field_sites.get(key, [])
            site_hosts = tuple(statements[s.info.uid] for s in sites)
            if self._field_site_hosts.get(key) == site_hosts:
                # Same access-site placement ⇒ same scores ⇒ same choice.
                continue
            self._field_site_hosts[key] = site_hosts
            pin = self._pinned_host(key)
            if pin is not None:
                self.assignment.fields[key] = pin
                continue
            scores = []
            for host in hosts:
                access_cost = 0.0
                for stmt in sites:
                    access_cost += (
                        _FIELD_ACCESS_MESSAGES
                        * link[statements[stmt.info.uid], host.name]
                        * self._stmt_weight[stmt.info.uid]
                    )
                score = (
                    access_cost + _PREFERENCE_BASELINE
                ) * self._field_preference(key, host.name)
                scores.append((score, host.name))
            scores.sort()
            choice = scores[0][1]
            if self.assignment.fields.get(key) != choice:
                self.assignment.fields[key] = choice
                moved.append(key)
        # A moved field only stales the local costs of the statements
        # that touch it; everything else keeps its memo.
        for key in moved:
            for stmt in self._field_sites.get(key, ()):
                uid = stmt.info.uid
                for host in self._stmt_hosts[uid]:
                    self._cost_cache.pop((uid, host), None)

    # -- statement assignment ---------------------------------------------------------

    def _statement_local_cost(self, stmt: ir.IRStmt, host: str) -> float:
        """Remote-field-access cost of running ``stmt`` on ``host``.

        Memoized per (statement, host) while the field placement stands —
        ``_place_fields`` clears the memo.  Call statements also depend
        on the callee's (mutable) entry host, so they are never cached.
        """
        uid = stmt.info.uid
        is_call = isinstance(stmt, ir.CallStmt)
        field_keys = self._stmt_fields[uid]
        if not is_call:
            if not field_keys:
                return 0.0
            cached = self._cost_cache.get((uid, host))
            if cached is not None:
                return cached
        cost = 0.0
        weight = self._stmt_weight[uid]
        link = self._link
        fields = self.assignment.fields
        for key in field_keys:
            cost += _FIELD_ACCESS_MESSAGES * link[host, fields[key]] * weight
        if is_call:
            callee_key = (stmt.cls, stmt.method)
            entry_host = self._method_entry_host(callee_key)
            if entry_host is not None:
                # A call costs a transfer there and a transfer back.
                cost += 2 * link[host, entry_host] * weight
        else:
            self._cost_cache[(uid, host)] = cost
        return cost

    def _method_entry_host(self, method_key) -> Optional[str]:
        for stmt in self._method_stmts[method_key]:
            return self.assignment.statements.get(stmt.info.uid)
        return None

    def _assign_statements(self) -> None:
        for chain in self._method_stmts.values():
            if not chain:
                continue
            self._assign_chain(chain)

    def _refine_with_cfg_edges(self, max_rounds: int = 64) -> None:
        """Local-search refinement on the real CFG, worklist-driven.

        The chain DP approximates adjacency by program order and misses
        loop-back edges; this pass re-chooses each statement's host given
        its true control-flow neighbors (it is what parks a loop guard
        next to the host it must sync each iteration).  A round only
        revisits *dirty* statements — those whose neighbors moved in the
        previous round — and runs until the worklist drains: a clean
        statement sees the exact inputs of its last evaluation, so
        skipping it cannot change the outcome.  Call statements track
        the callee's moving entry host, so they stay dirty throughout.
        ``max_rounds`` is a backstop against equal-cost oscillation, far
        above any observed convergence depth."""
        link = self._link
        statements = self.assignment.statements
        for key, method_stmts in self._method_stmts.items():
            neighbors = self._method_neighbors[key]
            # Non-call local costs depend only on the (fixed) field
            # placement, so hoist them out of the round loop; call
            # statements are re-costed every round.
            local_costs: Dict[int, List[Tuple[str, float]]] = {}
            calls: Dict[int, ir.CallStmt] = {}
            zero_rows = self._zero_cost_rows
            order: List[int] = []
            for stmt in method_stmts:
                uid = stmt.info.uid
                order.append(uid)
                if isinstance(stmt, ir.CallStmt):
                    calls[uid] = stmt
                elif uid in zero_rows:
                    local_costs[uid] = zero_rows[uid]
                else:
                    local_costs[uid] = [
                        (host, self._statement_local_cost(stmt, host))
                        for host in self._stmt_hosts[uid]
                    ]
            # One persistent dirty set: a move marks its neighbors, and a
            # marked statement later in the current pass is re-evaluated
            # this pass (exactly the Gauss-Seidel order the full sweeps
            # had); a marked statement earlier in order waits for the
            # next pass.
            dirty = set(order)
            for _ in range(max_rounds):
                changed = False
                for uid in order:
                    if uid in dirty:
                        dirty.discard(uid)
                    elif uid not in calls:
                        continue
                    if uid in calls:
                        candidates = [
                            (host, self._statement_local_cost(calls[uid], host))
                            for host in self._stmt_hosts[uid]
                        ]
                    else:
                        candidates = local_costs[uid]
                    best_host = None
                    best_cost = None
                    for host, local in candidates:
                        cost = local
                        for other_uid, weight in neighbors[uid]:
                            cost += link[host, statements[other_uid]] * weight
                        if best_cost is None or cost < best_cost:
                            best_cost = cost
                            best_host = host
                    if best_host != statements[uid]:
                        statements[uid] = best_host
                        changed = True
                        for other_uid, _weight in neighbors[uid]:
                            if other_uid != uid:
                                dirty.add(other_uid)
                if not changed:
                    break

    def _assign_chain(self, chain: List[ir.IRStmt]) -> None:
        """Chain dynamic program: cost(i, h) = local(i, h) +
        min_g [cost(i-1, g) + transfer(g, h) · weight(i)]."""
        costs: List[Dict[str, float]] = []
        back: List[Dict[str, Optional[str]]] = []
        link = self._link
        for index, stmt in enumerate(chain):
            hosts = self._stmt_hosts[stmt.info.uid]
            if not hosts:
                raise SplitError(
                    f"statement at {stmt.info.pos} has no candidate hosts"
                )
            row: Dict[str, float] = {}
            pointers: Dict[str, Optional[str]] = {}
            weight = self._stmt_weight[stmt.info.uid]
            for host in hosts:
                local = self._statement_local_cost(stmt, host)
                if index == 0:
                    row[host] = local
                    pointers[host] = None
                else:
                    best_prev = None
                    best_cost = None
                    for prev_host, prev_cost in costs[-1].items():
                        transfer = link[prev_host, host] * weight
                        total = prev_cost + transfer + local
                        if best_cost is None or total < best_cost:
                            best_cost = total
                            best_prev = prev_host
                    row[host] = best_cost if best_cost is not None else local
                    pointers[host] = best_prev
            costs.append(row)
            back.append(pointers)
        # Backtrack from the cheapest final host.
        final_host = min(costs[-1], key=costs[-1].get)
        chosen: List[str] = [final_host]
        for index in range(len(chain) - 1, 0, -1):
            chosen.append(back[index][chosen[-1]])
        chosen.reverse()
        for stmt, host in zip(chain, chosen):
            self.assignment.statements[stmt.info.uid] = host


def _entry_stmt(stmt: ir.IRStmt) -> ir.IRStmt:
    """The first placeable statement executed when control reaches
    ``stmt`` (guards evaluate first, so structured nodes are their own
    entries)."""
    return stmt


def _exit_stmts(stmt: ir.IRStmt):
    """The statements that perform a structured statement's outgoing
    fall-through transition."""
    if isinstance(stmt, ir.IfStmt):
        exits = []
        for branch in (stmt.then_body, stmt.else_body):
            body = [s for s in branch if not isinstance(s, ir.ReturnStmt)]
            if branch and not _ends_in_return(branch):
                exits.extend(_exit_stmts(branch[-1]))
            elif not branch:
                exits.append(stmt)
        return exits or [stmt]
    if isinstance(stmt, ir.WhileStmt):
        return [stmt]
    return [stmt]


def _ends_in_return(body) -> bool:
    if not body:
        return False
    last = body[-1]
    if isinstance(last, ir.ReturnStmt):
        return True
    if isinstance(last, ir.IfStmt):
        return _ends_in_return(last.then_body) and _ends_in_return(
            last.else_body
        )
    return False


def build_cfg_edges(body, depth: int = 0):
    """Item-level control-flow edges (uid pairs with loop weights) —
    including loop-back edges the linear chain DP cannot see."""
    edges = []

    def seq_edges(stmts, depth):
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, ir.IfStmt):
                inner = depth
                for branch in (stmt.then_body, stmt.else_body):
                    if branch:
                        edges.append(
                            (stmt.info.uid, branch[0].info.uid, inner)
                        )
                        seq_edges(branch, inner)
                following = stmts[index + 1] if index + 1 < len(stmts) else None
                if following is not None:
                    for exit_stmt in _exit_stmts(stmt):
                        edges.append(
                            (exit_stmt.info.uid, following.info.uid, depth)
                        )
            elif isinstance(stmt, ir.WhileStmt):
                inner = depth + 1
                if stmt.body:
                    edges.append((stmt.info.uid, stmt.body[0].info.uid, inner))
                    seq_edges(stmt.body, inner)
                    for exit_stmt in _exit_stmts(stmt.body[-1]):
                        edges.append(
                            (exit_stmt.info.uid, stmt.info.uid, inner)
                        )
                following = stmts[index + 1] if index + 1 < len(stmts) else None
                if following is not None:
                    edges.append((stmt.info.uid, following.info.uid, depth))
            else:
                following = stmts[index + 1] if index + 1 < len(stmts) else None
                if following is not None:
                    edges.append((stmt.info.uid, following.info.uid, depth))

    seq_edges(body, depth)
    return edges


def assign_hosts(
    checked: CheckedProgram,
    program: ir.IRProgram,
    config: TrustConfiguration,
    candidates: CandidateSets,
    engine: Optional[str] = None,
) -> Assignment:
    """Pick a host for every field and statement.

    ``engine`` is resolved by :func:`repro.splitter.cache.resolve_engine`
    (``None`` means ``auto``; an unknown name raises ``ValueError``):

    * ``auto`` — exact min-cut when the instance reduces to two eligible
      hosts (see :mod:`repro.splitter.mincut`), otherwise the chain-DP
      heuristic.  The reduction looks only at candidates, unary costs
      and links, so an instance that keeps three hosts declines before
      any min-cut edge is built.  This is the default: the exact path is
      both faster and provably optimal where it applies.
    * ``heuristic`` — the chain-DP heuristic only: the fallback, and the
      reference the engine-equivalence tests compare ``auto`` against.
    """
    if resolve_engine(engine) == "auto":
        assignment = try_exact(checked, program, config, candidates)
        if assignment is not None:
            return assignment
    return Optimizer(checked, program, config, candidates).run()
