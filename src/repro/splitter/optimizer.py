"""Host assignment by cost minimization (Section 6).

Once the Section 4 constraints yield candidate sets, many assignments
are usually legal; the splitter "uses dynamic programming to synthesize
a good solution by attempting to minimize the number of remote control
transfers and field accesses".  The objective is the one
:class:`~repro.splitter.mincut.PlacementModel`; :func:`assign_hosts`
builds it once and hands it to the exact min-cut solver, then, when the
instance does not reduce to two hosts, to the heuristic here:

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
from .mincut import (
    _FIELD_ACCESS_MESSAGES,
    _PREFERENCE_BASELINE,
    Assignment,
    PlacementModel,
    try_exact,
)
from .selection import CandidateSets

#: Rounds of alternating field/statement placement.
_ROUNDS = 3


class Optimizer:
    """The chain-DP heuristic over one :class:`PlacementModel`.

    A placement is a list of hosts in the model's node order (``None``
    for a node not yet placed)."""

    def __init__(self, model: PlacementModel) -> None:
        self.model = model
        self.hosts: List[Optional[str]] = []
        # -- memos of the placement search ----------------------------------
        #: field node -> the statement nodes that access it, walk order.
        self._field_sites: Dict[int, List[int]] = {}
        #: statement node -> symmetric weighted CFG adjacency (what
        #: _refine_with_cfg_edges consults every sweep).
        self._neighbors: Dict[int, List[Tuple[int, float]]] = {}
        #: statement node -> constant (host, 0.0) cost rows for
        #: statements that touch no fields and make no calls — their
        #: local cost can never change, so refinement reuses one list.
        self._zero_cost_rows: Dict[int, List[Tuple[str, float]]] = {}
        for stmts, cfg_edges in model.methods:
            for index in stmts:
                self._neighbors[index] = []
                fields = model.fields_of[index]
                for field in fields:
                    self._field_sites.setdefault(field, []).append(index)
                if not fields and index not in model.callee:
                    self._zero_cost_rows[index] = [
                        (host, 0.0) for host in model.candidates[index]
                    ]
            for a, b, weight in cfg_edges:
                self._neighbors[a].append((b, weight))
                self._neighbors[b].append((a, weight))
        #: (statement node, host) -> local cost, valid while the fields
        #: the statement touches stay put (_place_fields drops exactly
        #: the rows a moved field invalidates).
        self._cost_cache: Dict[Tuple[int, str], float] = {}
        #: field node -> tuple of its access sites' hosts when the field
        #: was last scored; unchanged sites ⇒ unchanged choice, so
        #: _place_fields skips the rescore entirely.
        self._field_site_hosts: Dict[int, Tuple[str, ...]] = {}

    # -- driver ----------------------------------------------------------------

    def run(self) -> Assignment:
        """Alternate statement/field placement from two initial seeds and
        keep the placement the model costs lower.

        The "overlap" seed starts fields near compatible statements; the
        "gravity" seed starts them on the host that constraint-forced
        statements must use (which is what moves Alice's fields to T in
        the no-preference oblivious transfer, Section 6)."""
        model = self.model
        field_count = len(model.fields)
        outcomes: List[List[Optional[str]]] = []
        initial_fields = None
        for seed in ("overlap", "gravity"):
            self.hosts = [None] * len(model.node_keys)
            self._place_fields_initial(seed)
            if self.hosts[:field_count] == initial_fields:
                # Identical starting placement ⇒ the whole (deterministic)
                # pipeline repeats ⇒ same outcome as the first seed.
                break
            initial_fields = self.hosts[:field_count]
            for _ in range(_ROUNDS):
                before = list(self.hosts)
                self._assign_statements()
                self._refine_with_cfg_edges()
                self._place_fields()
                if self.hosts == before:
                    break  # a fixpoint round changes nothing further
            self._refine_with_cfg_edges()
            outcomes.append(self.hosts)
        # min keeps the first of equal costs: the overlap seed wins ties.
        self.hosts = (
            min(outcomes, key=model.cost) if len(outcomes) > 1 else outcomes[0]
        )
        return model.to_assignment(self.hosts)

    def _gravity_host(self) -> Optional[str]:
        """The host that constraint-forced statements gravitate to."""
        model = self.model
        votes: Dict[str, float] = {}
        for stmts, _edges in model.methods:
            for index in stmts:
                hosts = model.candidates[index]
                if len(hosts) == 1:
                    votes[hosts[0]] = votes.get(hosts[0], 0.0) + model.weight[
                        index
                    ]
        if not votes:
            return None
        return max(sorted(votes), key=votes.get)

    # -- field placement ----------------------------------------------------------

    def _place_fields_initial(self, seed: str = "overlap") -> None:
        """Before any statement hosts are known, place each field on the
        candidate most compatible with the statements that access it —
        or, for the "gravity" seed, on the host forced statements use.
        A pinned field has its pin as its only candidate."""
        model = self.model
        candidates = model.candidates
        gravity = self._gravity_host() if seed == "gravity" else None
        for field in model.fields:
            hosts = candidates[field]
            if len(hosts) == 1:
                self.hosts[field] = hosts[0]
                continue
            if gravity in hosts:
                self.hosts[field] = gravity
                continue
            sites = self._field_sites.get(field, [])
            preference = model.preference[field]
            scores = []
            for host in hosts:
                overlap = sum(1 for site in sites if host in candidates[site])
                score = (_PREFERENCE_BASELINE - overlap) * preference[host]
                scores.append((score, host))
            scores.sort()
            self.hosts[field] = scores[0][1]
        self._cost_cache.clear()
        self._field_site_hosts.clear()

    def _place_fields(self) -> None:
        model = self.model
        link = model.link
        weight = model.weight
        hosts = self.hosts
        moved: List[int] = []
        for field in model.fields:
            candidates = model.candidates[field]
            if len(candidates) == 1:
                continue  # forced (or pinned): never moves
            sites = self._field_sites.get(field, [])
            site_hosts = tuple(hosts[site] for site in sites)
            if self._field_site_hosts.get(field) == site_hosts:
                # Same access-site placement ⇒ same scores ⇒ same choice.
                continue
            self._field_site_hosts[field] = site_hosts
            preference = model.preference[field]
            scores = []
            for host in candidates:
                access_cost = 0.0
                for site in sites:
                    access_cost += (
                        _FIELD_ACCESS_MESSAGES
                        * link[hosts[site], host]
                        * weight[site]
                    )
                score = (access_cost + _PREFERENCE_BASELINE) * preference[host]
                scores.append((score, host))
            scores.sort()
            choice = scores[0][1]
            if hosts[field] != choice:
                hosts[field] = choice
                moved.append(field)
        # A moved field only stales the local costs of the statements
        # that touch it; everything else keeps its memo.
        for field in moved:
            for site in self._field_sites.get(field, ()):
                for host in model.candidates[site]:
                    self._cost_cache.pop((site, host), None)

    # -- statement assignment ---------------------------------------------------------

    def _statement_local_cost(self, index: int, host: str) -> float:
        """Remote-field-access cost of running statement ``index`` on
        ``host``.

        Memoized per (statement, host) while the field placement stands —
        ``_place_fields`` clears the memo.  Call statements also depend
        on the callee's (mutable) entry host, so they are never cached.
        """
        model = self.model
        is_call = index in model.callee
        fields = model.fields_of[index]
        if not is_call:
            if not fields:
                return 0.0
            cached = self._cost_cache.get((index, host))
            if cached is not None:
                return cached
        cost = 0.0
        weight = model.weight[index]
        link = model.link
        hosts = self.hosts
        for field in fields:
            cost += _FIELD_ACCESS_MESSAGES * link[host, hosts[field]] * weight
        if is_call:
            entry = model.callee[index]
            entry_host = hosts[entry] if entry is not None else None
            if entry_host is not None:
                # A call costs a transfer there and a transfer back.
                cost += 2 * link[host, entry_host] * weight
        else:
            self._cost_cache[(index, host)] = cost
        return cost

    def _assign_statements(self) -> None:
        for stmts, _edges in self.model.methods:
            if stmts:
                self._assign_chain(stmts)

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
        model = self.model
        link = model.link
        hosts = self.hosts
        neighbors = self._neighbors
        zero_rows = self._zero_cost_rows
        for stmts, _edges in model.methods:
            # Non-call local costs depend only on the (fixed) field
            # placement, so hoist them out of the round loop; call
            # statements are re-costed every round.
            local_costs: Dict[int, List[Tuple[str, float]]] = {}
            for index in stmts:
                if index in zero_rows:
                    local_costs[index] = zero_rows[index]
                elif index not in model.callee:
                    local_costs[index] = [
                        (host, self._statement_local_cost(index, host))
                        for host in model.candidates[index]
                    ]
            # One persistent dirty set: a move marks its neighbors, and a
            # marked statement later in the current pass is re-evaluated
            # this pass (exactly the Gauss-Seidel order the full sweeps
            # had); a marked statement earlier in order waits for the
            # next pass.
            dirty = set(stmts)
            for _ in range(max_rounds):
                changed = False
                for index in stmts:
                    is_call = index in model.callee
                    if index in dirty:
                        dirty.discard(index)
                    elif not is_call:
                        continue
                    if is_call:
                        rows = [
                            (host, self._statement_local_cost(index, host))
                            for host in model.candidates[index]
                        ]
                    else:
                        rows = local_costs[index]
                    best_host = None
                    best_cost = None
                    for host, local in rows:
                        cost = local
                        for other, weight in neighbors[index]:
                            cost += link[host, hosts[other]] * weight
                        if best_cost is None or cost < best_cost:
                            best_cost = cost
                            best_host = host
                    if best_host != hosts[index]:
                        hosts[index] = best_host
                        changed = True
                        for other, _weight in neighbors[index]:
                            if other != index:
                                dirty.add(other)
                if not changed:
                    break

    def _assign_chain(self, chain: range) -> None:
        """Chain dynamic program: cost(i, h) = local(i, h) +
        min_g [cost(i-1, g) + transfer(g, h) · weight(i)]."""
        model = self.model
        costs: List[Dict[str, float]] = []
        back: List[Dict[str, Optional[str]]] = []
        link = model.link
        for position, index in enumerate(chain):
            row: Dict[str, float] = {}
            pointers: Dict[str, Optional[str]] = {}
            weight = model.weight[index]
            for host in model.candidates[index]:
                local = self._statement_local_cost(index, host)
                if position == 0:
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
        for position in range(len(chain) - 1, 0, -1):
            chosen.append(back[position][chosen[-1]])
        chosen.reverse()
        for index, host in zip(chain, chosen):
            self.hosts[index] = host


def assign_hosts(
    checked: CheckedProgram,
    program: ir.IRProgram,
    config: TrustConfiguration,
    candidates: CandidateSets,
) -> Assignment:
    """Pick a host for every field and statement.

    Builds the one :class:`PlacementModel` and solves it exactly by
    min-cut when it reduces to two eligible hosts (see
    :mod:`repro.splitter.mincut`); otherwise the chain-DP heuristic
    solves the same model.  The reduction looks only at candidates,
    unary costs and links, so an instance that keeps three hosts
    declines before any min-cut edge is aggregated.
    """
    model = PlacementModel.build(checked, program, config, candidates)
    assignment = try_exact(model)
    if assignment is None:
        assignment = Optimizer(model).run()
    return assignment
