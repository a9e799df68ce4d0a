"""The Section 6 placement cost model, and its exact min-cut solver.

The splitter minimises one objective: remote control transfers and
field accesses, weighted by loop depth and biased by per-principal host
preferences.  :class:`PlacementModel` is that objective, built once per
split by :func:`repro.splitter.optimizer.assign_hosts`.  Every
statement and field is a node; every control-flow edge, field access
and call is a weighted edge that costs its link weight when its
endpoints sit on different hosts; field preferences are unary (node)
costs.  Two solvers read the one model: the exact cut below, and the
chain-DP heuristic of :mod:`repro.splitter.optimizer`, which imports
from here (never the other way).

For two hosts the placement problem is exactly Stone's classic
program-assignment problem, a minimum s-t cut, solvable exactly in
polynomial time — no sweeps, no seeds, no dynamic program.
``reduce_hosts`` first prunes *dominated* hosts: a host no node is
forced to, that every node could swap for an everywhere-no-worse
alternative, can be removed without changing the optimal cost (mapping
every node off the pruned host onto the alternative never increases any
edge or unary term).  The common A/B/T progen configuration reduces to
an exact two-host instance this way.

Pruning reads only the node tables and returns the pruned candidates
without touching the model, so ``try_exact`` declines a three-host
instance before it aggregates any edge, and the heuristic then sees the
unpruned Section 4 candidates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..lang.typecheck import CheckedProgram
from ..trust import TrustConfiguration
from . import ir
from .selection import CandidateSets, SplitError

#: Baseline added to field placement scores so that multiplicative
#: preferences can override a zero communication cost (the paper lets an
#: explicit preference win over the optimizer's default choice).
_PREFERENCE_BASELINE = 1000.0
#: Cost multiplier per loop nesting level.
_LOOP_WEIGHT = 4.0
#: Messages per remote field access (request + reply).
_FIELD_ACCESS_MESSAGES = 2.0

#: Residual capacities at or below this count as saturated, so float
#: noise never opens a spurious augmenting path.
_EPSILON = 1e-9


def _loop_weight(depth: int) -> float:
    return _LOOP_WEIGHT ** min(depth, 6)


class Assignment:
    """The chosen host for every field and statement."""

    def __init__(self) -> None:
        self.fields: Dict[Tuple[str, str], str] = {}
        self.statements: Dict[int, str] = {}

    def field_host(self, cls: str, name: str) -> str:
        return self.fields[(cls, name)]

    def statement_host(self, stmt: ir.IRStmt) -> str:
        return self.statements[stmt.info.uid]


def _exit_stmts(stmt: ir.IRStmt):
    """The statements that perform a structured statement's outgoing
    fall-through transition."""
    if isinstance(stmt, ir.IfStmt):
        exits = []
        for branch in (stmt.then_body, stmt.else_body):
            if branch and not _ends_in_return(branch):
                exits.extend(_exit_stmts(branch[-1]))
            elif not branch:
                exits.append(stmt)
        return exits or [stmt]
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
    """Item-level control-flow edges (uid pairs with loop depths) —
    including loop-back edges the linear chain DP cannot see."""
    edges = []
    _seq_edges(body, depth, edges)
    return edges


def _seq_edges(stmts, depth: int, edges: list) -> None:
    """Append the edges of the statement sequence ``stmts`` to ``edges``."""
    for index, stmt in enumerate(stmts):
        if isinstance(stmt, ir.IfStmt):
            inner = depth
            for branch in (stmt.then_body, stmt.else_body):
                if branch:
                    edges.append((stmt.info.uid, branch[0].info.uid, inner))
                    _seq_edges(branch, inner, edges)
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
                _seq_edges(stmt.body, inner, edges)
                for exit_stmt in _exit_stmts(stmt.body[-1]):
                    edges.append((exit_stmt.info.uid, stmt.info.uid, inner))
            following = stmts[index + 1] if index + 1 < len(stmts) else None
            if following is not None:
                edges.append((stmt.info.uid, following.info.uid, depth))
        else:
            following = stmts[index + 1] if index + 1 < len(stmts) else None
            if following is not None:
                edges.append((stmt.info.uid, following.info.uid, depth))


class PlacementModel:
    """The placement objective as nodes, edges, and unary costs.

    Node indices cover every field (first, ``fields``), then every
    statement, each method's statements a contiguous run in walk order.
    ``candidates`` holds each node's Section 4 candidate host names (a
    pinned field has only its pin); ``forced`` maps the nodes with
    exactly one.  Edge weights are *link multipliers*: the realised cost
    of edge ``(a, b, w)`` is ``w * link(host_a, host_b)``.
    """

    def __init__(self) -> None:
        self.link: Dict[Tuple[str, str], float] = {}
        #: node index -> ("stmt", uid) | ("field", (cls, name))
        self.node_keys: List[Tuple[str, object]] = []
        #: node index -> candidate host names (singletons are forced)
        self.candidates: List[Tuple[str, ...]] = []
        #: node index -> host, for single-candidate / pinned nodes
        self.forced: Dict[int, str] = {}
        #: node index -> {host: preference weight} (fields; {} otherwise)
        self.preference: List[Dict[str, float]] = []
        #: node index -> {host: unary cost}: _PREFERENCE_BASELINE times
        #: the preference weight for fields, {} for statements
        self.unary: List[Dict[str, float]] = []
        #: the field nodes' indices
        self.fields = range(0)
        #: statement node -> field nodes it reads or writes
        self.fields_of: Dict[int, Tuple[int, ...]] = {}
        #: statement node -> loop weight
        self.weight: Dict[int, float] = {}
        #: call statement node -> the callee's entry node (None when the
        #: callee has no statements)
        self.callee: Dict[int, Optional[int]] = {}
        #: per method: its statement nodes, and its control-flow edges
        #: as (node, node, loop weight)
        self.methods: List[Tuple[range, List[Tuple[int, int, float]]]] = []
        #: aggregated undirected edges (a, b, weight), a < b, built by
        #: :meth:`add_edges`
        self.edges: List[Tuple[int, int, float]] = []
        #: cost contributed by edges between two forced nodes
        self.constant: float = 0.0
        self._edges_built = False

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        checked: CheckedProgram,
        program: ir.IRProgram,
        config: TrustConfiguration,
        candidates: CandidateSets,
    ) -> "PlacementModel":
        """Links, node tables, statement tables and control-flow edges.

        Raises :class:`SplitError` for a field pinned off its Section 4
        candidates or a statement with none."""
        model = cls()
        names = config.host_names
        model.link = {
            (a, b): config.link_cost(a, b) for a in names for b in names
        }
        node_keys = model.node_keys
        node_candidates = model.candidates
        forced = model.forced
        field_index: Dict[Tuple[str, str], int] = {}

        def add_node(key, hosts, preference, unary) -> int:
            index = len(node_keys)
            node_keys.append(key)
            node_candidates.append(hosts)
            model.preference.append(preference)
            model.unary.append(unary)
            if len(hosts) == 1:
                forced[index] = hosts[0]
            return index

        # Fields first: unary preference terms, pins force placement.
        for fkey, hosts in candidates.fields.items():
            pin = config.field_pin(*fkey)
            host_names = tuple(h.name for h in hosts)
            if pin is not None:
                if pin not in host_names:
                    raise SplitError(
                        f"field {fkey[0]}.{fkey[1]} is pinned to {pin}, but "
                        f"that host does not satisfy its Section 4 "
                        f"constraints"
                    )
                host_names = (pin,)
            info = checked.fields[fkey]
            owners = [p.name for p in info.label.conf.owners()]
            if not owners:
                owners = [p.name for p in info.label.integ.trust]
            preference = {}
            for host in host_names:
                weight = 1.0
                for owner in owners:
                    weight *= config.preference(owner, host)
                preference[host] = weight
            field_index[fkey] = add_node(
                ("field", fkey),
                host_names,
                preference,
                {
                    host: _PREFERENCE_BASELINE * weight
                    for host, weight in preference.items()
                },
            )
        model.fields = range(len(node_keys))

        # Statements: each method's take a contiguous run of indices.
        stmt_candidates = candidates.statements
        empty: Dict[str, float] = {}
        # Candidate tuples are shared (the eligibility cache hands out
        # one per distinct label pair), so their name tuples memoize by
        # identity.
        names_memo: Dict[int, Tuple[str, ...]] = {}
        entry_of: Dict[Tuple[str, str], int] = {}
        calls: List[Tuple[int, Tuple[str, str]]] = []
        for mkey, method in program.methods.items():
            first = len(node_keys)
            stmt_index: Dict[int, int] = {}
            for stmt in ir.walk_stmts(method.body):
                info = stmt.info
                descriptors = stmt_candidates[info.uid]
                hosts = names_memo.get(id(descriptors))
                if hosts is None:
                    hosts = names_memo[id(descriptors)] = tuple(
                        h.name for h in descriptors
                    )
                if not hosts:
                    raise SplitError(
                        f"statement at {info.pos} has no candidate hosts"
                    )
                index = add_node(("stmt", info.uid), hosts, empty, empty)
                stmt_index[info.uid] = index
                used, defined = info.used_fields, info.defined_fields
                model.fields_of[index] = tuple(
                    field_index[fkey]
                    for fkey in (used | defined if defined else used)
                )
                model.weight[index] = _loop_weight(info.loop_depth)
                if isinstance(stmt, ir.CallStmt):
                    calls.append((index, (stmt.cls, stmt.method)))
            if len(node_keys) > first:
                entry_of[mkey] = first
            model.methods.append((
                range(first, len(node_keys)),
                [
                    (stmt_index[a], stmt_index[b], _loop_weight(depth))
                    for a, b, depth in build_cfg_edges(method.body)
                ],
            ))
        for index, callee_key in calls:
            model.callee[index] = entry_of.get(callee_key)
        return model

    def add_edges(self) -> None:
        """Aggregate the field-access, control-flow and call edges (once).
        An edge between two forced nodes adds to ``constant``; the rest
        go to ``edges`` in first-seen order."""
        if self._edges_built:
            return
        self._edges_built = True
        raw_edges: Dict[Tuple[int, int], float] = {}

        def add_edge(a: int, b: int, weight: float) -> None:
            if a == b:
                return  # link(h, h) == 0 — a self edge never costs
            key = (a, b) if a < b else (b, a)
            raw_edges[key] = raw_edges.get(key, 0.0) + weight

        for stmts, cfg_edges in self.methods:
            for index in stmts:
                access = _FIELD_ACCESS_MESSAGES * self.weight[index]
                for field in self.fields_of[index]:
                    add_edge(index, field, access)
            for a, b, weight in cfg_edges:
                add_edge(a, b, weight)
        # A call costs a transfer to the callee's entry and one back.
        for index, entry in self.callee.items():
            if entry is not None:
                add_edge(index, entry, 2.0 * self.weight[index])

        forced = self.forced
        for (a, b), weight in raw_edges.items():
            if a in forced and b in forced:
                self.constant += weight * self.link[forced[a], forced[b]]
            else:
                self.edges.append((a, b, weight))

    # -- evaluation ---------------------------------------------------------

    def cost(self, hosts: Sequence[str]) -> float:
        """Total cost of a complete placement (``hosts[i]`` per node):
        pairwise link costs plus field preference unaries plus the
        forced-forced constant."""
        self.add_edges()
        link = self.link
        total = self.constant
        for a, b, weight in self.edges:
            total += weight * link[hosts[a], hosts[b]]
        for index, unary in enumerate(self.unary):
            if unary:
                total += unary[hosts[index]]
        return total

    def assignment_hosts(self, assignment: Assignment) -> List[str]:
        """Flatten an :class:`Assignment` into the model's node order
        (for :meth:`cost`)."""
        hosts: List[str] = []
        for kind, key in self.node_keys:
            if kind == "stmt":
                hosts.append(assignment.statements[key])
            else:
                hosts.append(assignment.fields[key])
        return hosts

    def to_assignment(self, hosts: Sequence[str]) -> Assignment:
        assignment = Assignment()
        for index, (kind, key) in enumerate(self.node_keys):
            if kind == "stmt":
                assignment.statements[key] = hosts[index]
            else:
                assignment.fields[key] = hosts[index]
        return assignment


# -- host domination pruning -----------------------------------------------


def reduce_hosts(
    model: PlacementModel,
) -> Tuple[List[str], List[Tuple[str, ...]]]:
    """Prune dominated hosts from the free nodes' candidate sets.

    A host ``h`` may be removed when (1) no node is forced to ``h``,
    (2) some host ``h'`` is a candidate wherever ``h`` is, with unary
    cost never worse, and (3) ``h'``'s links are never more expensive
    toward any other relevant host.  Then any placement using ``h`` maps
    to one on ``h'`` at no greater cost (``link(h', h') = link(h, h) =
    0`` covers edges between two moved nodes), so pruning preserves the
    optimal cost.  Prunes until no host is dominated or only two remain,
    and returns the free nodes' remaining candidate-host union with
    every node's pruned candidates; the model is left as built.
    """
    forced_hosts = set(model.forced.values())
    free = [i for i in range(len(model.node_keys)) if i not in model.forced]
    cands: Dict[int, set] = {i: set(model.candidates[i]) for i in free}
    union = sorted({h for s in cands.values() for h in s})
    relevant = sorted(set(union) | forced_hosts)
    link = model.link
    changed = True
    while changed and len(union) > 2:
        changed = False
        for host in list(union):
            if host in forced_hosts:
                continue
            users = [i for i in free if host in cands[i]]
            for alt in union:
                if alt == host:
                    continue
                if not all(alt in cands[i] for i in users):
                    continue
                if not all(
                    model.unary[i].get(alt, 0.0)
                    <= model.unary[i].get(host, 0.0)
                    for i in users
                ):
                    continue
                if not all(
                    link[alt, other] <= link[host, other]
                    for other in relevant
                    if other != host and other != alt
                ):
                    continue
                for i in users:
                    cands[i].discard(host)
                union = sorted({h for s in cands.values() for h in s})
                changed = True
                break
            if changed:
                break
    pruned = list(model.candidates)
    for i in free:
        pruned[i] = tuple(h for h in pruned[i] if h in cands[i])
    return union, pruned


# -- max-flow (Dinic) -------------------------------------------------------


class _Dinic:
    """Deterministic Dinic max-flow on float capacities."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.to: List[int] = []
        self.cap: List[float] = []
        self.adj: List[List[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap_uv: float, cap_vu: float) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap_uv)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(cap_vu)

    def max_flow(self, source: int, sink: int) -> float:
        flow = 0.0
        while True:
            level = [-1] * self.n
            level[source] = 0
            queue = [source]
            for u in queue:
                for edge in self.adj[u]:
                    v = self.to[edge]
                    if level[v] < 0 and self.cap[edge] > _EPSILON:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[sink] < 0:
                return flow
            iters = [0] * self.n
            while True:
                pushed = self._augment(
                    source, float("inf"), sink, level, iters
                )
                if pushed <= _EPSILON:
                    break
                flow += pushed

    def _augment(
        self,
        u: int,
        pushed: float,
        sink: int,
        level: List[int],
        iters: List[int],
    ) -> float:
        """Push flow along one level-graph path from ``u`` to ``sink``
        (the blocking-flow DFS); returns the amount pushed."""
        if u == sink:
            return pushed
        while iters[u] < len(self.adj[u]):
            edge = self.adj[u][iters[u]]
            v = self.to[edge]
            if self.cap[edge] > _EPSILON and level[v] == level[u] + 1:
                found = self._augment(
                    v, min(pushed, self.cap[edge]), sink, level, iters
                )
                if found > _EPSILON:
                    self.cap[edge] -= found
                    self.cap[edge ^ 1] += found
                    return found
            iters[u] += 1
        return 0.0

    def source_side(self, source: int) -> List[bool]:
        """Nodes reachable from the source in the residual graph — the
        canonical (minimal-source-side) minimum cut, deterministic."""
        seen = [False] * self.n
        seen[source] = True
        queue = [source]
        for u in queue:
            for edge in self.adj[u]:
                v = self.to[edge]
                if not seen[v] and self.cap[edge] > _EPSILON:
                    seen[v] = True
                    queue.append(v)
        return seen


# -- solvers ---------------------------------------------------------------


def _cut_between(
    model: PlacementModel,
    host_x: str,
    host_y: str,
    movable: List[int],
    forced: Dict[int, str],
) -> Dict[int, str]:
    """Exact min-cut placement of ``movable`` nodes onto ``host_x`` /
    ``host_y``, with every other node at its ``forced`` host."""
    link = model.link
    index_in_cut = {node: pos for pos, node in enumerate(movable)}
    n = len(movable)
    source, sink = n, n + 1
    dinic = _Dinic(n + 2)
    # Terminal capacities: cost of siding with Y (s->n) or X (n->t).
    to_source = [0.0] * n
    to_sink = [0.0] * n
    for pos, node in enumerate(movable):
        unary = model.unary[node]
        if unary:
            to_source[pos] += unary.get(host_y, 0.0)
            to_sink[pos] += unary.get(host_x, 0.0)
    for a, b, weight in model.edges:
        a_pos = index_in_cut.get(a)
        b_pos = index_in_cut.get(b)
        if a_pos is not None and b_pos is not None:
            cut_cost = weight * link[host_x, host_y]
            if cut_cost > 0.0:
                dinic.add_edge(a_pos, b_pos, cut_cost, cut_cost)
        elif a_pos is not None or b_pos is not None:
            pos = a_pos if a_pos is not None else b_pos
            other = forced[b if a_pos is not None else a]
            to_source[pos] += weight * link[host_y, other]
            to_sink[pos] += weight * link[host_x, other]
    for pos in range(n):
        if to_source[pos] > 0.0 or to_sink[pos] > 0.0:
            dinic.add_edge(source, pos, to_source[pos], 0.0)
            dinic.add_edge(pos, sink, to_sink[pos], 0.0)
    dinic.max_flow(source, sink)
    side = dinic.source_side(source)
    return {
        node: host_x if side[pos] else host_y
        for pos, node in enumerate(movable)
    }


def solve_two_host(
    model: PlacementModel, candidates: Sequence[Tuple[str, ...]]
) -> List[str]:
    """Exact solution when every node with more than one of its
    (pruned) ``candidates`` chooses between the same two hosts."""
    forced: Dict[int, str] = {}
    movable: List[int] = []
    hosts: List[str] = []
    for index, names in enumerate(candidates):
        if len(names) == 1:
            forced[index] = names[0]
            hosts.append(names[0])
        else:
            movable.append(index)
            hosts.append("")
    if movable:
        host_x, host_y = sorted(candidates[movable[0]])
        placed = _cut_between(model, host_x, host_y, movable, forced)
        for node, host in placed.items():
            hosts[node] = host
    return hosts


def try_exact(model: PlacementModel) -> Optional[Assignment]:
    """The exact solver, when it applies.

    Returns an :class:`Assignment` when the instance reduces to at most
    two eligible hosts (after domination pruning), or ``None`` — in
    which case the caller falls back to the heuristic.  Pruning reads
    only the node tables, so a declined instance aggregates no edge."""
    union, candidates = reduce_hosts(model)
    if len(union) > 2:
        return None
    model.add_edges()
    return model.to_assignment(solve_two_host(model, candidates))
