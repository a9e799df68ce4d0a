"""The placement cost model and its exact min-cut solver (Section 6).

Three layers are pinned here:

* :class:`PlacementModel` is the one objective both solvers minimise:
  its aggregated ``cost`` equals a term-by-term recount of the Section 6
  terms kept in this file as the differential reference;
* ``solve_two_host`` is exact — verified by brute force over random
  small instances, and differentially against the chain-DP heuristic
  solving the same model over the progen corpus (the cut may never cost
  more);
* the dispatch: progen's A/B/T configuration reduces to a two-host
  instance, a three-host instance declines before any edge is
  aggregated, pruning leaves the model as built (so the heuristic sees
  the unpruned candidates), and the default placement is the cut's.
"""

import itertools
import random

import pytest

from repro.progen import config as progen_config
from repro.progen import generate_program
from repro.splitter import ir, split_source
from repro.splitter.mincut import (
    PlacementModel,
    build_cfg_edges,
    reduce_hosts,
    solve_two_host,
    try_exact,
)
from repro.splitter.optimizer import Optimizer
from repro.workloads import ot

from tests.programs import OT_SOURCE, PINGPONG_SOURCE, config_abt


def _build_model(result, config):
    return PlacementModel.build(
        result.checked, result.program, config, result.candidates
    )


def _reference_cost(result, config, assignment) -> float:
    """The Section 6 objective recounted term by term from the IR and
    the trust configuration: field accesses and calls per statement,
    control-flow transfers per CFG edge, preference terms per field."""
    statements = assignment.statements
    entries = {
        key: next(ir.walk_stmts(method.body), None)
        for key, method in result.program.methods.items()
    }
    cost = 0.0
    for method in result.program.methods.values():
        for stmt in ir.walk_stmts(method.body):
            host = statements[stmt.info.uid]
            weight = 4.0 ** min(stmt.info.loop_depth, 6)
            for key in stmt.info.used_fields | stmt.info.defined_fields:
                cost += 2.0 * config.link_cost(
                    host, assignment.fields[key]
                ) * weight
            if isinstance(stmt, ir.CallStmt):
                entry = entries.get((stmt.cls, stmt.method))
                if entry is not None:
                    cost += 2.0 * config.link_cost(
                        host, statements[entry.info.uid]
                    ) * weight
        for a, b, depth in build_cfg_edges(method.body):
            cost += config.link_cost(
                statements[a], statements[b]
            ) * 4.0 ** min(depth, 6)
    for key, host in assignment.fields.items():
        info = result.checked.fields[key]
        owners = info.label.conf.owners() or info.label.integ.trust
        weight = 1.0
        for owner in owners:
            weight *= config.preference(owner.name, host)
        cost += 1000.0 * weight
    return cost


# -- the one cost model -------------------------------------------------------


def test_model_cost_parity_over_progen_corpus():
    cases = [(generate_program(seed), progen_config) for seed in range(10)]
    cases += [(OT_SOURCE, config_abt), (PINGPONG_SOURCE, config_abt)]
    for source, config_factory in cases:
        config = config_factory()
        result = split_source(source, config)
        model = _build_model(result, config)
        for assignment in (result.assignment, Optimizer(model).run()):
            assert model.cost(
                model.assignment_hosts(assignment)
            ) == pytest.approx(
                _reference_cost(result, config, assignment)
            ), source


# -- differential oracle: exact never costs more ----------------------------


def test_exact_engine_never_costs_more_than_heuristic():
    # Both solvers read the same model, so their costs compare directly.
    for seed in range(25):
        result = split_source(generate_program(seed), progen_config())
        model = _build_model(result, progen_config())
        exact = try_exact(model)
        assert exact is not None, f"seed={seed}: progen must reduce"
        heuristic = Optimizer(model).run()
        cost_e = model.cost(model.assignment_hosts(exact))
        cost_h = model.cost(model.assignment_hosts(heuristic))
        assert cost_e <= cost_h + 1e-6, (
            f"seed={seed}: exact {cost_e} > heuristic {cost_h}"
        )


# -- exactness by brute force ------------------------------------------------


def _random_two_host_model(rng: random.Random, free_nodes: int):
    """A synthetic two-host instance with random weights; a few nodes
    are forced to stress the terminal (fixed-neighbor) capacities."""
    model = PlacementModel()
    hosts = ("A", "B")
    model.link = {
        ("A", "A"): 0.0,
        ("B", "B"): 0.0,
        ("A", "B"): rng.choice([1.0, 2.0]),
        ("B", "A"): rng.choice([1.0, 2.0]),
    }
    # Undirected cost: the model's cut construction assumes symmetry.
    model.link["B", "A"] = model.link["A", "B"]
    total = free_nodes + 2
    for index in range(total):
        model.node_keys.append(("stmt", index))
        if index >= free_nodes:
            host = hosts[index - free_nodes]
            model.candidates.append((host,))
            model.forced[index] = host
            model.unary.append({})
        else:
            model.candidates.append(hosts)
            if rng.random() < 0.4:
                model.unary.append(
                    {h: rng.uniform(0.0, 5.0) for h in hosts}
                )
            else:
                model.unary.append({})
    for a in range(total):
        for b in range(a + 1, total):
            if rng.random() < 0.5:
                if a in model.forced and b in model.forced:
                    continue
                model.edges.append((a, b, rng.uniform(0.5, 4.0)))
    return model


def _brute_force_cost(model) -> float:
    free = [
        i for i in range(len(model.node_keys)) if i not in model.forced
    ]
    base = [model.forced.get(i, "") for i in range(len(model.node_keys))]
    best = None
    for combo in itertools.product(("A", "B"), repeat=len(free)):
        hosts = list(base)
        for node, host in zip(free, combo):
            hosts[node] = host
        cost = model.cost(hosts)
        if best is None or cost < best:
            best = cost
    return best


def test_two_host_cut_is_exact_by_brute_force():
    rng = random.Random(0xC07)
    for trial in range(40):
        model = _random_two_host_model(rng, free_nodes=8)
        hosts = solve_two_host(model, model.candidates)
        assert model.cost(hosts) == pytest.approx(
            _brute_force_cost(model)
        ), f"trial={trial}"


# -- dispatch plumbing -------------------------------------------------------


def test_progen_config_reduces_to_two_hosts():
    config = progen_config()
    result = split_source(generate_program(0), config)
    union, _ = reduce_hosts(_build_model(result, config))
    assert len(union) <= 2, (
        "A/B/T progen instances must reduce (A or B is dominated), or the "
        f"benchmark sweep loses the exact path; got {union}"
    )


def test_three_host_instance_declines_before_building_edges():
    # OT keeps A, B and T eligible after pruning, so the exact solver
    # declines; pruning reads only the node tables, so it declines
    # before aggregating a single edge.
    config = ot.config()
    result = split_source(ot.source(), config)
    model = _build_model(result, config)
    assert try_exact(model) is None
    assert model.edges == [] and model.constant == 0.0
    # A two-host instance aggregates its edges before the cut.
    progen = split_source(generate_program(0), progen_config())
    model = _build_model(progen, progen_config())
    assert try_exact(model) is not None
    assert model.edges


def test_node_tables_reduce_like_the_full_model():
    # Pruning leaves the model as built, so the heuristic that solves
    # a declined instance sees the unpruned Section 4 candidates, and
    # aggregating the edges does not change what pruning returns.
    for source, config in [
        (ot.source(), ot.config()),
        (generate_program(0), progen_config()),
    ]:
        result = split_source(source, config)
        model = _build_model(result, config)
        built = (list(model.candidates), dict(model.forced))
        bare = reduce_hosts(model)
        assert (model.candidates, model.forced) == built
        model.add_edges()
        assert reduce_hosts(model) == bare
        assert (model.candidates, model.forced) == built
    # Progen prunes a host for the cut that stays a model candidate.
    union, pruned = bare
    (dropped,) = {"A", "B", "T"} - set(union)
    assert any(dropped in names for names in model.candidates)
    assert not any(dropped in names for names in pruned)


def test_heuristic_over_assign_hosts_model_never_beats_the_cut():
    # The bare chain-DP heuristic runs over the same PlacementModel
    # that ``assign_hosts`` builds.  On this two-host instance the
    # default placement is the exact cut's, and the heuristic's
    # placement never costs less than the cut.
    source = generate_program(3)
    result = split_source(source, progen_config())
    model = _build_model(result, progen_config())
    exact = try_exact(_build_model(result, progen_config()))
    assert result.assignment.fields == exact.fields
    assert result.assignment.statements == exact.statements
    heuristic = Optimizer(model).run()
    assert heuristic.statements.keys() == exact.statements.keys()
    assert model.cost(model.assignment_hosts(exact)) <= model.cost(
        model.assignment_hosts(heuristic)
    ) + 1e-6
