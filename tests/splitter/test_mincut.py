"""The exact min-cut placement engine (Section 6, exact path).

Three layers are pinned here:

* the :class:`PlacementModel` objective is *the same function* the
  heuristic optimizer minimises (term-for-term parity with
  ``Optimizer._total_cost``), so the two engines compete on one cost;
* ``solve_two_host`` is exact — verified by brute force over random
  small instances, and differentially against the heuristic over the
  progen corpus (the cut may never cost more);
* the dispatch plumbing: progen's A/B/T configuration reduces to a
  two-host instance, ``engine="heuristic"`` is the bare chain-DP
  optimizer bit-for-bit, the default is ``auto``, and engine names
  other than ``auto`` / ``heuristic`` are rejected.
"""

import itertools
import random

import pytest

from repro.progen import config as progen_config
from repro.progen import generate_program
from repro.splitter import assign_hosts, ir, split_source
from repro.splitter.cache import resolve_engine
from repro.splitter import optimizer
from repro.splitter.mincut import (
    PlacementModel,
    reduce_hosts,
    solve_two_host,
    try_exact,
)
from repro.splitter.optimizer import Optimizer
from repro.workloads import ot

from tests.programs import (
    OT_SOURCE,
    PINGPONG_SOURCE,
    SIMPLE_SOURCE,
    config_abt,
)


def _build_model(result, config):
    return PlacementModel.build(
        result.checked, result.program, config, result.candidates
    )


def _stmt_hosts_in_order(result):
    """Statement hosts keyed by (method, walk position) — uid values
    differ between splitter runs, so compare by structural position."""
    return {
        mkey: [
            result.assignment.statements[stmt.info.uid]
            for stmt in ir.walk_stmts(method.body)
        ]
        for mkey, method in result.program.methods.items()
    }


# -- cost-model parity -------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [OT_SOURCE, PINGPONG_SOURCE, SIMPLE_SOURCE],
    ids=["ot", "pingpong", "simple"],
)
def test_model_cost_matches_optimizer_total_cost(source):
    config = config_abt()
    result = split_source(source, config, engine="heuristic")
    model = _build_model(result, config)
    optimizer = Optimizer(
        result.checked, result.program, config, result.candidates
    )
    optimizer.assignment = result.assignment
    assert model.cost(
        model.assignment_hosts(result.assignment)
    ) == pytest.approx(optimizer._total_cost())


def test_model_cost_parity_over_progen_corpus():
    for seed in range(10):
        config = progen_config()
        result = split_source(
            generate_program(seed), config, engine="heuristic"
        )
        model = _build_model(result, config)
        optimizer = Optimizer(
            result.checked, result.program, config, result.candidates
        )
        optimizer.assignment = result.assignment
        assert model.cost(
            model.assignment_hosts(result.assignment)
        ) == pytest.approx(optimizer._total_cost()), f"seed={seed}"


# -- differential oracle: exact never costs more ----------------------------


def test_exact_engine_never_costs_more_than_heuristic():
    for seed in range(25):
        source = generate_program(seed)
        heuristic = split_source(
            source, progen_config(), engine="heuristic"
        )
        exact = split_source(source, progen_config(), engine="auto")
        # Each run's uids are fresh, so each cost is evaluated against
        # the model built from that run's own artifacts; the two models
        # describe the same program, so the costs are comparable.
        model_h = _build_model(heuristic, progen_config())
        cost_h = model_h.cost(
            model_h.assignment_hosts(heuristic.assignment)
        )
        model_e = _build_model(exact, progen_config())
        cost_e = model_e.cost(model_e.assignment_hosts(exact.assignment))
        assert cost_e <= cost_h + 1e-6, (
            f"seed={seed}: exact {cost_e} > heuristic {cost_h}"
        )


# -- exactness by brute force ------------------------------------------------


def _random_two_host_model(rng: random.Random, free_nodes: int):
    """A synthetic two-host instance with random weights; a few nodes
    are forced to stress the terminal (fixed-neighbor) capacities."""
    model = PlacementModel(progen_config())
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
        hosts = solve_two_host(model, ["A", "B"])
        assert model.cost(hosts) == pytest.approx(
            _brute_force_cost(model)
        ), f"trial={trial}"


# -- dispatch plumbing -------------------------------------------------------


def test_progen_config_reduces_to_two_hosts():
    config = progen_config()
    result = split_source(
        generate_program(0), config, engine="heuristic"
    )
    model = _build_model(result, config)
    union = reduce_hosts(model)
    assert len(union) <= 2, (
        "A/B/T progen instances must reduce (B is dominated), or the "
        f"benchmark sweep loses the exact path; got {union}"
    )


def test_three_host_instance_declines_before_building_edges(monkeypatch):
    # OT keeps A, B and T eligible after pruning, so the exact engine
    # declines; pruning reads only the node tables, so it must decline
    # without walking a single control-flow edge.
    config = ot.config()
    result = split_source(ot.source(), config, engine="heuristic")
    walked = []

    def recording_cfg_edges(body, depth=0):
        walked.append(body)
        return []

    monkeypatch.setattr(optimizer, "build_cfg_edges", recording_cfg_edges)
    assert try_exact(
        result.checked, result.program, config, result.candidates
    ) is None
    assert walked == []
    # A two-host instance still builds its edges before the cut.
    progen = split_source(generate_program(0), progen_config())
    assert try_exact(
        progen.checked, progen.program, progen_config(), progen.candidates
    ) is not None
    assert walked


def test_node_tables_reduce_like_the_full_model():
    # Declining early must not change what pruning sees: the node
    # tables alone reduce to the same hosts, candidates and forced
    # nodes as the model with its edges.
    for source, config in [
        (ot.source(), ot.config()),
        (generate_program(0), progen_config()),
    ]:
        result = split_source(source, config, engine="heuristic")
        args = (result.checked, result.program, config, result.candidates)
        full, bare = PlacementModel.build(*args), PlacementModel.nodes(*args)
        assert bare.edges == [] and bare.constant == 0.0
        assert reduce_hosts(bare) == reduce_hosts(full)
        assert bare.candidates == full.candidates
        assert bare.forced == full.forced


def test_repro_mincut_env_escape_hatch():
    # The escape hatch is ``engine="heuristic"``: it must be the bare
    # chain-DP optimizer, while the default resolves to ``auto``.
    source = generate_program(3)
    heuristic = split_source(source, progen_config(), engine="heuristic")
    bare = Optimizer(
        heuristic.checked, heuristic.program, progen_config(),
        heuristic.candidates,
    ).run()
    assert bare.fields == heuristic.assignment.fields
    assert bare.statements == heuristic.assignment.statements
    default = split_source(source, progen_config())
    exact = split_source(source, progen_config(), engine="auto")
    assert default.assignment.fields == exact.assignment.fields
    assert _stmt_hosts_in_order(default) == _stmt_hosts_in_order(exact)
    model_e = _build_model(exact, progen_config())
    model_h = _build_model(heuristic, progen_config())
    assert model_e.cost(
        model_e.assignment_hosts(exact.assignment)
    ) <= model_h.cost(
        model_h.assignment_hosts(heuristic.assignment)
    ) + 1e-6


@pytest.mark.parametrize("name", ["mincut", "0", "off", "", "exact"])
def test_unknown_engine_names_are_rejected(name):
    # One parser for engine names: a caller naming any other engine
    # (such as the former ``mincut``) fails loudly instead of silently
    # getting ``auto``.
    assert resolve_engine(None) == "auto"
    assert resolve_engine("heuristic") == "heuristic"
    with pytest.raises(ValueError, match="unknown placement engine"):
        resolve_engine(name)
    with pytest.raises(ValueError, match="unknown placement engine"):
        split_source(SIMPLE_SOURCE, config_abt(), engine=name)
    result = split_source(SIMPLE_SOURCE, config_abt())
    with pytest.raises(ValueError, match="unknown placement engine"):
        assign_hosts(
            result.checked, result.program, config_abt(),
            result.candidates, name,
        )
