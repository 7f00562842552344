import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escape3x3 import kernel
from escape3x3.grid import GridGraph, build_corner_grid, full_grid
from escape3x3.model import EscapeContract, contract_for, validate_plan
from escape3x3.oracle import (
    BudgetExhausted,
    SearchBudget,
    check_weakly_2_linked,
    exists_trail_system_euler,
    oracle_solve,
)
from escape3x3.terminals import LemmaId, make_config


def test_weakly_2_linked_full_grid(grid):
    ok, witness = check_weakly_2_linked(grid)
    assert ok and witness is None


def test_weakly_2_linked_without_corner(grid_star):
    ok, witness = check_weakly_2_linked(grid_star)
    assert ok and witness is None


def test_double_deletion_not_weakly_2_linked():
    g = build_corner_grid(frozenset({(2, 2), (3, 3)}))
    ok, witness = check_weakly_2_linked(g)
    assert not ok
    assert witness is not None
    # the two corner-to-corner routes collapse to one: this tuple must fail
    paths, _, _ = kernel.solve_trails(
        g, g.edges, [((1, 3), (3, 1)), ((3, 1), (1, 3))]
    )
    assert paths is None


def test_adjacent_pair_and_boundary_singletons_solve_trivially(grid):
    cfg = make_config([((1, 1), (1, 2))], [(3, 1), (3, 2), (1, 3)])
    plan = oracle_solve(grid, cfg, contract_for(LemmaId.HEAVY5))
    assert plan is not None
    linkage = plan.linkage_map()[0]
    assert len(linkage.vertices) == 2
    assert all(p.is_zero_length() for _, _, p in plan.escapes)


def test_pigeonhole_none(grid):
    contract = EscapeContract(
        min_linked_pairs=0,
        exit_target=frozenset({(3, 1), (3, 2), (3, 3)}),
        max_exits_in_restricted=None,
    )
    cfg = make_config([], [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert oracle_solve(grid, cfg, contract) is None


def test_oracle_budget(grid):
    cfg = make_config(
        [((1, 1), (3, 3)), ((1, 3), (3, 1)), ((2, 2), (1, 2)), ((2, 1), (2, 3))], []
    )
    with pytest.raises(BudgetExhausted):
        oracle_solve(grid, cfg, contract_for(LemmaId.HEAVY78), SearchBudget.limited(5))


def test_oracle_returns_validated_plans(grid):
    contract = contract_for(LemmaId.HEAVY6)
    cfg = make_config([((1, 1), (3, 3)), ((1, 3), (3, 1))], [(2, 2), (2, 3)])
    plan = oracle_solve(grid, cfg, contract)
    assert plan is not None
    assert validate_plan(grid, cfg, plan, contract).ok


def test_oracle_deterministic(grid):
    contract = contract_for(LemmaId.HEAVY6)
    cfg = make_config([((1, 2), (2, 1)), ((2, 2), (1, 1))], [(1, 3), (2, 3)])
    assert oracle_solve(grid, cfg, contract) == oracle_solve(grid, cfg, contract)


def test_oracle_prefers_more_linked_pairs(grid):
    # both pairs are linkable, so the maximal subset must be linked
    cfg = make_config([((1, 1), (1, 2)), ((3, 1), (3, 2))], [(1, 3), (2, 2)])
    plan = oracle_solve(grid, cfg, contract_for(LemmaId.HEAVY6))
    assert len(plan.linkages) == 2


def test_oracle_budget_spent_exactly_stops_search(grid):
    """The first kernel call fails after exactly 215 nodes; a budget of 215
    must stop there rather than let the next call run uncapped (the plan
    costs 319 nodes)."""
    cfg = make_config([((1, 1), (2, 1)), ((1, 2), (2, 2)), ((1, 3), (2, 3))], [(3, 1)])
    contract = contract_for(LemmaId.HEAVY78)
    first, nodes, _ = kernel.solve_trails(
        grid, grid.edges, [*cfg.pairs, ((3, 1), (1, 3))]
    )
    assert first is None and nodes == 215
    with pytest.raises(BudgetExhausted) as info:
        oracle_solve(grid, cfg, contract, SearchBudget.limited(215))
    assert info.value.nodes == 215
    plan = oracle_solve(grid, cfg, contract)
    assert oracle_solve(grid, cfg, contract, SearchBudget.limited(319)) == plan
    with pytest.raises(BudgetExhausted):
        oracle_solve(grid, cfg, contract, SearchBudget.limited(318))


def test_budget_zero_rejected():
    with pytest.raises(ValueError):
        SearchBudget.limited(0)


def test_link_two_pairs_witness(grid):
    paths, _, _ = kernel.solve_trails(
        grid, grid.edges, [((1, 1), (3, 3)), ((1, 3), (3, 1))]
    )
    assert paths is not None
    p1, p2 = paths
    assert not set(p1.edges()) & set(p2.edges())


def test_euler_cross_check_agrees_with_kernel():
    g = build_corner_grid(frozenset({(1, 1), (1, 2), (1, 3)}))  # 2x3 grid
    vertices = g.sorted_vertices()
    for u1, v1, u2, v2 in itertools.product(vertices[:4], repeat=4):
        fast, _, _ = kernel.solve_trails(g, g.edges, [(u1, v1), (u2, v2)])
        slow = exists_trail_system_euler(g, [(u1, v1), (u2, v2)])
        assert (fast is not None) == slow


_FULL = full_grid()
_VERTEX = st.sampled_from(_FULL.sorted_vertices())


@settings(max_examples=150, deadline=None)
@given(
    st.sets(st.sampled_from(_FULL.sorted_edges()), max_size=10),
    st.tuples(_VERTEX, _VERTEX, _VERTEX, _VERTEX),
)
def test_euler_cross_check_agrees_with_kernel_on_free_edge_subsets(free, ends):
    """Reachability pruning under a partial free-edge mask: the kernel on the
    graph with only ``free`` as edges agrees with the subset enumerator, and
    with the full grid searched under the same free edges."""
    u1, v1, u2, v2 = ends
    pairs = [(u1, v1), (u2, v2)]
    g = GridGraph(vertices=_FULL.vertices, edges=frozenset(free))
    fast = kernel.solve_trails(g, g.edges, pairs)
    assert (fast[0] is not None) == exists_trail_system_euler(g, pairs)
    assert kernel.solve_trails(_FULL, free, pairs) == fast


def _euler_plan_exists(g, cfg, contract):
    """Full-plan existence via the subset enumerator: loops the same outer
    structure as the oracle but decides each trail system by edge-subset
    parity instead of the DFS kernel."""
    exits = sorted(contract.exit_target & g.vertices)
    npairs = len(cfg.pairs)
    for size in range(npairs, contract.min_linked_pairs - 1, -1):
        for linked in itertools.combinations(range(npairs), size):
            linked_vertices = {v for i in linked for v in cfg.pairs[i]}
            unlinked = sorted(set(cfg.terminals) - linked_vertices)
            for combo in itertools.permutations(exits, len(unlinked)):
                limit = contract.max_exits_in_restricted
                if limit is not None:
                    if sum(1 for x in combo if x in contract.restricted_zone) > limit:
                        continue
                endpoint_pairs = [cfg.pairs[i] for i in linked] + list(
                    zip(unlinked, combo)
                )
                if exists_trail_system_euler(g, endpoint_pairs):
                    return True
    return False


def test_oracle_none_confirmed_by_euler_enumeration(grid):
    """The oracle's NONE verdicts on the one-pair six-terminal extension
    are confirmed by the independent subset enumerator."""
    contract = contract_for(LemmaId.HEAVY6)
    infeasible = [
        make_config([((1, 1), (3, 1))], [(1, 2), (1, 3), (2, 1), (2, 2)]),
        make_config([((2, 2), (3, 1))], [(1, 1), (1, 2), (1, 3), (2, 1)]),
    ]
    feasible = [
        make_config([((1, 1), (3, 1))], [(1, 2), (1, 3), (2, 1), (3, 2)]),
        make_config([((1, 2), (2, 2))], [(1, 1), (2, 1), (3, 1), (3, 3)]),
    ]
    for cfg in infeasible:
        assert oracle_solve(grid, cfg, contract) is None
        assert not _euler_plan_exists(grid, cfg, contract)
    for cfg in feasible:
        assert oracle_solve(grid, cfg, contract) is not None
        assert _euler_plan_exists(grid, cfg, contract)


def test_weak_linkage_witnesses_validate(grid):
    for u1, v1, u2, v2 in itertools.islice(
        itertools.product(grid.sorted_vertices(), repeat=4), 0, 500, 7
    ):
        paths, _, _ = kernel.solve_trails(grid, grid.edges, [(u1, v1), (u2, v2)])
        assert paths is not None
        assert not set(paths[0].edges()) & set(paths[1].edges())
        assert paths[0].start == u1 and paths[0].end == v1
        assert paths[1].start == u2 and paths[1].end == v2
