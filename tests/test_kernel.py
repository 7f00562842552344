"""Kernel behavior."""

import pytest

from escape3x3 import _kernel_py, kernel
from escape3x3.grid import GridGraph, build_corner_grid, edge, full_grid, grid_without_corner


def test_backend_reported():
    assert kernel.BACKEND == "python"


def _row_path_graph(n):
    vertices = [(1, c) for c in range(1, n + 1)]
    return GridGraph(
        vertices=frozenset(vertices),
        edges=frozenset(edge(a, b) for a, b in zip(vertices, vertices[1:])),
    )


def test_solves_a_33_vertex_path():
    # vertex and edge masks are Python ints, so no width limit applies
    g = _row_path_graph(33)
    paths, _, _ = kernel.solve_trails(g, g.edges, [((1, 1), (1, 33))])
    assert paths is not None and len(paths[0].vertices) == 33


def test_zero_length_pair(grid):
    for pairs in ([((1, 1), (1, 1))], [((1, 1), (1, 1)), ((3, 3), (3, 3))]):
        paths, _, _ = kernel.solve_trails(grid, grid.edges, pairs)
        assert paths is not None
        assert all(p.is_zero_length() for p in paths)


def test_no_pairs(grid):
    paths, nodes, exhausted = kernel.solve_trails(grid, grid.edges, [])
    assert paths == [] and nodes == 0 and not exhausted


def test_infeasible_returns_none():
    g = build_corner_grid(frozenset({(2, 2), (3, 3)}))
    # the surviving graph is a path; two edge-disjoint routes cannot exist
    paths, _, exhausted = kernel.solve_trails(
        g, g.edges, [((1, 3), (3, 1)), ((3, 1), (1, 3))]
    )
    assert paths is None and not exhausted


def test_budget_exhaustion(grid):
    paths, nodes, exhausted = kernel.solve_trails(
        grid, grid.edges, [((1, 1), (3, 3)), ((3, 3), (1, 1)), ((1, 3), (3, 1))], 3
    )
    assert paths is None and exhausted and nodes <= 3


def test_determinism(grid):
    pairs = [((1, 1), (3, 3)), ((1, 3), (3, 1))]
    first = kernel.solve_trails(grid, grid.edges, pairs)
    second = kernel.solve_trails(grid, grid.edges, pairs)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_trails_are_edge_disjoint(grid):
    for pairs in (
        [((1, 1), (1, 3)), ((3, 1), (3, 3)), ((2, 1), (2, 3))],
        # corner to corner, both diagonals
        [((1, 1), (3, 3)), ((1, 3), (3, 1))],
    ):
        paths, _, _ = kernel.solve_trails(grid, grid.edges, pairs)
        assert paths is not None
        assert [(p.start, p.end) for p in paths] == pairs
        seen = set()
        for p in paths:
            for e in p.edges():
                assert e not in seen
                seen.add(e)


def _bfs_reach(adj, m, src):
    seen = {src}
    frontier = [src]
    while frontier:
        u = frontier.pop()
        for w, eid in adj[u]:
            if (m >> eid) & 1 and w not in seen:
                seen.add(w)
                frontier.append(w)
    return sum(1 << v for v in seen)


@pytest.mark.parametrize("g", [full_grid(), grid_without_corner()], ids=["full", "no-corner"])
def test_reach_table_matches_bfs(g):
    desc = kernel.desc_for(g)
    table = _kernel_py.reach_table(desc.adj)
    for m in range(1 << len(desc.edges)):
        if m not in table:
            _kernel_py.fill_row(desc.adj, table, m)
        assert table[m] == tuple(_bfs_reach(desc.adj, m, v) for v in range(len(desc.adj)))


def test_reach_table_filled_lazily():
    g = build_corner_grid(frozenset({(1, 1), (3, 3)}))
    desc = kernel.desc_for(g)
    table = _kernel_py.reach_table(desc.adj)
    assert not table
    paths, _, _ = kernel.solve_trails(g, g.edges, [((1, 2), (3, 2))])
    assert paths is not None
    assert 0 < len(table) < 1 << len(desc.edges)
