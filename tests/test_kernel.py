"""Kernel behavior, plus cross-checks between the two backends."""

import importlib.util
import itertools
import pathlib
import shlex
import shutil
import subprocess
import sysconfig
from importlib.machinery import ExtensionFileLoader

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escape3x3 import _kernel_py, kernel
from escape3x3.grid import GridGraph, build_corner_grid, edge, full_grid, grid_without_corner



@pytest.fixture(scope="session")
def kernel_cy(tmp_path_factory):
    """The compiled twin: the built extension if it imports, else the
    committed ``_kernel_cy.c`` compiled with -O2 (as setup.py does) into a
    temp dir and loaded from there, leaving the package itself untouched."""
    try:
        from escape3x3 import _kernel_cy

        return _kernel_cy
    except ImportError:
        pass
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]}) to build the compiled kernel")
    source = pathlib.Path(_kernel_py.__file__).with_name("_kernel_cy.c")
    target = tmp_path_factory.mktemp("kernel_cy") / (
        "_kernel_cy" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    subprocess.run(
        cc
        + shlex.split(sysconfig.get_config_var("CCSHARED") or "")
        + ["-shared", "-O2", "-I", sysconfig.get_paths()["include"]]
        + [str(source), "-o", str(target)],
        check=True,
    )
    loader = ExtensionFileLoader("escape3x3._kernel_cy", str(target))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(loader.name, target, loader=loader)
    )
    loader.exec_module(module)
    return module


def _desc(g):
    return kernel.desc_for(g)


def test_backend_reported():
    assert kernel.BACKEND in ("python", "cython")


def _row_path_graph(n):
    vertices = [(1, c) for c in range(1, n + 1)]
    return GridGraph(
        vertices=frozenset(vertices),
        edges=frozenset(edge(a, b) for a, b in zip(vertices, vertices[1:])),
    )


def test_desc_for_rejects_more_than_32_vertices():
    # 32 edges would fit the edge mask; 33 vertices overflow the compiled reach
    with pytest.raises(ValueError, match="32 vertices"):
        kernel.desc_for(_row_path_graph(33))
    g = _row_path_graph(32)
    paths, _, _ = kernel.solve_trails(g, g.edges, [((1, 1), (1, 32))])
    assert paths is not None and len(paths[0].vertices) == 32


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


def test_backends_identical_over_samples(grid, kernel_cy):
    desc = _desc(grid)
    vertices = range(len(desc.vertices))
    mask = (1 << len(desc.edges)) - 1
    cases = list(itertools.product([0, 3, 4, 8], repeat=4))
    for a, b, c, d in cases:
        pairs = ((a, b), (c, d))
        r_py = _kernel_py.find_trail_system(desc.adj, pairs, mask, 0)
        r_cy = kernel_cy.find_trail_system(desc.adj, pairs, mask, 0)
        assert r_py == r_cy


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 8), min_size=2, max_size=6),
    st.integers(0, (1 << 12) - 1),
    st.integers(0, 400),
)
def test_backends_identical_random(kernel_cy, endpoints, mask, budget):
    desc = _desc(full_grid())
    if len(endpoints) % 2:
        endpoints = endpoints[:-1]
    pairs = tuple(
        (endpoints[i], endpoints[i + 1]) for i in range(0, len(endpoints), 2)
    )
    r_py = _kernel_py.find_trail_system(desc.adj, pairs, mask, budget)
    r_cy = kernel_cy.find_trail_system(desc.adj, pairs, mask, budget)
    assert r_py == r_cy


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
    desc = _desc(g)
    table = _kernel_py.reach_table(desc.adj)
    for m in range(1 << len(desc.edges)):
        if m not in table:
            _kernel_py.fill_row(desc.adj, table, m)
        assert table[m] == tuple(_bfs_reach(desc.adj, m, v) for v in range(len(desc.adj)))


def test_reach_table_filled_lazily():
    g = build_corner_grid(frozenset({(1, 1), (3, 3)}))
    desc = _desc(g)
    table = _kernel_py.reach_table(desc.adj)
    assert not table
    # the Python kernel directly: solve_trails may dispatch to the compiled one
    pairs = ((desc.vindex[(1, 2)], desc.vindex[(3, 2)]),)
    status, _, _ = _kernel_py.find_trail_system(
        desc.adj, pairs, desc.edge_mask(g.edges), 0
    )
    assert status == _kernel_py.FOUND
    assert 0 < len(table) < 1 << len(desc.edges)
