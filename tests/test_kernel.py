"""Kernel behavior."""

import functools
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escape3x3 import kernel, toolkit
from escape3x3.grid import (
    BOUNDARY,
    COL_ONLY,
    GridGraph,
    build_corner_grid,
    edge,
    full_grid,
    grid_without_corner,
)
from escape3x3.model import contract_for
from escape3x3.oracle import oracle_solve
from escape3x3.terminals import LemmaId, enumerate_configs
from test_strict_sweep import assert_checked


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
    paths = kernel.solve_trails(g, g.edges, [((1, 1), (1, 33))])
    assert paths is not None and len(paths[0].vertices) == 33


_TRUSTED_GRAPHS = {
    "full": full_grid(),
    "no-33": grid_without_corner(),
    "no-22": build_corner_grid(frozenset({(2, 2)})),
    "no-12": build_corner_grid(frozenset({(1, 2)})),
    "row-33": _row_path_graph(33),
}


@pytest.mark.parametrize("name", list(_TRUSTED_GRAPHS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_trusted_trails_equal_checked_paths(name, data):
    """``solve_trails`` builds its trails unchecked from the descriptor's
    step table, and ``reversed``/``reflected`` mirror their edges: each
    equals the checked path through its vertices, on the four graphs the
    oracle keys and on the 33-vertex row path."""
    g = _TRUSTED_GRAPHS[name]
    edges = sorted(g.edges)
    vertex = st.sampled_from(g.sorted_vertices())
    taken = data.draw(st.sets(st.sampled_from(edges)))
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
    trails = kernel.solve_trails(g, g.edges - taken, pairs)
    if name == "row-33":
        trails = (trails or []) + kernel.solve_trails(g, g.edges, [((1, 1), (1, 33))])
    for trail in trails or ():
        for path in (trail, trail.reversed(), trail.reflected()):
            assert_checked(path)


def test_repeated_trail_is_one_shared_path(grid):
    """Two searches that find the same trail hand out the same ``Path``."""
    pairs = [((1, 1), (3, 3)), ((1, 3), (3, 1))]
    first = kernel.solve_trails(grid, grid.edges, pairs)
    second = kernel.solve_trails(grid, grid.edges, pairs)
    assert first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))


def test_escape_trail_shares_the_grid_path(grid):
    """Once its sink vertices are stripped, an escape trail is the grid
    descriptor's path for it: the same object ``solve_trails`` returns for
    that trail, here the only one its own edges hold (no vertex repeats)."""
    trails = kernel.escape_trails(
        grid, grid.edges, [((1, 1), (3, 3))], [(2, 2)], sorted(BOUNDARY), COL_ONLY, None
    )
    assert [t.end for t in trails] == [(3, 3), (3, 2)]
    for trail in trails:
        assert len(set(trail.vertices)) == len(trail.vertices)
        (same,) = kernel.solve_trails(grid, frozenset(trail.edges()), [(trail.start, trail.end)])
        assert same is trail


def _edge_simple_trails(desc):
    """Every edge-simple trail of the descriptor's graph as an index tuple,
    zero-length ones and both directions included."""
    found = set()

    def walk(trail, m):
        found.add(tuple(trail))
        for w, bit in desc.adj[trail[-1]]:
            if m & bit:
                trail.append(w)
                walk(trail, m & ~bit)
                trail.pop()

    for v in range(len(desc.vertices)):
        walk([v], (1 << len(desc.edges)) - 1)
    return found


def test_memo_entries_equal_checked_paths(strict_sweep_desc):
    """After the strict sweep, each trail the full grid's memo holds is the
    checked path through that trail's vertices, edges included."""
    desc = strict_sweep_desc
    assert desc.paths
    for t, path in desc.paths.items():
        assert path.vertices == tuple(desc.vertices[i] for i in t)
        assert_checked(path)


def test_memo_is_bounded_by_the_trail_count(strict_sweep_desc):
    """The memo's keys are edge-simple trails of the graph, so it never
    holds more entries than the full grid has of those."""
    desc = strict_sweep_desc
    trails = _edge_simple_trails(desc)
    assert len(trails) == 2069
    assert desc.paths.keys() <= trails


def test_zero_length_pair(grid):
    for pairs in ([((1, 1), (1, 1))], [((1, 1), (1, 1)), ((3, 3), (3, 3))]):
        paths = kernel.solve_trails(grid, grid.edges, pairs)
        assert paths is not None
        assert all(p.is_zero_length() for p in paths)


def test_no_pairs(grid):
    assert kernel.solve_trails(grid, grid.edges, []) == []
    desc = kernel.desc_for(grid)
    found = kernel.find_trail_system(desc.adj, (), desc.edge_mask(grid.edges), 0, desc.reach)
    assert found == (kernel.FOUND, (), 0)


def test_infeasible_returns_none():
    g = build_corner_grid(frozenset({(2, 2), (3, 3)}))
    # the surviving graph is a path; two edge-disjoint routes cannot exist
    assert kernel.solve_trails(g, g.edges, [((1, 3), (3, 1)), ((3, 1), (1, 3))]) is None


def test_determinism(grid):
    pairs = [((1, 1), (3, 3)), ((1, 3), (3, 1))]
    assert kernel.solve_trails(grid, grid.edges, pairs) == kernel.solve_trails(
        grid, grid.edges, pairs
    )


def test_trails_are_edge_disjoint(grid):
    for pairs in (
        [((1, 1), (1, 3)), ((3, 1), (3, 3)), ((2, 1), (2, 3))],
        # corner to corner, both diagonals
        [((1, 1), (3, 3)), ((1, 3), (3, 1))],
    ):
        paths = kernel.solve_trails(grid, grid.edges, pairs)
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
        for w, bit in adj[u]:
            if m & bit and w not in seen:
                seen.add(w)
                frontier.append(w)
    return sum(1 << v for v in seen)


@pytest.mark.parametrize("g", [full_grid(), grid_without_corner()], ids=["full", "no-corner"])
def test_reach_table_matches_bfs(g):
    desc = kernel.desc_for(g)
    table = desc.reach
    for m in range(1 << len(desc.edges)):
        if m not in table:
            kernel.fill_row(desc.adj, table, m)
        assert table[m] == tuple(_bfs_reach(desc.adj, m, v) for v in range(len(desc.adj)))


def test_reach_table_filled_lazily(monkeypatch):
    """A descriptor's own reach table is empty until a search reads it,
    and a search fills only the rows it reads."""
    # a descriptor cache of its own: other tests fill the shared
    # descriptor's table for this graph
    monkeypatch.setattr(kernel, "desc_for", functools.lru_cache(kernel.desc_for.__wrapped__))
    g = build_corner_grid(frozenset({(1, 1), (3, 3)}))
    desc = kernel.desc_for(g)
    table = desc.reach
    assert not table
    paths = kernel.solve_trails(g, g.edges, [((1, 2), (3, 2))])
    assert paths is not None
    assert 0 < len(table) < 1 << len(desc.edges)


def test_equal_rows_are_one_object():
    """``fill_row`` interns its rows: masks whose rows are equal, in one
    table or in two, get the same row object, and an unequal row is its
    own."""
    desc = kernel.desc_for(full_grid())
    every = (1 << len(desc.edges)) - 1
    cycle_edge = desc.ebit[edge((1, 1), (1, 2))]
    corner = cycle_edge | desc.ebit[edge((1, 1), (2, 1))]
    table, other = {}, {}
    row = kernel.fill_row(desc.adj, table, every)
    assert kernel.fill_row(desc.adj, table, every ^ cycle_edge) is row
    assert kernel.fill_row(desc.adj, other, every) is row
    cut = kernel.fill_row(desc.adj, table, every ^ corner)
    assert cut != row and cut is not row
    assert table == {every: row, every ^ cycle_edge: row, every ^ corner: cut}


def _naive_trail_system(adj, pairs, mask):
    """The kernel's depth-first search with no pruning at all: every trail,
    in adjacency order, pair after pair.  Counts one node per call."""
    k = len(pairs)
    trails = [None] * k
    nodes = 0

    def extend(i, m, path, cur):
        nonlocal nodes
        nodes += 1
        if cur == pairs[i][1]:
            trails[i] = tuple(path)
            if i + 1 == k or extend(i + 1, m, [pairs[i + 1][0]], pairs[i + 1][0]):
                return True
        for w, bit in adj[cur]:
            if m & bit:
                path.append(w)
                if extend(i, m & ~bit, path, w):
                    return True
                path.pop()
        return False

    if extend(0, mask, [pairs[0][0]], pairs[0][0]):
        return kernel.FOUND, tuple(trails), nodes
    return kernel.NONE, None, nodes


_FULL = kernel.desc_for(full_grid())
_SINK = "sink"  # stands for the sink vertex of a sink descriptor
_FREE = st.sets(st.sampled_from(_FULL.edges))
_GRID_PAIRS = st.lists(
    st.tuples(st.sampled_from(_FULL.vertices), st.sampled_from(_FULL.vertices)),
    min_size=1,
    max_size=5,
)
_SINK_PAIRS = st.lists(
    st.tuples(st.sampled_from(_FULL.vertices), st.sampled_from(_FULL.vertices + (_SINK,))),
    min_size=1,
    max_size=5,
)
_EXITS = st.sets(st.sampled_from(sorted(BOUNDARY)))
_LIMITS = st.sampled_from([None, 1])


def _grid_call(free, pairs, desc=_FULL):
    """(adj, pairs, mask, always_free, table) of a kernel call on the graph
    of ``desc``, the full grid by default."""
    vindex = desc.vindex
    pairs_idx = tuple((vindex[a], vindex[b]) for a, b in pairs)
    return desc.adj, pairs_idx, desc.edge_mask(free), 0, desc.reach


def _sink_call(free, pairs, exits, limit):
    """(adj, pairs, mask, always_free, table) of a kernel call on the sink
    descriptor of the full grid for those exits and that limit."""
    sd = kernel.sink_desc(full_grid(), tuple(sorted(exits)), COL_ONLY, limit)
    vindex = _FULL.vindex
    pairs_idx = tuple((vindex[a], sd.sink if b == _SINK else vindex[b]) for a, b in pairs)
    return sd.adj, pairs_idx, _FULL.edge_mask(free) | sd.virtual, sd.exit_edges, sd.reach


def _assert_pruned_matches_naive(adj, pairs_idx, mask, always_free, table):
    status, trails, nodes = kernel.find_trail_system(adj, pairs_idx, mask, always_free, table)
    naive_status, naive_trails, naive_nodes = _naive_trail_system(adj, pairs_idx, mask)
    assert (status, trails) == (naive_status, naive_trails)
    assert nodes <= naive_nodes


@settings(max_examples=300, deadline=None)
@given(free=_FREE, pairs=_GRID_PAIRS)
def test_pruned_search_finds_the_first_trail_system(free, pairs):
    """Pruning cuts only subtrees without a solution: the kernel returns the
    naive search's status and trails, in no more nodes."""
    _assert_pruned_matches_naive(*_grid_call(free, pairs))


@settings(max_examples=300, deadline=None)
@given(free=_FREE, pairs=_SINK_PAIRS, exits=_EXITS, limit=_LIMITS)
def test_pruned_sink_search_finds_the_first_trail_system(free, pairs, exits, limit):
    """The same on the sink descriptor of the full grid for those exits and
    that limit: its reachability rows are read with the exit edges always
    free, and the naive search follows its directed virtual edges as
    listed."""
    _assert_pruned_matches_naive(*_sink_call(free, pairs, exits, limit))


class _Unshared(dict):
    """A stand-in for ``kernel._ROWS`` that interns nothing: each row
    ``fill_row`` makes stays an object of its own."""

    def setdefault(self, row, default=None):
        return default


class _CopyingTable(dict):
    """A reach table that hands out a new copy of its row on every lookup
    in the search loop.  With ``_Unshared`` rows, no child's row is its
    parent's object, not even after a step along an always-free edge,
    which keeps the row's key: the later-pair cut never skips."""

    def __getitem__(self, m):
        return tuple(list(dict.__getitem__(self, m)))


def _unskipped(adj, pairs_idx, mask, always_free, table):
    """The search's result when no child shares its parent's row: it runs
    on a ``_CopyingTable`` of its own in place of ``table``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_ROWS", _Unshared())
        return kernel.find_trail_system(adj, pairs_idx, mask, always_free, _CopyingTable())


_NO_CORNER = kernel.desc_for(grid_without_corner())
_HEAVY6_EXITS = tuple(sorted(contract_for(LemmaId.HEAVY6).exit_target & full_grid().vertices))


@pytest.mark.parametrize("name", ["full", "no-corner", "heavy6-sink"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shared_row_skip_is_exact(name, data):
    """A child whose row is its parent's skips the later-pair cut: the
    search returns the same status, trails and node count as one in which
    no row is shared, on the full grid, the grid without its corner and
    the oracle's heavy6 sink graph, whose directed virtual edges keep the
    child's end test needed.  (A skip that ignored which rows are shared
    would skip in both runs; the pinned node counts of the strict and
    refute sweeps catch that.)"""
    desc = _NO_CORNER if name == "no-corner" else _FULL
    vertex = st.sampled_from(desc.vertices)
    free = data.draw(st.sets(st.sampled_from(desc.edges)))
    if name == "heavy6-sink":
        ends = st.sampled_from(desc.vertices + (_SINK,))
        pairs = data.draw(st.lists(st.tuples(vertex, ends), min_size=1, max_size=5))
        call = _sink_call(free, pairs, _HEAVY6_EXITS, 1)
    else:
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=5))
        call = _grid_call(free, pairs, desc)
    assert kernel.find_trail_system(*call) == _unskipped(*call)


def _folded(desc, edges):
    """The mask of ``edges`` built edge by edge."""
    return sum(desc.ebit[e] for e in edges)


@settings(max_examples=100, deadline=None)
@given(free=_FREE)
def test_frozenset_mask_is_kept(free):
    """A frozenset's mask is the edge-by-edge mask, kept under that set."""
    desc = kernel.desc_for.__wrapped__(full_grid())  # an empty memo of its own
    free = frozenset(free)
    mask = desc.edge_mask(free)
    assert mask == _folded(desc, free)
    assert desc.masks == {free: mask}
    assert desc.edge_mask(free) == mask


def test_mutable_set_mask_is_not_kept():
    """A set can change between calls, as the router's free edges do: its
    mask is folded afresh each time and never kept."""
    free = set(_FULL.edges)
    before = dict(_FULL.masks)
    first = _FULL.edge_mask(free)
    gone = edge((1, 1), (1, 2))
    free.discard(gone)
    assert _FULL.edge_mask(free) == first ^ _FULL.ebit[gone]
    assert _FULL.masks == before


def test_mask_memo_holds_only_the_graphs_edge_sets(strict_sweep_desc, monkeypatch):
    """The strict sweep, on a descriptor of its own, leaves in the full
    grid's mask memo exactly the edge sets of the router's 19 clips, each
    under its edge-by-edge mask: the router's free edges are a mutable set,
    never kept.  The refute sweep, on descriptors of its own, keeps one key,
    the graph's own edge set; so a gate pass keeps 20."""
    clips = {clip.edges for clip in toolkit.clip_catalog().values()}
    assert len(clips) == 19
    masks = strict_sweep_desc.masks
    assert masks.keys() == clips
    for key, mask in masks.items():
        assert mask == _folded(strict_sweep_desc, key)
    monkeypatch.setattr(kernel, "desc_for", functools.lru_cache(kernel.desc_for.__wrapped__))
    monkeypatch.setattr(kernel, "sink_desc", functools.lru_cache(kernel.sink_desc.__wrapped__))
    g = full_grid()
    contract = contract_for(LemmaId.HEAVY6)
    for cfg in enumerate_configs(LemmaId.HEAVY6, extended=True):
        if len(cfg.pairs) == 1:
            oracle_solve(g, cfg, contract)
    assert kernel.desc_for(g).masks == {g.edges: _folded(kernel.desc_for(g), g.edges)}


def garbage_left(runs):
    """Run each of ``runs`` (name -> callable) once to fill memos and lazy
    state, then again with the cyclic collector off, and return, per name,
    how many objects its second run left for the collector."""
    for run in runs.values():
        run()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        left = {}
        for name, run in runs.items():
            run()
            left[name] = gc.collect()
        return left
    finally:
        if enabled:
            gc.enable()


def test_search_leaves_no_reference_cycle():
    """A search frees everything it made by reference counting alone: the
    recursive search function reaches itself through its closure cell, and
    that cycle is broken on every way out, the root cut included."""
    desc = kernel.desc_for(full_grid())
    vindex = desc.vindex
    path_desc = kernel.desc_for(build_corner_grid(frozenset({(2, 2), (3, 3)})))
    pvindex = path_desc.vindex

    def feasible():
        pairs = ((vindex[(1, 1)], vindex[(3, 3)]), (vindex[(1, 3)], vindex[(3, 1)]))
        mask = desc.edge_mask(desc.edges)
        status, _, nodes = kernel.find_trail_system(desc.adj, pairs, mask, 0, desc.reach)
        assert status == kernel.FOUND and nodes > 1

    def infeasible():
        # the surviving graph is a path: the search runs and finds nothing
        pairs = ((pvindex[(1, 3)], pvindex[(3, 1)]), (pvindex[(3, 1)], pvindex[(1, 3)]))
        mask = path_desc.edge_mask(path_desc.edges)
        status, _, nodes = kernel.find_trail_system(path_desc.adj, pairs, mask, 0, path_desc.reach)
        assert status == kernel.NONE and nodes > 1

    def root_cut():
        # no edge is free, so the root's check cuts the only pair
        pairs = ((vindex[(1, 1)], vindex[(3, 3)]),)
        found = kernel.find_trail_system(desc.adj, pairs, 0, 0, desc.reach)
        assert found == (kernel.NONE, None, 1)

    def sink():
        g = full_grid()
        trails = kernel.escape_trails(
            g, g.edges, [((1, 1), (3, 3))], [(2, 2)], sorted(BOUNDARY), COL_ONLY, None
        )
        assert trails is not None

    cases = {"feasible": feasible, "infeasible": infeasible, "root_cut": root_cut, "sink": sink}
    assert garbage_left(cases) == dict.fromkeys(cases, 0)
