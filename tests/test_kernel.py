"""Kernel behavior."""

import gc
import itertools
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from escape3x3 import kernel, toolkit
from escape3x3.grid import (
    BOUNDARY,
    COL_ONLY,
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


_TRUSTED_GRAPHS = {
    "full": full_grid(),
    "no-33": grid_without_corner(),
    "no-22": build_corner_grid(frozenset({(2, 2)})),
    "no-12": build_corner_grid(frozenset({(1, 2)})),
}


@pytest.mark.parametrize("name", list(_TRUSTED_GRAPHS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_trusted_trails_equal_checked_paths(name, data):
    """``solve_trails`` builds its trails unchecked from the corner grid's
    step table, and ``reversed``/``reflected`` mirror their edges: each
    equals the checked path through its vertices, on the four graphs the
    oracle keys."""
    g = _TRUSTED_GRAPHS[name]
    edges = sorted(g.edges)
    vertex = st.sampled_from(g.sorted_vertices())
    taken = data.draw(st.sets(st.sampled_from(edges)))
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
    trails = kernel.solve_trails(g.edges - taken, pairs)
    for trail in trails or ():
        for path in (trail, trail.reversed(), trail.reflected()):
            assert_checked(path)


def test_repeated_trail_is_one_shared_path(grid):
    """Two searches that find the same trail hand out the same ``Path``."""
    pairs = [((1, 1), (3, 3)), ((1, 3), (3, 1))]
    first = kernel.solve_trails(grid.edges, pairs)
    second = kernel.solve_trails(grid.edges, pairs)
    assert first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))


def test_escape_trail_shares_the_grid_path(grid):
    """Once its sink vertices are stripped, an escape trail is the grid
    descriptor's path for it: the same object ``solve_trails`` returns for
    that trail, here the only one its own edges hold (no vertex repeats)."""
    trails = kernel.escape_trails(
        grid.edges, [((1, 1), (3, 3))], [(2, 2)], sorted(BOUNDARY), COL_ONLY, None
    )
    assert [t.end for t in trails] == [(3, 3), (3, 2)]
    for trail in trails:
        assert len(set(trail.vertices)) == len(trail.vertices)
        (same,) = kernel.solve_trails(frozenset(trail.edges()), [(trail.start, trail.end)])
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
        paths = kernel.solve_trails(grid.edges, pairs)
        assert paths is not None
        assert all(len(p.vertices) == 1 for p in paths)


def test_no_pairs(grid):
    assert kernel.solve_trails(grid.edges, []) == []
    desc = kernel.desc_for(grid)
    found = kernel.find_trail_system(desc.adj, (), desc.edge_mask(grid.edges), 0, desc.reach)
    assert found == (kernel.FOUND, (), 0)


def test_infeasible_returns_none():
    g = build_corner_grid(frozenset({(2, 2), (3, 3)}))
    # the surviving graph is a path; two edge-disjoint routes cannot exist
    assert kernel.solve_trails(g.edges, [((1, 3), (3, 1)), ((3, 1), (1, 3))]) is None


def test_determinism(grid):
    pairs = [((1, 1), (3, 3)), ((1, 3), (3, 1))]
    assert kernel.solve_trails(grid.edges, pairs) == kernel.solve_trails(grid.edges, pairs)


def test_trails_are_edge_disjoint(grid):
    for pairs in (
        [((1, 1), (1, 3)), ((3, 1), (3, 3)), ((2, 1), (2, 3))],
        # corner to corner, both diagonals
        [((1, 1), (3, 3)), ((1, 3), (3, 1))],
    ):
        paths = kernel.solve_trails(grid.edges, pairs)
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


def _whole(desc):
    """The grid descriptor's reach table, built whole first if it is still
    empty, as ``solve_trails`` builds it before its first search."""
    if not desc.reach:
        kernel._fill_grid_table(desc)
    return desc.reach


def _components(vertices, edges):
    """Each vertex to the set of vertices it reaches along ``edges``,
    found from the edges alone."""
    comp = {v: {v} for v in vertices}
    for a, b in edges:
        if comp[a] is not comp[b]:
            merged = comp[a] | comp[b]
            for v in merged:
                comp[v] = merged
    return comp


@pytest.mark.parametrize("g", [full_grid(), grid_without_corner()], ids=["full", "no-corner"])
def test_reach_table_matches_bfs(g):
    """The one table has a row for every mask of the corner grid, and the
    row of each mask of ``g``'s edges gives each vertex of ``g`` exactly
    the vertices it reaches in ``g`` along those edges."""
    desc = kernel.desc_for(g)
    table = _whole(desc)
    assert table.keys() == set(range(1 << len(desc.edges)))
    edges = sorted(g.edges)
    for r in range(len(edges) + 1):
        for free in itertools.combinations(edges, r):
            row = table[desc.edge_mask(free)]
            comp = _components(g.vertices, free)
            for v in g.vertices:
                bits = row[desc.vindex[v]]
                assert {w for i, w in enumerate(desc.vertices) if bits >> i & 1} == comp[v]


def test_first_search_builds_the_grid_table_whole(monkeypatch):
    """The descriptor's reach table is empty until its first search, of
    any subgraph, which builds it whole, a row for every mask of the corner
    grid; later searches only read it, so its rows stay the same objects."""
    # a descriptor of its own: other tests build the module descriptor's
    desc = kernel.GraphDesc()
    monkeypatch.setattr(kernel, "_DESC", desc)
    g = build_corner_grid(frozenset({(1, 1), (3, 3)}))
    table = desc.reach
    assert not table
    assert kernel.solve_trails(g.edges, [((1, 2), (3, 2))]) is not None
    assert table.keys() == set(range(1 << 12))
    rows = dict(table)
    assert kernel.solve_trails(g.edges, [((1, 2), (2, 3)), ((2, 1), (3, 2))]) is not None
    assert desc.reach is table and all(table[m] is row for m, row in rows.items())


def _sink_keys(sd):
    """Every key a search of ``sd`` can ask for: each grid mask with every
    exit edge and any subset of the R->S edges."""
    rs_edges = sd.virtual ^ sd.exit_edges
    bits = [1 << i for i in range(rs_edges.bit_length()) if rs_edges >> i & 1]
    subsets = {sum(c) for r in range(len(bits) + 1) for c in itertools.combinations(bits, r)}
    return {m | sd.exit_edges | s for m in range(1 << 12) for s in subsets}


def _searched_sink_table(exits, limit):
    """(the sink descriptor for those exits, the oracle's restricted zone
    and that limit, the kernel descriptor), both built for this call, after
    one ``escape_trails`` call on them: a fresh kernel descriptor holds
    sink descriptors of its own."""
    g = full_grid()
    desc = kernel.GraphDesc()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_DESC", desc)
        kernel.escape_trails(g.edges, [((1, 1), (2, 2))], [(1, 2)], exits, COL_ONLY, limit)
        return kernel.sink_desc(tuple(exits), COL_ONLY, limit), desc


def _reference_row(adj, m):
    """The reach row of free mask ``m``, made by the graph search the sink
    tables' rows stand for: from each vertex in index order that has no
    entry yet, a search over the edges free in ``m``, its reached set
    stored for every vertex in it from there on.  A vertex entered by a
    directed edge so gets all its search reached, the over-estimates at R
    and S.  Nothing is interned."""
    n = len(adj)
    row = [0] * n
    for src in range(n):
        if row[src]:
            continue
        seen = 1 << src
        stack = [src]
        while stack:
            u = stack.pop()
            for w, bit in adj[u]:
                if m & bit and not (seen >> w) & 1:
                    seen |= 1 << w
                    stack.append(w)
        for v in range(src, n):
            if (seen >> v) & 1:
                row[v] = seen
    return tuple(row)


def _assert_sink_table_whole(sd, grid):
    """``sd``'s table holds every key, each row the one ``_reference_row``
    makes, as the object interned in ``grid``'s pool."""
    keys = _sink_keys(sd)
    assert sd.reach.keys() == keys
    for m in keys:
        row = _reference_row(sd.adj, m)
        assert sd.reach[m] == row and sd.reach[m] is grid.rows[row]


@pytest.mark.parametrize("lemma", [LemmaId.HEAVY78, LemmaId.HEAVY6])
def test_sink_search_builds_its_tables_whole(lemma):
    """Before its first search, ``escape_trails`` builds the sink
    descriptor's reach table whole, rows over-estimated at R and S as
    ``_reference_row`` makes them, and builds the grid's table, exact: on the
    oracle's two full-grid sink descriptors, heavy78's (no limit) and the
    one heavy6 and heavy5 share (limit 1 on ``COL_ONLY``)."""
    contract = contract_for(lemma)
    exits = sorted(contract.exit_target & full_grid().vertices)
    assert contract.restricted_zone == COL_ONLY
    sd, grid = _searched_sink_table(exits, contract.max_exits_in_restricted)
    _assert_sink_table_whole(sd, grid)
    assert grid.reach.keys() == set(range(1 << len(grid.edges)))
    for m, row in grid.reach.items():
        assert row == tuple(_bfs_reach(grid.adj, m, v) for v in range(len(grid.adj)))
        assert row is grid.rows[row]


@settings(max_examples=12, deadline=None)
@given(
    exits=st.sets(st.sampled_from(sorted(BOUNDARY)), min_size=1),
    limit=st.sampled_from([None, 0, 1, 2]),
)
# every exit restricted: no free virtual edge reaches S, which still
# reaches itself
@example(exits={(1, 3)}, limit=0)
@example(exits={(1, 3), (2, 3)}, limit=1)
def test_sink_tables_are_whole_for_any_exits(exits, limit):
    """The same for other exit subsets, with limits None, 0, 1 and 2."""
    _assert_sink_table_whole(*_searched_sink_table(sorted(exits), limit))


def test_equal_rows_are_one_object():
    """Whole tables intern their rows: in the full grid's table and in a
    sink table built on it, masks whose rows are equal get one row object,
    the pool's own (``GraphDesc.rows``), and an unequal row is its own."""
    sd, grid = _searched_sink_table(sorted(BOUNDARY), 1)
    for table in (grid.reach, sd.reach):
        assert len({id(row) for row in table.values()}) == len(set(table.values()))
        assert all(row is grid.rows[row] for row in table.values())
    every = (1 << len(grid.edges)) - 1
    cycle_edge = grid.ebit[edge((1, 1), (1, 2))]
    corner = cycle_edge | grid.ebit[edge((1, 1), (2, 1))]
    row = grid.reach[every]
    assert grid.reach[every ^ cycle_edge] is row
    assert grid.reach[every ^ corner] != row


def test_a_fresh_descriptor_is_a_fresh_kernel(monkeypatch):
    """The kernel keeps its state in its descriptor alone: after a sink
    search on the session's descriptor, the same search on a fresh
    ``GraphDesc`` swapped in gets a new sink descriptor, the fresh one's,
    whose rows are all the fresh descriptor's own, and it finds the same
    trails in the same nodes."""
    g = full_grid()
    key = (tuple(sorted(BOUNDARY)), COL_ONLY, 1)
    find = kernel.find_trail_system

    def search():
        nodes = []

        def counting(*args):
            out = find(*args)
            nodes.append(out[2])
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "find_trail_system", counting)
            trails = kernel.escape_trails(g.edges, [((1, 1), (2, 2))], [(1, 2), (2, 1)], *key)
        return kernel.sink_desc(*key), trails, nodes

    first, trails, nodes = search()
    assert trails is not None and nodes
    fresh = kernel.GraphDesc()
    monkeypatch.setattr(kernel, "_DESC", fresh)
    sd, again, again_nodes = search()
    assert sd is not first and fresh.sinks == {key: sd}
    assert all(row is fresh.rows[row] for row in sd.reach.values())
    assert (again, again_nodes) == (trails, nodes)


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


def _grid_call(free, pairs):
    """(adj, pairs, mask, always_free, table) of a kernel call on the
    corner grid with ``free`` free."""
    vindex = _FULL.vindex
    pairs_idx = tuple((vindex[a], vindex[b]) for a, b in pairs)
    return _FULL.adj, pairs_idx, _FULL.edge_mask(free), 0, _whole(_FULL)


def _sink_call(free, pairs, exits, limit):
    """(adj, pairs, mask, always_free, table) of a kernel call on the sink
    descriptor for those exits and that limit."""
    sd = kernel.sink_desc(tuple(sorted(exits)), COL_ONLY, limit)
    vindex = _FULL.vindex
    pairs_idx = tuple((vindex[a], sd.sink if b == _SINK else vindex[b]) for a, b in pairs)
    return sd.adj, pairs_idx, _FULL.edge_mask(free) | sd.virtual, sd.exit_edges, sd.reach


def _assert_pruned_matches_naive(adj, pairs_idx, mask, always_free, table):
    # a read-only view: the search only reads its table
    view = types.MappingProxyType(table)
    status, trails, nodes = kernel.find_trail_system(adj, pairs_idx, mask, always_free, view)
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


class _CopyingTable(dict):
    """A reach table that hands out a new copy of its row on every lookup,
    so no child's row is its parent's object, not even after a step along
    an always-free edge, which keeps the row's key: the later-pair cut
    never skips."""

    def __getitem__(self, m):
        return tuple(list(dict.__getitem__(self, m)))


def _unskipped(adj, pairs_idx, mask, always_free, table):
    """The search's result when no child shares its parent's row: it runs
    on a ``_CopyingTable`` copy of ``table``."""
    return kernel.find_trail_system(adj, pairs_idx, mask, always_free, _CopyingTable(table))


_NO_CORNER = grid_without_corner()
_HEAVY6_EXITS = tuple(sorted(contract_for(LemmaId.HEAVY6).exit_target & full_grid().vertices))


@pytest.mark.parametrize("name", ["full", "no-corner", "heavy6-sink"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shared_row_skip_is_exact(name, data):
    """A child whose row is its parent's skips the later-pair cut: the
    search returns the same status, trails and node count as one in which
    no row is shared, on the full grid, the grid without its corner and
    the oracle's heavy6 sink graph, whose directed virtual edges keep the
    child's end test needed.  The grid without its corner is searched as
    the sweep searches it, on the corner grid with only its edges free.
    (A skip that ignored which rows are shared would skip in both runs;
    the pinned node counts of the strict and refute sweeps catch that.)"""
    g = _NO_CORNER if name == "no-corner" else full_grid()
    vertices = g.sorted_vertices()
    vertex = st.sampled_from(vertices)
    free = data.draw(st.sets(st.sampled_from(g.sorted_edges())))
    if name == "heavy6-sink":
        ends = st.sampled_from(vertices + (_SINK,))
        pairs = data.draw(st.lists(st.tuples(vertex, ends), min_size=1, max_size=5))
        call = _sink_call(free, pairs, _HEAVY6_EXITS, 1)
    else:
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=5))
        call = _grid_call(free, pairs)
    assert kernel.find_trail_system(*call) == _unskipped(*call)


def _folded(desc, edges):
    """The mask of ``edges`` built edge by edge."""
    return sum(desc.ebit[e] for e in edges)


@settings(max_examples=100, deadline=None)
@given(free=_FREE)
def test_frozenset_mask_is_kept(free):
    """A frozenset's mask is the edge-by-edge mask, kept under that set."""
    desc = kernel.GraphDesc()  # an empty memo of its own
    free = frozenset(free)
    mask = desc.edge_mask(free)
    assert mask == _folded(desc, free)
    assert desc.masks == {free: mask}
    assert desc.edge_mask(free) == mask


def test_mutable_set_mask_is_not_kept():
    """A set can change between calls, as the router's free edges do: its
    mask is folded afresh each time and never kept.  Nor is any other
    collection that is not a frozenset, a list or a tuple of edges."""
    free = set(_FULL.edges)
    before = dict(_FULL.masks)
    first = _FULL.edge_mask(free)
    gone = edge((1, 1), (1, 2))
    free.discard(gone)
    assert _FULL.edge_mask(free) == first ^ _FULL.ebit[gone]
    for edges in (sorted(free), tuple(sorted(free))):
        assert _FULL.edge_mask(edges) == first ^ _FULL.ebit[gone]
    assert _FULL.masks == before


@pytest.mark.parametrize("limit", [None, 0, 1, 2, 3])
def test_sink_gadget_has_no_more_r_edges_than_restricted_exits(limit):
    """R has ``limit`` edges to S, but no more than there are restricted
    exits: one restricted exit gets at most one, two at most two; with no
    restricted exit or no limit there is no R at all."""
    n = len(_FULL.vertices)
    for exits in ([(1, 3)], [(1, 3), (2, 3)], [(1, 3), (2, 3), (3, 3)], [(3, 1), (3, 3)]):
        sd = kernel.sink_desc(tuple(exits), COL_ONLY, limit)
        held = 0 if limit is None else len(COL_ONLY.intersection(exits))
        r_edges = bin(sd.virtual ^ sd.exit_edges).count("1")
        assert r_edges == (min(limit, held) if held else 0), exits
        assert sd.sink == (n + 1 if held else n)


def test_mask_memo_holds_only_the_graphs_edge_sets(strict_sweep_desc, monkeypatch):
    """The strict sweep, on a descriptor of its own, leaves in the full
    grid's mask memo exactly the edge sets of the router's 19 clips, each
    under its edge-by-edge mask: the router's free edges are a mutable set,
    never kept.  The refute sweep, on a descriptor of its own, keeps one
    key, the graph's own edge set."""
    clips = {clip.edges for clip in toolkit.clip_catalog().values()}
    assert len(clips) == 19
    masks = strict_sweep_desc.masks
    assert masks.keys() == clips
    for key, mask in masks.items():
        assert mask == _folded(strict_sweep_desc, key)
    desc = kernel.GraphDesc()
    monkeypatch.setattr(kernel, "_DESC", desc)
    g = full_grid()
    contract = contract_for(LemmaId.HEAVY6)
    for cfg in enumerate_configs(LemmaId.HEAVY6, extended=True):
        if len(cfg.pairs) == 1:
            oracle_solve(g, cfg, contract)
    assert desc.masks == {g.edges: _folded(desc, g.edges)}


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
    path_graph = build_corner_grid(frozenset({(2, 2), (3, 3)}))

    def feasible():
        pairs = ((vindex[(1, 1)], vindex[(3, 3)]), (vindex[(1, 3)], vindex[(3, 1)]))
        mask = desc.edge_mask(desc.edges)
        status, _, nodes = kernel.find_trail_system(desc.adj, pairs, mask, 0, _whole(desc))
        assert status == kernel.FOUND and nodes > 1

    def infeasible():
        # the surviving graph is a path: the search runs and finds nothing
        pairs = ((vindex[(1, 3)], vindex[(3, 1)]), (vindex[(3, 1)], vindex[(1, 3)]))
        mask = desc.edge_mask(path_graph.edges)
        status, _, nodes = kernel.find_trail_system(desc.adj, pairs, mask, 0, _whole(desc))
        assert status == kernel.NONE and nodes > 1

    def root_cut():
        # no edge is free, so the root's check cuts the only pair
        pairs = ((vindex[(1, 1)], vindex[(3, 3)]),)
        found = kernel.find_trail_system(desc.adj, pairs, 0, 0, _whole(desc))
        assert found == (kernel.NONE, None, 1)

    def sink():
        g = full_grid()
        trails = kernel.escape_trails(
            g.edges, [((1, 1), (3, 3))], [(2, 2)], sorted(BOUNDARY), COL_ONLY, None
        )
        assert trails is not None

    cases = {"feasible": feasible, "infeasible": infeasible, "root_cut": root_cut, "sink": sink}
    assert garbage_left(cases) == dict.fromkeys(cases, 0)
