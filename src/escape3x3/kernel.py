"""Trail-packing kernel: the search, the graph descriptors it runs on, and
the vertex-level wrappers.

Given a small graph (adjacency lists over vertex indices, each entry a
neighbour and its edge's bit in the free-edge mask) and a sequence of
(start, end) endpoint pairs, ``find_trail_system`` finds the
lexicographically first system of pairwise edge-disjoint trails connecting
every pair, by depth-first search.  Trails may revisit vertices but never
reuse an edge; a zero-length trail is allowed when start == end.

An edge may be directed: listed in the adjacency of one endpoint only, so a
trail crosses it that way alone.  Grid edges are listed at both ends.  The
sink graphs of ``sink_desc`` add directed virtual edges from exits into a
sink; nothing leaves the sink, so it can only end a trail.

The search prunes with reachability over the still-free edges: a node is
cut if the current trail cannot reach its end, or the ends of a later pair
are cut apart.  The free mask only shrinks below a node, so such a pair
stays cut apart in the whole subtree: pruning drops only subtrees without a
trail system and keeps the first one in depth-first order.  A node's cuts
are checked in its parent's loop, before any call is made for it, but a
child cut there is still one node: it is counted as if it had been entered
and had returned at once.  The first node of the next trail has its
parent's free mask, so it reuses its parent's row, and its parent's check
of the later pairs has already covered its cuts.

Instead of a graph search per query, reachability is read from the table
the caller hands in, which is the descriptor's own (``GraphDesc.reach``,
``SinkDesc.reach``): for each free-edge mask it holds one row giving, per
vertex, a bitmask holding every vertex it reaches (with directed edges,
possibly more).  A call may name edges the table treats as always free:
rows are looked up under the free mask with those edges added, and such
rows can only over-estimate reachability, so pruning stays sound.

The kernel describes one graph, the corner grid: one ``GraphDesc``, built
at import, with one index space and one reach table of 4,096 rows.  Every
graph the package searches is a subgraph of it (``GridGraph`` refuses any
other), and a search of a subgraph is a search of the corner grid with
only the subgraph's edges free.  That is the same search the subgraph's
own descriptor would make: its vertices keep their order, each vertex's
neighbours keep theirs, a vertex the subgraph lacks has no free edge and
is never entered, and a row under a mask of the subgraph's edges gives
each of its vertices exactly what it reaches in the subgraph.  So the
trails and the node counts are the subgraph's own.  A sink graph extends
the corner grid, and its rows are keyed with its exit edges always free,
so its table has at most 2^(12 + number of R->S edges) rows.

The search only reads a table, and every table is built whole before the
first search on it: ``solve_trails`` builds the grid's at its first call
(``_fill_grid_table``, edge by edge: the row of mask m is the row of m
without its highest edge, that edge's two components joined), and a sink
descriptor's constructor builds its own (``fill_table``), each sink row
derived from the grid row of its key's grid part, after building the
grid's table if no search has yet.  So a table's contents never depend on
which searches ran before.  The descriptor is built at import, its table
by the first search.

Rows are interned: both builds store a row equal to one made before as
that same object, in the grid descriptor's pool (``GraphDesc.rows``), so
masks whose rows agree share one row.  A step whose edge changes no
reachability (an edge on a cycle of free edges, or one the table treats
as always free) leaves its child with its parent's row object, and the
child then skips the later-pair cut.  That is exact: the later pairs are
the parent's, and the parent's row passed them, in its own parent's loop,
at the root, or in the check of the previous trail's last node, whose
later pairs include these.  The child's own end test still runs: its
vertex is not its parent's, and over a directed edge it need not reach
what its parent reaches.  The pool holds one object per distinct row, so
it never outgrows the tables.

The module's descriptor (``_DESC``) is the only state the kernel keeps:
its reach table, its row pool, its sink descriptors (``GraphDesc.sinks``,
each with its own table), its trails and its masks.  So a fresh
``GraphDesc()`` in its place is a fresh kernel.

The search is a nested function that calls itself through its closure
cell, a reference cycle; the closure is cleared on every way out, so each
search's state is freed by reference counting, not left to the cyclic
garbage collector.

``solve_trails`` translates vertices and edges to the descriptor's indices
and bitmasks and runs the search.  ``escape_trails`` runs the same search
on the sink graph of ``sink_desc``, where "escape to any free exit" is one
trail into a sink vertex, and returns its trails without the virtual
vertices.  Both read the module's descriptor (``_DESC``) at every call.

Both wrappers take their ``Path``s from the descriptor's memo
(``GraphDesc.path``), keyed by the index trail the search returns: the
searches repeat a few hundred trails tens of thousands of times, so each
distinct trail is built once, on first use.  A key is an edge-simple trail
of the corner grid, so the memo holds at most 2,069 entries.  A ``Path``
is frozen, so plans and callers can share one.

``GraphDesc.edge_mask`` keeps the mask of each frozenset of edges it is
given (``GraphDesc.masks``): the oracle and the weak-2-linkage sweep pass
their graph's own edge set on every call, and the router's clip catalog a
fixed few.  Its keys are sets of corner-grid edges, at most 2^12, in
practice the searched graphs' edge sets and the clips.  A mutable set,
such as the router's free edges, is never kept: it is folded edge by edge
on every call.
"""

from __future__ import annotations

import sys

from .grid import ALL_VERTICES, GRID_EDGES, Frozen, GridGraph, Vertex
from .model import _STEP_EDGE, Path

# The benchmark's tracer wraps _impl.find_trail_system, that is, this
# module's own: both wrappers look find_trail_system up here at every call
# (never bind it to a local or a default), so they call the wrap.  Kept
# until the benchmark reads its counts from the package.
_impl = sys.modules[__name__]
BACKEND = "python"  # stamped in every benchmark record

FOUND = 1
NONE = 0


def _fill_grid_table(desc: GraphDesc) -> None:
    """Build the descriptor's empty reach table whole: a row for every
    mask, each giving per vertex exactly the vertices it reaches.

    The row of mask m is the row of m without its highest edge, with that
    edge's two components joined, so the masks are filled in increasing
    order, each from a row made before.  The table is written once, whole,
    so it is never seen part-built.  Its rows are interned in the
    descriptor's ``rows``."""
    vindex = desc.vindex
    ends = [(vindex[a], vindex[b]) for a, b in desc.edges]
    row = tuple(1 << v for v in range(len(desc.vertices)))
    rows = [desc.rows.setdefault(row, row)]
    for m in range(1, 1 << len(ends)):
        top = m.bit_length() - 1
        prev = rows[m ^ (1 << top)]
        u, v = ends[top]
        if not prev[u] >> v & 1:
            joined = prev[u] | prev[v]
            row = tuple([joined if x & joined else x for x in prev])
            prev = desc.rows.setdefault(row, row)
        rows.append(prev)
    desc.reach.update(enumerate(rows))


def fill_table(sd: SinkDesc, grid: GraphDesc) -> None:
    """Build the sink descriptor's empty reach table whole: a row for every
    key a search can ask for, that is, every grid mask with the exit edges
    and any subset of the R->S edges, after building the table of
    ``grid``, the descriptor ``sd`` extends, if it is still empty.  Its
    rows are interned in ``grid``'s ``rows``.

    Each row is made by a search from each vertex in index order that has
    no row yet, storing what it reaches for every vertex from there on, so
    R and S may get over-estimates: a vertex reached through a directed
    edge is given all its search reached.  The grid row of the key's grid
    part stands in for the search over grid edges.  A virtual edge leads
    from an exit to R or S, or from R to S, always to a higher index, so
    one pass over the virtual edges in index order reaches all the search
    would."""
    gtable = grid.reach
    if not gtable:
        _fill_grid_table(grid)
    n, size, virtual = len(grid.vertices), len(sd.adj), sd.virtual
    subsets = [sd.exit_edges]
    for bit in (1 << i for i in range(virtual.bit_length())):
        if virtual & bit & ~sd.exit_edges:
            subsets += [s | bit for s in subsets]
    # the vertices with virtual edges, and per subset, each one with the
    # vertices its free virtual edges lead to, in index order
    tails = [v for v in range(size) if any(bit & virtual for _, bit in sd.adj[v])]
    starts = sum(1 << v for v in tails)
    leads = [
        [(v, sum({1 << w for w, bit in sd.adj[v] if bit & free})) for v in tails]
        for free in subsets
    ]

    def derive(grow: tuple[int, ...], lead: list) -> tuple[int, ...]:
        row = [0] * size
        for src in range(size):
            if row[src]:
                continue
            seen = grow[src] if src < n else 1 << src
            if seen & starts:
                for v, heads in lead:
                    if seen >> v & 1:
                        seen |= heads
            # every vertex in seen is src or after it
            rest = seen
            while rest:
                low = rest & -rest
                row[low.bit_length() - 1] = seen
                rest ^= low
        out = tuple(row)
        return grid.rows.setdefault(out, out)

    # grid rows are interned, so equal ones are one object: each object's
    # rows, one per subset, are derived once
    derived: dict[int, list] = {}
    table = {}
    for gm, grow in gtable.items():
        rows = derived.get(id(grow))
        if rows is None:
            rows = derived[id(grow)] = [derive(grow, lead) for lead in leads]
        for free, row in zip(subsets, rows):
            table[gm | free] = row
    sd.reach.update(table)  # written once, whole, as the grid's


def find_trail_system(adj, pairs, mask, always_free, table):
    """Search for edge-disjoint trails joining every endpoint pair.

    adj: tuple of per-vertex tuples ((neighbor, edge bit), ...) in the order
         the search tries them (by neighbor index for a grid), where an edge
         bit is ``1 << edge_id``; pairs: tuple of (a, b) vertex indices;
         mask: bitmask of free edges; always_free: bitmask of edges the
         reachability table treats as free (0 for grid calls); table: the
         reach table of ``adj`` (a descriptor's ``reach``), built whole,
         which the search only reads.

    Returns (status, trails, nodes): status FOUND or NONE, trails a tuple of
    vertex-index tuples when status == FOUND, and nodes the search nodes
    visited.
    """
    k = len(pairs)
    if k == 0:
        return FOUND, (), 0
    # per pair, its end's bit, and the pairs from it on that still have to
    # be joined, as (start, end bit): zero-length ones are left out
    ends = [0] * k
    pending = [()] * (k + 1)
    for i in range(k - 1, -1, -1):
        a, b = pairs[i]
        ends[i] = bit = 1 << b
        pending[i] = ((a, bit),) + pending[i + 1] if a != b else pending[i + 1]
    later = pending[1:]
    trails: list = [None] * k
    nodes = 1  # the root

    def visit(i: int, m: int, row: tuple, path: list, cur: int) -> bool:
        # A node already counted that passed every cut: trail i is at cur,
        # m is the free mask and row its reachability row.
        nonlocal nodes
        if cur == pairs[i][1]:
            trails[i] = tuple(path)
            if i + 1 == k:
                return True
            # the next trail's first node has this node's mask, so this
            # node's row, and this node's later-pair check covered its cuts
            nodes += 1
            a = pairs[i + 1][0]
            if visit(i + 1, m, row, [a], a):
                return True
            trails[i] = None
        end = ends[i]
        rest = later[i]
        for w, bit in adj[cur]:
            if m & bit:
                nodes += 1  # the child, counted even if cut here
                child = m ^ bit
                crow = table[child | always_free]
                # the child's cuts: it cannot reach its end (a child at its
                # end passes, as a vertex reaches itself), or a later pair
                # is cut apart; its parent's row, if it is the same object,
                # has passed the later pairs already
                if not crow[w] & end:
                    continue
                if crow is row:
                    path.append(w)
                    if visit(i, child, crow, path, w):
                        return True
                    path.pop()
                    continue
                for a, c in rest:
                    if not crow[a] & c:
                        break
                else:
                    path.append(w)
                    if visit(i, child, crow, path, w):
                        return True
                    path.pop()
        return False

    try:
        a = pairs[0][0]
        row = table[mask | always_free]
        # the root's cuts: the first pair and every later one
        for s, c in pending[0]:
            if not row[s] & c:
                break
        else:
            if visit(0, mask, row, [a], a):
                return FOUND, tuple(trails), nodes
        return NONE, None, nodes
    finally:
        del visit  # see the module docstring


class GraphDesc(Frozen):
    """Index-level description of the corner grid for the kernel, with the
    vertex -> index and edge -> bit tables the wrappers look up.  Vertices
    and edges are indexed in sorted order; ``adj`` lists each vertex's
    (neighbour index, edge bit) entries by neighbour index, where an edge's
    bit is ``1 << `` its index in ``edges``.  It owns five memos, each
    empty at construction: ``reach``, the search's reachability table for
    ``adj``, built whole before the first search on the descriptor or on a
    sink descriptor; ``rows``, the pool its table and its sink
    descriptors' tables intern their rows in; ``sinks``, its sink
    descriptors by exits, restricted zone and limit (``sink_desc``);
    ``paths`` and ``masks``, filled on first use.  Only ``vertices``,
    ``edges`` and ``adj`` take part in equality, hashing and repr.  The
    module builds one, ``_DESC``, and every search runs on it."""

    _fields = ("vertices", "edges", "adj")
    __slots__ = _fields + ("vindex", "ebit", "reach", "rows", "sinks", "paths", "masks")

    def __init__(self):
        edges = tuple(sorted(GRID_EDGES))
        vindex = {v: i for i, v in enumerate(ALL_VERTICES)}
        ebit = {e: 1 << i for i, e in enumerate(edges)}
        adj: list[list[tuple[int, int]]] = [[] for _ in ALL_VERTICES]
        # in sorted edge order, a vertex's edges to lower neighbours come
        # first, each by its neighbour, then those to higher ones: each
        # list is in neighbour index order as it is built
        for (a, b), bit in ebit.items():
            adj[vindex[a]].append((vindex[b], bit))
            adj[vindex[b]].append((vindex[a], bit))
        self._set_fields(
            ALL_VERTICES, edges, tuple(map(tuple, adj)), vindex, ebit, {}, {}, {}, {}, {}
        )

    def path(self, t: tuple[int, ...]) -> Path:
        """The path along index trail ``t``, built on first use and kept in
        ``paths``.  The search steps only along grid edges, each once, so
        it is built with the corner grid's edge for each step
        (``model._STEP_EDGE``), unchecked (``Path._trusted``)."""
        path = self.paths.get(t)
        if path is None:
            vertices = tuple(map(self.vertices.__getitem__, t))
            path = self.paths[t] = Path._trusted(
                vertices, tuple(map(_STEP_EDGE.__getitem__, zip(vertices, vertices[1:])))
            )
        return path

    def edge_mask(self, edges) -> int:
        """The bitmask of ``edges``, kept in ``masks`` when they are a
        frozenset (so they cannot change under the key)."""
        frozen = type(edges) is frozenset
        if frozen:
            mask = self.masks.get(edges)
            if mask is not None:
                return mask
        ebit = self.ebit
        mask = 0
        for e in edges:
            mask |= ebit[e]
        if frozen:
            self.masks[edges] = mask
        return mask


_DESC = GraphDesc()


def desc_for(g: GridGraph) -> GraphDesc:
    """The descriptor a search of ``g``, a subgraph of the corner grid,
    runs on: the module's one, whatever ``g`` is."""
    return _DESC


def solve_trails(free_edges, endpoint_pairs) -> list[Path] | None:
    """Find edge-disjoint trails along ``free_edges`` joining the endpoint
    pairs, in order, or None if there are none.  Deterministic: the
    lexicographically first trail system under sorted-vertex order.  Each
    trail is the descriptor's shared ``Path`` for it (``GraphDesc.path``).
    The first search builds the descriptor's reach table whole.
    """
    desc = _DESC
    if not desc.reach:
        _fill_grid_table(desc)
    vindex = desc.vindex
    pairs_idx = tuple((vindex[a], vindex[b]) for a, b in endpoint_pairs)
    status, trails, _ = find_trail_system(
        desc.adj, pairs_idx, desc.edge_mask(free_edges), 0, desc.reach
    )
    if status != FOUND:
        return None
    return [desc.path(t) for t in trails]


class SinkDesc(Frozen):
    """The descriptor ``grid`` extended by a sink S fed by the exits.

    Each unrestricted exit has one directed edge to S.  With a limit, each
    restricted exit has one directed edge to a vertex R, and R has ``limit``
    edges to S (no more than there are restricted exits).  Nothing leaves S,
    and R leads only to S, so a virtual vertex can only end a trail and no
    trail passes from one exit to another.  Trails into S from distinct
    terminals are edge-disjoint, so they end at distinct exits, at most
    ``limit`` of them restricted.  An exit lists its virtual edge first, so
    a trail reaching it tries to end there before it walks on.  The grid
    vertices and edges keep their indices and bits, and the virtual ones
    follow them.

    ``virtual`` is the mask of every virtual edge, ``exit_edges`` that of
    the exit->S and exit->R edges; ``reach``, the search's reachability
    table for ``adj``, is built whole by the constructor (``fill_table``),
    derived from ``grid``'s table and interned in ``grid``'s ``rows``, and
    takes no part in equality, hashing or repr."""

    _fields = ("adj", "sink", "virtual", "exit_edges")
    __slots__ = _fields + ("reach",)

    def __init__(
        self,
        grid: GraphDesc,
        exits: tuple[Vertex, ...],
        restricted: frozenset[Vertex],
        limit: int | None,
    ):
        n = len(grid.vertices)
        held = [] if limit is None else [x for x in exits if x in restricted]
        r = n  # R, present only when some exit is restricted
        sink = n + 1 if held else n
        adj = [list(entries) for entries in grid.adj] + [[] for _ in range(sink + 1 - n)]
        eid = len(grid.edges)
        for x in exits:
            adj[grid.vindex[x]].insert(0, (r if x in held else sink, 1 << eid))
            eid += 1
        exit_edges = (1 << eid) - (1 << len(grid.edges))
        for _ in range(min(limit, len(held)) if held else 0):
            adj[r].append((sink, 1 << eid))
            eid += 1
        virtual = (1 << eid) - (1 << len(grid.edges))
        self._set_fields(tuple(map(tuple, adj)), sink, virtual, exit_edges, {})
        fill_table(self, grid)


def sink_desc(
    exits: tuple[Vertex, ...], restricted: frozenset[Vertex], limit: int | None
) -> SinkDesc:
    """The module descriptor's sink descriptor for these exits, restricted
    zone and limit, built on first use and kept in its ``sinks``."""
    grid = _DESC
    key = (exits, restricted, limit)
    sd = grid.sinks.get(key)
    if sd is None:
        sd = grid.sinks[key] = SinkDesc(grid, exits, restricted, limit)
    return sd


def escape_trails(
    free_edges,
    linked_pairs,
    escaping,
    exits,
    restricted,
    limit: int | None,
) -> list[Path] | None:
    """Edge-disjoint trails along ``free_edges`` that join the linked pairs
    and take every escaping terminal to its own exit, at most ``limit`` of
    them in ``restricted`` (None: no bound), or None if there are none: one
    search of the sink graph.  The linked pairs' trails come first, in
    order, then one per escaping terminal, ending at its exit.

    A trail into the sink ends with the virtual vertices it entered last;
    they are stripped.  Nothing leaves the sink, and R leads only to the
    sink, so what is left is a trail of the corner grid ending at the exit,
    and its ``Path`` is the descriptor's shared one, as in
    ``solve_trails``.
    """
    sd = sink_desc(tuple(exits), frozenset(restricted), limit)
    grid = _DESC
    vindex = grid.vindex
    pairs_idx = tuple((vindex[a], vindex[b]) for a, b in linked_pairs) + tuple(
        (vindex[t], sd.sink) for t in escaping
    )
    status, trails, _ = find_trail_system(
        sd.adj,
        pairs_idx,
        grid.edge_mask(free_edges) | sd.virtual,
        sd.exit_edges,
        sd.reach,
    )
    if status != FOUND:
        return None
    n = len(grid.vertices)
    paths = []
    for t in trails:
        while t[-1] >= n:
            t = t[:-1]
        paths.append(grid.path(t))
    return paths
