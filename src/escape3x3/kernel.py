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
possibly more).  A row is filled lazily, all vertices in one pass, the
first time its mask is seen; nothing is built at import.  A call may name
edges the table treats as always free: rows are looked up under the free
mask with those edges added, and such rows can only over-estimate
reachability, so pruning stays sound.  The tables are bounded: every grid
graph is a subgraph of the 3x3 grid, with at most 12 edges, and a sink
graph's rows are keyed with its exit edges always free, so its table has at
most 2^(12 + number of R->S edges) rows.  A table lives as long as its
cached descriptor.

Rows are interned: ``fill_row`` stores a row equal to one it has made
before as that same object (``_ROWS``), so masks whose rows agree share
one row.  A step whose edge changes no reachability (an edge on a cycle of
free edges, or one the table treats as always free) leaves its child with
its parent's row object, and the child then skips the later-pair cut.
That is exact: the later pairs are the parent's, and the parent's row
passed them, in its own parent's loop, at the root, or in the check of
the previous trail's last node, whose later pairs include these.  The
child's own end test still runs: its vertex is not its parent's, and over
a directed edge it need not reach what its parent reaches.  ``_ROWS``
holds one object per distinct row, so it never outgrows the tables.

The search is a nested function that calls itself through its closure
cell, a reference cycle; the closure is cleared on every way out, so each
search's state is freed by reference counting, not left to the cyclic
garbage collector.

``solve_trails`` translates vertices and edges to the indices and bitmasks
of ``desc_for`` and runs the search.  ``escape_trails`` runs the same
search on the sink graph of ``sink_desc``, where "escape to any free exit"
is one trail into a sink vertex, and returns its trails without the
virtual vertices.

Both wrappers take their ``Path``s from the grid descriptor's memo
(``GraphDesc.path``), keyed by the index trail the search returns: the
searches repeat a few hundred trails tens of thousands of times, so each
distinct trail is built once, on first use.  A key is an edge-simple trail
of the descriptor's graph, so the memo holds at most that many entries
(2,069 for the full corner grid, 750 without its corner), and it lives as
long as the cached descriptor.  A ``Path`` is frozen, so plans and callers
can share one.

``GraphDesc.edge_mask`` keeps the mask of each frozenset of edges it is
given (``GraphDesc.masks``): the oracle passes the graph's own edge set on
every call, and the router's clip catalog a fixed few.  Its keys are sets
of the graph's edges, at most 2^12 on the 3x3 grid, in practice the
graph's edge set and the clips that fit it.  A mutable set, such as the
router's free edges, is never kept: it is folded edge by edge on every
call.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from .grid import Edge, Frozen, GridGraph, Vertex
from .model import Path

# The benchmark's tracer wraps _impl.find_trail_system, that is, this
# module's own: both wrappers look find_trail_system up here at every call
# (never bind it to a local or a default), so they call the wrap.  Kept
# until the benchmark reads its counts from the package.
_impl = sys.modules[__name__]
BACKEND = "python"  # stamped in every benchmark record

FOUND = 1
NONE = 0

# each distinct row of every table, keyed by itself
_ROWS: dict[tuple[int, ...], tuple[int, ...]] = {}


def fill_row(adj, table: dict, m: int) -> tuple[int, ...]:
    """Compute, store and return the row of ``table`` for free-edge mask
    ``m``: for each vertex, a bitmask holding every vertex it reaches.

    Each search's reached set is stored for all the vertices in it: exact
    where every edge is undirected, and possibly more than a vertex reaches
    when it is entered by a directed edge.  A row equal to one made before
    is stored as that same object (``_ROWS``)."""
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
    out = tuple(row)
    out = table[m] = _ROWS.setdefault(out, out)
    return out


def find_trail_system(adj, pairs, mask, always_free, table):
    """Search for edge-disjoint trails joining every endpoint pair.

    adj: tuple of per-vertex tuples ((neighbor, edge bit), ...) in the order
         the search tries them (by neighbor index for a grid), where an edge
         bit is ``1 << edge_id``; pairs: tuple of (a, b) vertex indices;
         mask: bitmask of free edges; always_free: bitmask of edges the
         reachability table treats as free (0 for grid calls); table: the
         reach table of ``adj`` (a descriptor's ``reach``), filled here as
         the search reads it.

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
                try:
                    crow = table[child | always_free]
                except KeyError:
                    crow = fill_row(adj, table, child | always_free)
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
        row = table.get(mask | always_free)
        if row is None:
            row = fill_row(adj, table, mask | always_free)
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
    """Index-level description of a grid graph for the kernel, with the
    vertex -> index, edge -> bit and step -> edge tables the wrapper looks
    up.  ``adj`` lists each vertex's (neighbour index, edge bit) entries,
    where an edge's bit is ``1 << `` its index in ``edges``; ``step`` maps
    each (index, neighbour index) step, either way, to its edge.  It owns
    three memos, each filled on first use: ``reach``, the search's
    reachability table for ``adj``; ``paths``; and ``masks``.  Each memo
    starts empty unless one is given.  Only ``vertices``, ``edges`` and
    ``adj`` take part in equality, hashing and repr."""

    _fields = ("vertices", "edges", "adj")

    def __init__(
        self,
        vertices: tuple[Vertex, ...],
        edges: tuple[Edge, ...],
        adj: tuple[tuple[tuple[int, int], ...], ...],
        vindex: dict[Vertex, int],
        ebit: dict[Edge, int],
        step: dict[tuple[int, int], Edge],
        reach: dict[int, tuple[int, ...]] | None = None,
        paths: dict[tuple[int, ...], Path] | None = None,
        masks: dict[frozenset[Edge], int] | None = None,
    ):
        fields = self.__dict__
        fields["vertices"] = vertices
        fields["edges"] = edges
        fields["adj"] = adj
        fields["vindex"] = vindex
        fields["ebit"] = ebit
        fields["step"] = step
        fields["reach"] = {} if reach is None else reach
        fields["paths"] = {} if paths is None else paths
        fields["masks"] = {} if masks is None else masks

    def path(self, t: tuple[int, ...]) -> Path:
        """The path along index trail ``t``, built on first use and kept in
        ``paths``.  The search steps only along graph edges, each once, so
        it is built with the edges its steps name, unchecked
        (``Path._trusted``)."""
        path = self.paths.get(t)
        if path is None:
            path = self.paths[t] = Path._trusted(
                tuple(map(self.vertices.__getitem__, t)),
                tuple(map(self.step.__getitem__, zip(t, t[1:]))),
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


@lru_cache(maxsize=None)
def desc_for(g: GridGraph) -> GraphDesc:
    vertices = g.sorted_vertices()
    edges = g.sorted_edges()
    vindex = {v: i for i, v in enumerate(vertices)}
    adj: list[list[tuple[int, int]]] = [[] for _ in vertices]
    step: dict[tuple[int, int], Edge] = {}
    for eid, e in enumerate(edges):
        i, j = vindex[e[0]], vindex[e[1]]
        adj[i].append((j, 1 << eid))
        adj[j].append((i, 1 << eid))
        step[i, j] = step[j, i] = e
    adj_t = tuple(tuple(sorted(entries)) for entries in adj)
    return GraphDesc(
        vertices=vertices,
        edges=edges,
        adj=adj_t,
        vindex=vindex,
        ebit={e: 1 << i for i, e in enumerate(edges)},
        step=step,
    )


def solve_trails(g: GridGraph, free_edges, endpoint_pairs) -> list[Path] | None:
    """Find edge-disjoint trails joining the endpoint pairs, in order, or
    None if there are none.  Deterministic: the lexicographically first
    trail system under sorted-vertex order.  Each trail is the descriptor's
    shared ``Path`` for it (``GraphDesc.path``).
    """
    desc = desc_for(g)
    vindex = desc.vindex
    pairs_idx = tuple((vindex[a], vindex[b]) for a, b in endpoint_pairs)
    status, trails, _ = find_trail_system(
        desc.adj, pairs_idx, desc.edge_mask(free_edges), 0, desc.reach
    )
    if status != FOUND:
        return None
    return [desc.path(t) for t in trails]


class SinkDesc(Frozen):
    """A grid graph's descriptor extended by a sink S fed by the exits.

    Each unrestricted exit has one directed edge to S.  With a limit, each
    restricted exit has one directed edge to a vertex R, and R has ``limit``
    edges to S (no more than there are restricted exits).  Nothing leaves S,
    and R leads only to S, so a virtual vertex can only end a trail and no
    trail passes from one exit to another.  Trails into S from distinct
    terminals are edge-disjoint, so they end at distinct exits, at most
    ``limit`` of them restricted.  An exit lists its virtual edge first, so
    a trail reaching it tries to end there before it walks on.

    ``virtual`` is the mask of every virtual edge, ``exit_edges`` that of
    the exit->S and exit->R edges; ``reach``, the search's reachability
    table for ``adj``, starts empty unless one is given and takes no part
    in equality, hashing or repr."""

    _fields = ("grid", "adj", "sink", "virtual", "exit_edges")

    def __init__(
        self,
        grid: GraphDesc,
        adj: tuple[tuple[tuple[int, int], ...], ...],
        sink: int,
        virtual: int,
        exit_edges: int,
        reach: dict[int, tuple[int, ...]] | None = None,
    ):
        fields = self.__dict__
        fields["grid"] = grid
        fields["adj"] = adj
        fields["sink"] = sink
        fields["virtual"] = virtual
        fields["exit_edges"] = exit_edges
        fields["reach"] = {} if reach is None else reach


@lru_cache(maxsize=None)
def sink_desc(
    g: GridGraph, exits: tuple[Vertex, ...], restricted: frozenset[Vertex], limit: int | None
) -> SinkDesc:
    grid = desc_for(g)
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
    adj_t = tuple(map(tuple, adj))
    return SinkDesc(
        grid=grid,
        adj=adj_t,
        sink=sink,
        virtual=(1 << eid) - (1 << len(grid.edges)),
        exit_edges=exit_edges,
    )


def escape_trails(
    g: GridGraph,
    free_edges,
    linked_pairs,
    escaping,
    exits,
    restricted,
    limit: int | None,
) -> list[Path] | None:
    """Edge-disjoint trails that join the linked pairs and take every
    escaping terminal to its own exit, at most ``limit`` of them in
    ``restricted`` (None: no bound), or None if there are none: one search
    of the sink graph.  The linked pairs' trails come first, in order, then
    one per escaping terminal, ending at its exit.

    A trail into the sink ends with the virtual vertices it entered last;
    they are stripped.  Nothing leaves the sink, and R leads only to the
    sink, so what is left is a trail of the grid graph ending at the exit,
    and its ``Path`` is the grid descriptor's shared one, as in
    ``solve_trails``.
    """
    sd = sink_desc(g, tuple(exits), frozenset(restricted), limit)
    grid = sd.grid
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
