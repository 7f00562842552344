"""Trail-packing kernel: graph descriptors and the vertex-level wrappers.

``solve_trails`` translates vertices and edges to the indices and bitmasks
of ``desc_for`` and runs the search in ``_kernel_py``.  ``escape_trails``
runs the same search on the sink graph of ``sink_desc``, where "escape to
any free exit" is one trail into a sink vertex, and returns its trails
without the virtual vertices.

Both wrappers take their ``Path``s from the grid descriptor's memo
(``GraphDesc.path``), keyed by the index trail the search returns: the
searches repeat a few hundred trails tens of thousands of times, so each
distinct trail is built once, on first use.  A key is an edge-simple trail
of the descriptor's graph, so the memo holds at most that many entries
(2,069 for the full corner grid, 750 without its corner), and it lives as
long as the cached descriptor.  A ``Path`` is frozen, so plans and callers
can share one.

Each descriptor also holds its graph's reachability table
(``_kernel_py.reach_table`` of its adjacency), and both wrappers hand it
to the search, so no call looks the table up by hashing the nested
adjacency tuple.  It is the module memo's own table, bounded as that memo
is.  ``GraphDesc.edge_mask`` keeps the mask of each frozenset of edges it
is given (``GraphDesc.masks``): the oracle passes the graph's own edge set
on every call, and the router's clip catalog a fixed few.  Its keys are
sets of the graph's edges, at most 2^12 on the 3x3 grid, in practice the
graph's edge set and the clips that fit it.  A mutable set, such as the
router's free edges, is never kept: it is folded edge by edge on every
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import _kernel_py
from .grid import Edge, GridGraph, Vertex
from .model import Path

# solve_trails reads _impl.find_trail_system at each call, so a wrapper set
# on the module attribute (as a tracer does) takes effect
_impl = _kernel_py
BACKEND = "python"

FOUND = _kernel_py.FOUND


@dataclass(frozen=True)
class GraphDesc:
    """Index-level description of a grid graph for the kernel, with the
    vertex -> index, edge -> bit and step -> edge tables the wrapper looks
    up.  ``adj`` lists each vertex's (neighbour index, edge bit) entries,
    where an edge's bit is ``1 << `` its index in ``edges``; ``step`` maps
    each (index, neighbour index) step, either way, to its edge."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    adj: tuple[tuple[tuple[int, int], ...], ...]
    vindex: dict[Vertex, int] = field(compare=False, repr=False)
    ebit: dict[Edge, int] = field(compare=False, repr=False)
    step: dict[tuple[int, int], Edge] = field(compare=False, repr=False)
    reach: dict[int, tuple[int, ...]] = field(compare=False, repr=False)
    paths: dict[tuple[int, ...], Path] = field(default_factory=dict, compare=False, repr=False)
    masks: dict[frozenset[Edge], int] = field(default_factory=dict, compare=False, repr=False)

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
        reach=_kernel_py.reach_table(adj_t),
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
    status, trails, _ = _impl.find_trail_system(
        desc.adj, pairs_idx, desc.edge_mask(free_edges), 0, desc.reach
    )
    if status != FOUND:
        return None
    return [desc.path(t) for t in trails]


@dataclass(frozen=True)
class SinkDesc:
    """A grid graph's descriptor extended by a sink S fed by the exits.

    Each unrestricted exit has one directed edge to S.  With a limit, each
    restricted exit has one directed edge to a vertex R, and R has ``limit``
    edges to S (no more than there are restricted exits).  Nothing leaves S,
    and R leads only to S, so a virtual vertex can only end a trail and no
    trail passes from one exit to another.  Trails into S from distinct
    terminals are edge-disjoint, so they end at distinct exits, at most
    ``limit`` of them restricted.  An exit lists its virtual edge first, so
    a trail reaching it tries to end there before it walks on."""

    grid: GraphDesc
    adj: tuple[tuple[tuple[int, int], ...], ...]
    sink: int
    virtual: int  # mask of every virtual edge
    exit_edges: int  # mask of the exit->S and exit->R edges
    reach: dict[int, tuple[int, ...]] = field(compare=False, repr=False)


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
        reach=_kernel_py.reach_table(adj_t),
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
    status, trails, _ = _impl.find_trail_system(
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
