"""The edge-disjoint trail packing kernel, in pure Python.

Given a small graph (adjacency lists over vertex indices, edges numbered
into a bitmask) and a sequence of (start, end) endpoint pairs, finds the
lexicographically first system of pairwise edge-disjoint trails connecting
every pair, by depth-first search.  Trails may revisit vertices but never
reuse an edge; a zero-length trail is allowed when start == end.

An edge may be directed: listed in the adjacency of one endpoint only, so a
trail crosses it that way alone.  Grid edges are listed at both ends.  The
sink graphs of ``kernel.sink_desc`` add directed virtual edges from exits
into a sink; nothing leaves the sink, so it can only end a trail.

The search prunes with reachability over the still-free edges: a node
returns at once if the current trail cannot reach its end, or the ends of a
later pair are cut apart.  The free mask only shrinks below a node, so such
a pair stays cut apart in the whole subtree: pruning drops only subtrees
without a trail system and keeps the first one in depth-first order.
Instead of a graph search per query, reachability is read from a
module-level memo keyed by the adjacency tuple: for each free-edge mask it
holds one row giving, per vertex, a bitmask holding every vertex it
reaches (with directed edges, possibly more).  A row is filled lazily, all
vertices in one pass, the first time its mask is seen; nothing is built at
import.  A call may name edges the memo treats as always free: rows are
looked up under the free mask with those edges added, and such rows can
only over-estimate reachability, so pruning stays sound.  The memo is
bounded: every grid graph is a subgraph of the 3x3 grid, with at most 12
edges, and a sink graph's rows are keyed with its exit edges always free,
so its table has at most 2^(12 + number of R->S edges) rows.
"""

from __future__ import annotations

FOUND = 1
NONE = 0
BUDGET = -1

# adj -> {free-edge mask: per-vertex component bitmask}
_REACH: dict[tuple, dict[int, tuple[int, ...]]] = {}


def reach_table(adj) -> dict[int, tuple[int, ...]]:
    """The memo of reachability rows for ``adj``, created empty on first use."""
    table = _REACH.get(adj)
    if table is None:
        table = _REACH[adj] = {}
    return table


def fill_row(adj, table: dict, m: int) -> tuple[int, ...]:
    """Compute, store and return the row of ``table`` for free-edge mask
    ``m``: for each vertex, a bitmask holding every vertex it reaches.

    Each search's reached set is stored for all the vertices in it: exact
    where every edge is undirected, and possibly more than a vertex reaches
    when it is entered by a directed edge."""
    n = len(adj)
    row = [0] * n
    for src in range(n):
        if row[src]:
            continue
        seen = 1 << src
        stack = [src]
        while stack:
            u = stack.pop()
            for w, eid in adj[u]:
                if (m >> eid) & 1 and not (seen >> w) & 1:
                    seen |= 1 << w
                    stack.append(w)
        for v in range(src, n):
            if (seen >> v) & 1:
                row[v] = seen
    table[m] = out = tuple(row)
    return out


def find_trail_system(adj, pairs, mask, max_nodes=0, always_free=0):
    """Search for edge-disjoint trails joining every endpoint pair.

    adj: tuple of per-vertex tuples ((neighbor, edge_id), ...) in the order
         the search tries them (by neighbor index for a grid); pairs: tuple
         of (a, b) vertex indices; mask: bitmask of free edge ids;
         max_nodes: 0 for unlimited; always_free: bitmask of edges the
         reachability memo treats as free (0 for grid calls).

    Returns (status, trails, nodes) where trails is a tuple of vertex-index
    tuples when status == FOUND.
    """
    k = len(pairs)
    trails: list = [None] * k
    state = [0, False]  # nodes, exhausted
    table = reach_table(adj)

    def extend(i: int, m: int, path: list, cur: int) -> bool:
        if max_nodes and state[0] >= max_nodes:
            state[1] = True
            return False
        state[0] += 1
        b = pairs[i][1]
        row = table.get(m | always_free)
        if row is None:
            row = fill_row(adj, table, m | always_free)
        for j in range(i + 1, k):
            a, c = pairs[j]
            if a != c and not (row[a] >> c) & 1:
                return False
        if cur == b:
            trails[i] = tuple(path)
            if i + 1 == k:
                return True
            if extend(i + 1, m, [pairs[i + 1][0]], pairs[i + 1][0]):
                return True
            trails[i] = None
            if state[1]:
                return False
        if not (row[cur] >> b) & 1:
            return False
        for w, eid in adj[cur]:
            if (m >> eid) & 1:
                path.append(w)
                if extend(i, m & ~(1 << eid), path, w):
                    return True
                path.pop()
                if state[1]:
                    return False
        return False

    if k == 0:
        return FOUND, (), 0
    ok = extend(0, mask, [pairs[0][0]], pairs[0][0])
    if ok:
        return FOUND, tuple(trails), state[0]
    return (BUDGET if state[1] else NONE), None, state[0]
