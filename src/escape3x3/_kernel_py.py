"""The edge-disjoint trail packing kernel, in pure Python.

Given a small graph (adjacency lists over vertex indices, each entry a
neighbour and its edge's bit in the free-edge mask) and a sequence of
(start, end) endpoint pairs, finds the lexicographically first system of
pairwise edge-disjoint trails connecting every pair, by depth-first search.  Trails may revisit vertices but never
reuse an edge; a zero-length trail is allowed when start == end.

An edge may be directed: listed in the adjacency of one endpoint only, so a
trail crosses it that way alone.  Grid edges are listed at both ends.  The
sink graphs of ``kernel.sink_desc`` add directed virtual edges from exits
into a sink; nothing leaves the sink, so it can only end a trail.

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

Rows are interned: ``fill_row`` stores a row equal to one it has made
before as that same object (``_ROWS``), so masks whose rows agree share
one row.  A step whose edge changes no reachability (an edge on a cycle of
free edges, or one the memo treats as always free) leaves its child with
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
"""

from __future__ import annotations

FOUND = 1
NONE = 0

# adj -> {free-edge mask: per-vertex component bitmask}
_REACH: dict[tuple, dict[int, tuple[int, ...]]] = {}
# each distinct row of every table, keyed by itself
_ROWS: dict[tuple[int, ...], tuple[int, ...]] = {}


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


def find_trail_system(adj, pairs, mask, always_free=0, table=None):
    """Search for edge-disjoint trails joining every endpoint pair.

    adj: tuple of per-vertex tuples ((neighbor, edge bit), ...) in the order
         the search tries them (by neighbor index for a grid), where an edge
         bit is ``1 << edge_id``; pairs: tuple of (a, b) vertex indices;
         mask: bitmask of free edges; always_free: bitmask of edges the
         reachability memo treats as free (0 for grid calls); table:
         ``reach_table(adj)``, looked up here when not given.

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
    if table is None:
        table = reach_table(adj)
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
