"""Trail-system existence by edge-subset enumeration, independent of the kernel.

A set of edges forms one a,b-trail exactly when it is connected and its
odd-degree vertices are {a, b} (or none, with a on it, for a closed trail
through a).  Every edge subset of a graph is classified once; each endpoint
pair then takes its trails from that table, in ascending mask order.
Exponential in the edge count; a cross-check for the DFS kernel on small
graphs only.
"""

from __future__ import annotations

import functools


@functools.lru_cache(maxsize=None)
def _trails_by_ends(edges: tuple) -> dict:
    """End pair -> the masks (bit i for ``edges[i]``) of the non-empty edge
    subsets that form one trail between those ends, ascending.  A closed
    trail is listed under (v, v) for every vertex v on it.

    Vertices are bits too: a subset's odd-degree vertices are the XOR of its
    edges' end bits, and the vertices it touches their OR."""
    vertices = sorted({v for e in edges for v in e})
    ends = [1 << vertices.index(u) | 1 << vertices.index(v) for u, v in edges]
    odd = [0] * (1 << len(edges))
    touched = [0] * (1 << len(edges))
    table: dict = {}
    for mask in range(1, 1 << len(edges)):
        low = (mask & -mask).bit_length() - 1
        odd[mask] = odd[mask & (mask - 1)] ^ ends[low]
        touched[mask] = touched[mask & (mask - 1)] | ends[low]
        if odd[mask].bit_count() > 2 or _reach(ends, mask, ends[low]) != touched[mask]:
            continue
        on = [v for i, v in enumerate(vertices) if touched[mask] >> i & 1]
        odd_on = tuple(v for i, v in enumerate(vertices) if odd[mask] >> i & 1)
        for key in [odd_on] if odd_on else [(v, v) for v in on]:
            table.setdefault(key, []).append(mask)
    return table


def _reach(ends: list, mask: int, reach: int) -> int:
    """The vertex bits reachable from ``reach`` over the edges in ``mask``."""
    grown = True
    while grown:
        grown = False
        for i, e in enumerate(ends):
            if mask >> i & 1 and e & reach and e & ~reach:
                reach |= e
                grown = True
    return reach


def exists_trail_system_euler(g, endpoint_pairs) -> bool:
    """Whether edge-disjoint trails join the endpoint pairs in ``g``.

    Each pair tries its trails in ascending mask order among the edges the
    earlier pairs left; a zero-length trail (mask 0) serves a == b.
    """
    edges = g.sorted_edges()
    if len(edges) > 16:
        raise ValueError("euler cross-check is restricted to small graphs")
    table = _trails_by_ends(edges)

    def place(i: int, free_mask: int) -> bool:
        if i == len(endpoint_pairs):
            return True
        a, b = endpoint_pairs[i]
        if a == b:
            candidates = [0, *table.get((a, a), ())]
        else:
            candidates = table.get(tuple(sorted((a, b))), ())
        return any(
            not candidate & ~free_mask and place(i + 1, free_mask & ~candidate)
            for candidate in candidates
        )

    return place(0, (1 << len(edges)) - 1)
