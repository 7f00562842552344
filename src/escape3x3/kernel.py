"""Trail-packing kernel: graph descriptors and the vertex-level wrapper.

``solve_trails`` translates vertices and edges to the indices and bitmasks
of ``desc_for`` and runs the search in ``_kernel_py``.
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
NONE = _kernel_py.NONE
BUDGET = _kernel_py.BUDGET


@dataclass(frozen=True)
class GraphDesc:
    """Index-level description of a grid graph for the kernel, with the
    vertex -> index and edge -> bit tables the wrapper looks up."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    adj: tuple[tuple[tuple[int, int], ...], ...]
    vindex: dict[Vertex, int] = field(compare=False, repr=False)
    ebit: dict[Edge, int] = field(compare=False, repr=False)

    def edge_mask(self, edges) -> int:
        ebit = self.ebit
        mask = 0
        for e in edges:
            mask |= ebit[e]
        return mask


@lru_cache(maxsize=None)
def desc_for(g: GridGraph) -> GraphDesc:
    vertices = g.sorted_vertices()
    edges = g.sorted_edges()
    vindex = {v: i for i, v in enumerate(vertices)}
    adj: list[list[tuple[int, int]]] = [[] for _ in vertices]
    for eid, (a, b) in enumerate(edges):
        adj[vindex[a]].append((vindex[b], eid))
        adj[vindex[b]].append((vindex[a], eid))
    return GraphDesc(
        vertices=vertices,
        edges=edges,
        adj=tuple(tuple(sorted(entries)) for entries in adj),
        vindex=vindex,
        ebit={e: 1 << i for i, e in enumerate(edges)},
    )


def solve_trails(
    g: GridGraph,
    free_edges,
    endpoint_pairs,
    max_nodes: int = 0,
) -> tuple[list[Path] | None, int, bool]:
    """Find edge-disjoint trails joining the endpoint pairs, in order.

    Returns (paths | None, nodes, exhausted).  Deterministic: the
    lexicographically first trail system under sorted-vertex order.
    """
    desc = desc_for(g)
    vindex = desc.vindex
    pairs_idx = tuple((vindex[a], vindex[b]) for a, b in endpoint_pairs)
    status, trails, nodes = _impl.find_trail_system(
        desc.adj, pairs_idx, desc.edge_mask(free_edges), max_nodes
    )
    if status == FOUND:
        paths = [Path(tuple(desc.vertices[i] for i in t)) for t in trails]
        return paths, nodes, False
    return None, nodes, status == BUDGET
