"""Independent exhaustive existence checker for escape plans.

oracle_solve searches the complete space of plans satisfying a contract:
it loops over subsets of pairs to link (largest first), injective exit
assignments for the remaining terminals (lexicographic by terminal then
exit), and packs edge-disjoint trails depth-first.  The first witness found
under this fixed order is returned, making the oracle deterministic.

This module is the ground truth the constructive router is measured
against; it shares no routing logic with the router.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import kernel
from .grid import GridGraph, Vertex
from .model import EscapeContract, EscapePlan, validate_plan
from .terminals import TerminalConfig


@dataclass(frozen=True)
class SearchBudget:
    """Cap on search-tree nodes; None means unlimited."""

    max_nodes: int | None = None

    @staticmethod
    def limited(n: int) -> "SearchBudget":
        if n <= 0:
            raise ValueError("max_nodes must be positive")
        return SearchBudget(n)


class BudgetExhausted(RuntimeError):
    """The node cap was hit before the search space was exhausted."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


def _exit_assignments(unlinked: list[Vertex], exits: list[Vertex], contract: EscapeContract):
    """Injective exit assignments in lexicographic order, bound respected."""
    k = len(unlinked)
    if k > len(exits):
        return
    limit = contract.max_exits_in_restricted
    for combo in itertools.permutations(exits, k):
        if limit is not None:
            if sum(1 for x in combo if x in contract.restricted_zone) > limit:
                continue
        yield combo


def oracle_solve(
    g: GridGraph,
    cfg: TerminalConfig,
    contract: EscapeContract,
    budget: SearchBudget = SearchBudget(),
) -> EscapePlan | None:
    """Exhaustive witness search; None only after the whole space is swept."""
    npairs = len(cfg.pairs)
    exits = sorted(contract.exit_target & g.vertices)
    remaining = budget.max_nodes
    spent = 0
    for size in range(npairs, contract.min_linked_pairs - 1, -1):
        for linked in itertools.combinations(range(npairs), size):
            linked_vertices = {v for i in linked for v in cfg.pairs[i]}
            unlinked = sorted(set(cfg.terminals) - linked_vertices)
            for assignment in _exit_assignments(unlinked, exits, contract):
                endpoint_pairs = [cfg.pairs[i] for i in linked] + list(
                    zip(unlinked, assignment)
                )
                if remaining is not None and remaining <= 0:
                    # spent exactly: a cap of 0 would mean unlimited to the kernel
                    raise BudgetExhausted(spent)
                cap = remaining if remaining is not None else 0
                trails, nodes, exhausted = kernel.solve_trails(
                    g, g.edges, endpoint_pairs, cap
                )
                spent += nodes
                if remaining is not None:
                    remaining -= nodes
                if exhausted:
                    raise BudgetExhausted(spent)
                if trails is not None:
                    linkages = {i: trails[j] for j, i in enumerate(linked)}
                    escapes = [
                        (t, x, trails[size + j])
                        for j, (t, x) in enumerate(zip(unlinked, assignment))
                    ]
                    plan = EscapePlan.build(linkages, escapes)
                    verdict = validate_plan(g, cfg, plan, contract)
                    assert verdict.ok, f"oracle produced invalid plan: {verdict}"
                    return plan
    return None


def check_weakly_2_linked(
    g: GridGraph,
) -> tuple[bool, tuple[Vertex, Vertex, Vertex, Vertex] | None]:
    """Exhaustively test that any two vertex pairs admit edge-disjoint trails.

    Quantifies over all ordered 4-tuples of (not necessarily distinct)
    vertices; returns the first failing tuple as a counterexample.
    """
    vertices = g.sorted_vertices()
    for u1, v1, u2, v2 in itertools.product(vertices, repeat=4):
        trails, _, _ = kernel.solve_trails(g, g.edges, [(u1, v1), (u2, v2)])
        if trails is None:
            return False, (u1, v1, u2, v2)
    return True, None


# -- Second, independent existence checker (different traversal order) -----
#
# Used to cross-check oracle completeness on small graphs: a set of edges
# forms a single a,b-trail exactly when it is connected and its odd-degree
# vertices are {a, b} (or none, for a closed trail through a).


def _subset_is_trail(g: GridGraph, edges: tuple, subset_mask: int, a: Vertex, b: Vertex) -> bool:
    chosen = [e for i, e in enumerate(edges) if (subset_mask >> i) & 1]
    if not chosen:
        return a == b
    degree: dict[Vertex, int] = {}
    for u, v in chosen:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    odd = sorted(v for v, d in degree.items() if d % 2)
    if a == b:
        if odd or a not in degree:
            return False
    elif odd != sorted((a, b)):
        return False
    # Connectivity over the chosen edges.
    verts = set(degree)
    start = next(iter(verts))
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for x, y in chosen:
            for p, q in ((x, y), (y, x)):
                if p == u and q not in seen:
                    seen.add(q)
                    frontier.append(q)
    return seen == verts


def exists_trail_system_euler(g: GridGraph, endpoint_pairs) -> bool:
    """Brute-force existence via edge-subset enumeration (ascending masks).

    Exponential in the edge count; intended for cross-checking the DFS
    kernel on small graphs only.
    """
    edges = g.sorted_edges()
    m = len(edges)
    if m > 16:
        raise ValueError("euler cross-check is restricted to small graphs")

    def place(i: int, free_mask: int) -> bool:
        if i == len(endpoint_pairs):
            return True
        a, b = endpoint_pairs[i]
        # iterate submasks of free_mask in ascending numeric order
        for candidate in range(free_mask + 1):
            if candidate & ~free_mask:
                continue
            if _subset_is_trail(g, edges, candidate, a, b):
                if place(i + 1, free_mask & ~candidate):
                    return True
        return False

    return place(0, (1 << m) - 1)
