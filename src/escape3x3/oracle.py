"""Independent exhaustive existence checker for escape plans.

oracle_solve searches the complete space of plans satisfying a contract:
it loops over subsets of pairs to link (largest first), injective exit
assignments for the remaining terminals (lexicographic by terminal then
exit), and packs edge-disjoint trails depth-first.  The first witness found
under this fixed order is returned, making the oracle deterministic.

A subset with terminals to escape whose first searched assignment fails
is asked once, by one sink search (``kernel.escapes_exist``), whether any
of its assignments has trails: every escape is one trail into a sink fed
by one edge per exit, so edge-disjointness alone keeps the exits distinct
(and a gadget of ``limit`` edges bounds the restricted ones).  If none
has, the rest of the subset is skipped; if one has, the loop goes on as
before.  A subset is skipped only when its loop would find nothing, so
every call that yields a witness is made exactly as without the sink
search, and witnesses and reports stay bit-identical.  The sink search's
refutations do not enter the ``refuted`` memo below, whose keys name
single assignments.

This module is the ground truth the constructive router is measured
against; it shares no routing logic with the router.

Whether edge-disjoint trails exist for a multiset of endpoint pairs does
not depend on the order of the pairs, on the direction of each pair, or on
a symmetry of the 3x3 square that maps the graph onto itself.  Both
exhaustive searches use that to skip kernel calls whose answer they already
have, under one canonical key (``PairKeys``):

* the symmetries of a graph are those of the eight maps of the square that
  carry its vertex set and its edge set onto themselves, detected from the
  graph (the full grid has 8, the grid without its corner 2);
* under a symmetry, pair (a, b) weighs ``1 << 3*(x*n + y)``, where ``x <= y``
  are the kernel indices (``kernel.desc_for``) of the images of a and b and
  n the vertex count, so a sum of weights counts, in one 3-bit field per
  unordered pair, how often that pair occurs (a pair occurs at most twice
  in the oracle's calls: as a linked pair or as the two escapes of its ends);
* the key of a multiset of pairs is the smallest of those sums over the
  graph's symmetries: the same for every order, direction and symmetric
  image, and different for multisets no symmetry relates.

Two memos use the key.  ``oracle_solve`` takes an optional caller-owned
``refuted`` dict, graph -> set of keys, and skips a kernel call whose key
is already refuted on that graph; every call that finds no trails adds
its key.  ``check_weakly_2_linked`` keeps, for one call,
the keys of the tuples it has shown feasible and skips their images, still
visiting tuples in ``product`` order.  Either memo skips only calls whose
answer is known and would not be used: a refuted call yields no witness,
and a feasible w2l tuple only lets the sweep go on.  So every call that
finds a witness is made exactly as before, and witnesses, counterexamples
and reports stay bit-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import kernel
from .grid import GRID_SIZE, GridGraph, Vertex
from .model import EscapeContract, EscapePlan, validate_plan
from .terminals import TerminalConfig


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


# -- Canonical keys of endpoint-pair multisets --------------------------------

# The eight symmetries of the square: flip the rows or not, flip the columns
# or not, then transpose or not.
_SQUARE_SYMMETRIES = tuple(itertools.product((False, True), repeat=3))


def _image(v: Vertex, flip_rows: bool, flip_cols: bool, transpose: bool) -> Vertex:
    r, c = v
    if flip_rows:
        r = GRID_SIZE + 1 - r
    if flip_cols:
        c = GRID_SIZE + 1 - c
    return (c, r) if transpose else (r, c)


@lru_cache(maxsize=None)
def graph_symmetries(g: GridGraph) -> tuple[dict[Vertex, Vertex], ...]:
    """The symmetries of the square that map g's vertex set and edge set
    onto themselves, each as a vertex map; the identity comes first."""
    found = []
    for sym in _SQUARE_SYMMETRIES:
        image = {v: _image(v, *sym) for v in g.vertices}
        if set(image.values()) != g.vertices:
            continue
        if {tuple(sorted((image[a], image[b]))) for a, b in g.edges} != g.edges:
            continue
        found.append(image)
    return tuple(found)


@dataclass(frozen=True, eq=False)
class PairKeys:
    """Canonical keys of multisets of endpoint pairs on one graph.
    ``weights[i][j]`` holds, per symmetry, the weight of index pair (i, j)."""

    vindex: dict[Vertex, int]
    weights: tuple[tuple[tuple[int, ...], ...], ...]
    zero: tuple[int, ...]

    def sums(self, pairs, base=None) -> tuple[int, ...]:
        """Per symmetry, the summed weight of the pairs' images, plus ``base``
        (the ``sums`` of more pairs)."""
        vindex = self.vindex
        weights = self.weights
        return tuple(
            map(
                sum,
                zip(
                    self.zero if base is None else base,
                    *[weights[vindex[a]][vindex[b]] for a, b in pairs],
                ),
            )
        )

    def key(self, pairs, base=None) -> int:
        """The key of ``pairs`` together with the pairs summed in ``base``."""
        return min(self.sums(pairs, base))


@lru_cache(maxsize=None)
def pair_keys(g: GridGraph) -> PairKeys:
    """The key tables of g, built on first use."""
    desc = kernel.desc_for(g)
    n = len(desc.vertices)
    images = [
        [desc.vindex[image[v]] for v in desc.vertices] for image in graph_symmetries(g)
    ]
    weights = tuple(
        tuple(
            tuple(1 << 3 * (min(to[i], to[j]) * n + max(to[i], to[j])) for to in images)
            for j in range(n)
        )
        for i in range(n)
    )
    return PairKeys(desc.vindex, weights, (0,) * len(images))


# -- The exhaustive searches ---------------------------------------------------


def oracle_solve(
    g: GridGraph,
    cfg: TerminalConfig,
    contract: EscapeContract,
    refuted: dict[GridGraph, set[int]] | None = None,
) -> EscapePlan | None:
    """Exhaustive witness search; None only after the whole space is swept.

    ``refuted`` maps a graph to the keys of endpoint-pair multisets already
    refuted on it; calls with a known key are skipped and new refutations
    added.  The result is the same with or without it.
    """
    npairs = len(cfg.pairs)
    exits = sorted(contract.exit_target & g.vertices)
    known = None
    if refuted is not None:
        known = refuted.setdefault(g, set())
        keys = pair_keys(g)
    for size in range(npairs, contract.min_linked_pairs - 1, -1):
        for linked in itertools.combinations(range(npairs), size):
            linked_pairs = [cfg.pairs[i] for i in linked]
            linked_vertices = {v for pair in linked_pairs for v in pair}
            unlinked = sorted(set(cfg.terminals) - linked_vertices)
            if known is not None:
                base = keys.sums(linked_pairs)
            # with no terminal to escape, the one assignment is the subset
            sink_pending = bool(unlinked)
            for assignment in _exit_assignments(unlinked, exits, contract):
                escapes = list(zip(unlinked, assignment))
                if known is not None:
                    key = keys.key(escapes, base)
                    if key in known:
                        continue
                trails = kernel.solve_trails(g, g.edges, linked_pairs + escapes)
                if trails is None:
                    if known is not None:
                        known.add(key)
                    if sink_pending:
                        sink_pending = False
                        if not kernel.escapes_exist(
                            g,
                            g.edges,
                            linked_pairs,
                            unlinked,
                            exits,
                            contract.restricted_zone,
                            contract.max_exits_in_restricted,
                        ):
                            break
                    continue
                linkages = {i: trails[j] for j, i in enumerate(linked)}
                escape_paths = [
                    (t, x, trails[size + j]) for j, (t, x) in enumerate(escapes)
                ]
                plan = EscapePlan.build(linkages, escape_paths)
                verdict = validate_plan(g, cfg, plan, contract)
                assert verdict.ok, f"oracle produced invalid plan: {verdict}"
                return plan
    return None


def check_weakly_2_linked(
    g: GridGraph,
) -> tuple[bool, tuple[Vertex, Vertex, Vertex, Vertex] | None]:
    """Exhaustively test that any two vertex pairs admit edge-disjoint trails.

    Quantifies over all ordered 4-tuples of (not necessarily distinct)
    vertices; returns the first failing tuple as a counterexample.  A tuple
    whose key matches one already shown feasible is not searched again.
    """
    keys = pair_keys(g)
    feasible: set[int] = set()
    for u1, v1, u2, v2 in itertools.product(g.sorted_vertices(), repeat=4):
        pairs = [(u1, v1), (u2, v2)]
        key = keys.key(pairs)
        if key in feasible:
            continue
        if kernel.solve_trails(g, g.edges, pairs) is None:
            return False, (u1, v1, u2, v2)
        feasible.add(key)
    return True, None
