"""Independent exhaustive existence checker for escape plans.

It has two entry points over the same subsets of pairs to link, largest
first:

* ``oracle_solve``, the lexicographic witness search, loops within each
  subset over injective exit assignments for the remaining terminals
  (lexicographic by terminal then exit) and packs edge-disjoint trails
  depth-first.  The first witness found under this fixed order is
  returned, making it deterministic.  ``route``'s non-strict fallback and
  the ``refute`` benchmark use it.
* ``any_plan``, the campaign's existence search, makes one sink search
  per subset (``kernel.escape_trails``): every escape is one trail into a
  sink fed by one edge per exit, so edge-disjointness alone keeps the
  exits distinct (and a gadget of ``limit`` edges bounds the restricted
  ones).  The first subset whose search finds trails gives the plan, with
  each escape's exit the end of its trail.  A campaign needs only whether
  a plan exists, and this skips the assignments that fail inside subsets
  that have one.

Both check every plan they return with ``validate_plan`` and raise
``InvalidWitness`` on one it rejects.

In ``oracle_solve``, a subset with terminals to escape whose first
searched assignment fails is asked once, by the same sink search, whether
any of its assignments has trails.  If none has, the rest of the subset is
skipped; if one has, the loop goes on as before.  A subset is skipped only
when its loop would find nothing, so every call that yields a witness is
made exactly as without the sink search, and witnesses stay bit-identical.

This module is the ground truth the constructive router is measured
against; it shares no routing logic with the router.

Whether edge-disjoint trails exist for a list of endpoint pairs depends
only on the multiset of its unordered pairs, not on the order of the pairs
or the direction of each.  ``check_weakly_2_linked`` uses that: it keeps,
for one call, the keys (``_pair_key``) of the tuples it has shown feasible
and skips tuples with those keys, still visiting tuples in ``product``
order.  A feasible tuple only lets the sweep go on, so every call that can
find a counterexample is made exactly as without the memo, and
counterexamples and reports stay bit-identical.
"""

from __future__ import annotations

import itertools

from . import kernel
from .grid import GridGraph, Vertex
from .model import EscapeContract, EscapePlan, validate_plan
from .terminals import TerminalConfig


def _exit_assignments(unlinked: list[Vertex], exits: list[Vertex], contract: EscapeContract):
    """Injective exit assignments in lexicographic order, bound respected."""
    limit = contract.max_exits_in_restricted
    for combo in itertools.permutations(exits, len(unlinked)):
        if limit is not None:
            if sum(1 for x in combo if x in contract.restricted_zone) > limit:
                continue
        yield combo


class InvalidWitness(RuntimeError):
    """The oracle found trails that are not what it asked for (a plan that
    fails validation, or a w2l linkage that fails its check): the kernel,
    the oracle or the validator is wrong."""


def _check_linkage(g: GridGraph, pairs, trails) -> None:
    """Raise InvalidWitness unless ``trails`` join ``pairs`` in order along
    edges of ``g``, no edge used twice.  Each edge is derived from the
    trail's vertices, not read from the edges the trail carries."""
    if len(trails) != len(pairs):
        raise InvalidWitness(f"{len(trails)} trails for {len(pairs)} pairs")
    used: set = set()
    for (a, b), trail in zip(pairs, trails):
        vs = trail.vertices
        if (vs[0], vs[-1]) != (a, b):
            raise InvalidWitness(f"trail {vs[0]}->{vs[-1]} does not join {a}-{b}")
        for u, w in zip(vs, vs[1:]):
            e = (u, w) if u < w else (w, u)
            if e not in g.edges:
                raise InvalidWitness(f"trail {vs} steps along {e}, not an edge of the graph")
            if e in used:
                raise InvalidWitness(f"edge {e} used twice in the linkage of {pairs}")
            used.add(e)


def _pair_key(pairs) -> tuple[Vertex, ...]:
    """The multiset of unordered pairs in ``pairs``: each pair's ends in
    order, the pairs sorted, flattened into one tuple of the ends."""
    return sum(sorted([(a, b) if a <= b else (b, a) for a, b in pairs]), ())


def _linked_subsets(cfg: TerminalConfig, contract: EscapeContract):
    """Every subset of pairs a plan may link, largest first and in
    ``combinations`` order within a size, as (pair indices, their pairs,
    the other terminals sorted)."""
    npairs = len(cfg.pairs)
    for size in range(npairs, contract.min_linked_pairs - 1, -1):
        for linked in itertools.combinations(range(npairs), size):
            linked_pairs = [cfg.pairs[i] for i in linked]
            linked_vertices = {v for pair in linked_pairs for v in pair}
            yield linked, linked_pairs, sorted(set(cfg.terminals) - linked_vertices)


def _checked_plan(g, cfg, contract, linked, escapes, trails) -> EscapePlan:
    """The plan whose first trails join the ``linked`` pairs and whose
    others take each (terminal, exit) of ``escapes`` out; InvalidWitness
    unless ``validate_plan`` accepts it."""
    linkages = {i: trails[j] for j, i in enumerate(linked)}
    escape_paths = [(t, x, trail) for (t, x), trail in zip(escapes, trails[len(linked) :])]
    plan = EscapePlan.build(linkages, escape_paths)
    verdict = validate_plan(g, cfg, plan, contract)
    if not verdict.ok:
        raise InvalidWitness(f"oracle produced invalid plan: {verdict}")
    return plan


def _sink_search(g, contract, exits, linked_pairs, unlinked) -> list | None:
    """The sink search's trails for one subset, under the contract's exit
    bound (``kernel.escape_trails``), or None if no assignment of the
    ``unlinked`` terminals to the exits has trails."""
    return kernel.escape_trails(
        g,
        g.edges,
        linked_pairs,
        unlinked,
        exits,
        contract.restricted_zone,
        contract.max_exits_in_restricted,
    )


def oracle_solve(
    g: GridGraph, cfg: TerminalConfig, contract: EscapeContract
) -> EscapePlan | None:
    """Exhaustive witness search; None only after the whole space is swept."""
    exits = sorted(contract.exit_target & g.vertices)
    for linked, linked_pairs, unlinked in _linked_subsets(cfg, contract):
        # with no terminal to escape, the one assignment is the subset
        sink_pending = bool(unlinked)
        for assignment in _exit_assignments(unlinked, exits, contract):
            escapes = list(zip(unlinked, assignment))
            trails = kernel.solve_trails(g, g.edges, linked_pairs + escapes)
            if trails is None:
                if sink_pending:
                    sink_pending = False
                    if _sink_search(g, contract, exits, linked_pairs, unlinked) is None:
                        break
                continue
            return _checked_plan(g, cfg, contract, linked, escapes, trails)
    return None


def any_plan(g: GridGraph, cfg: TerminalConfig, contract: EscapeContract) -> EscapePlan | None:
    """Some plan, or None only when no subset has one: one sink search per
    subset, largest first, and the first subset whose search finds trails
    gives the plan, each escape's exit the end of its trail."""
    exits = sorted(contract.exit_target & g.vertices)
    for linked, linked_pairs, unlinked in _linked_subsets(cfg, contract):
        trails = _sink_search(g, contract, exits, linked_pairs, unlinked)
        if trails is not None:
            escapes = [(t, trail.end) for t, trail in zip(unlinked, trails[len(linked) :])]
            return _checked_plan(g, cfg, contract, linked, escapes, trails)
    return None


def check_weakly_2_linked(
    g: GridGraph,
) -> tuple[bool, tuple[Vertex, Vertex, Vertex, Vertex] | None]:
    """Exhaustively test that any two vertex pairs admit edge-disjoint trails.

    Quantifies over all ordered 4-tuples of (not necessarily distinct)
    vertices; returns the first failing tuple as a counterexample.  A tuple
    whose key matches one already shown feasible is not searched again.
    Each linkage found is checked (``_check_linkage``) before its key counts
    as feasible; a bad one raises InvalidWitness.
    """
    feasible: set[tuple[Vertex, ...]] = set()
    for u1, v1, u2, v2 in itertools.product(g.sorted_vertices(), repeat=4):
        pairs = [(u1, v1), (u2, v2)]
        key = _pair_key(pairs)
        if key in feasible:
            continue
        trails = kernel.solve_trails(g, g.edges, pairs)
        if trails is None:
            return False, (u1, v1, u2, v2)
        _check_linkage(g, pairs, trails)
        feasible.add(key)
    return True, None
