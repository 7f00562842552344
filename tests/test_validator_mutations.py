"""Mutation check for the two validators over every strict-router plan.

Each valid plan is corrupted one step at a time, with every corrupted entry
still a valid Path, so only the one broken clause can catch it:

* drop an escape (its terminal is left unresolved);
* swap the exits of two escapes (each path ends off its stated exit);
* move an escape's terminal one step along, or onto, its path;
* move a linkage's start one step along its own trail (the moved member
  still counts as linked, and no edge is used twice);
* reroute one path, endpoints kept, through an edge another path uses;
* for bounded contracts, reroute escapes onto the free last-column stub
  vertices so the stub carries one exit more than allowed.

Both validators must reject every corruption, each naming the clause.
"""

import itertools

import pytest

from escape3x3 import kernel
from escape3x3.grid import COL_ONLY
from escape3x3.model import (
    Code,
    EscapePlan,
    Path,
    Violation,
    contract_for,
    validate_plan,
    validate_plan_recheck,
)
from escape3x3.terminals import LemmaId


def _edges_of(paths):
    return {e for p in paths for e in p.edges()}


def _through(grid, a, b, e):
    """A trail from a to b that traverses edge e, or None."""
    free = grid.edges - {e}
    for u, w in (e, e[::-1]):
        trails = kernel.solve_trails(free, [(a, u), (w, b)])
        if trails is not None:
            return trails[0] + Path((u, w)) + trails[1]
    return None


def _moved(grid, plan, escape):
    """The escape with its terminal moved one step: along its path, or onto
    it over an incident edge, one no path of the plan uses if there is one."""
    t, x, p = escape
    if len(p.vertices) != 1:
        return (p.vertices[1], x, Path(p.vertices[1:]))
    used = _edges_of(plan.all_paths())
    a, b = min((e for e in grid.edges if t in e), key=lambda e: (e in used, e))
    w = a if b == t else b
    return (w, x, Path((w, t)))


def _reuse(grid, plan, n):
    """The plan with one path rerouted, endpoints kept, through an edge of
    another path; None if no such reroute exists."""
    entries = [("link", i, p) for i, p in plan.linkages]
    entries += [("escape", k, p) for k, (_, _, p) in enumerate(plan.escapes)]
    for b in range(len(entries)):
        kind, key, path = entries[(n + b) % len(entries)]
        others = _edges_of(p for _, _, p in entries if p is not path)
        for e in sorted(others - set(path.edges())):
            rerouted = _through(grid, path.start, path.end, e)
            if rerouted is None:
                continue
            links = dict(plan.linkages)
            escapes = list(plan.escapes)
            if kind == "link":
                links[key] = rerouted
            else:
                t, x, _ = escapes[key]
                escapes[key] = (t, x, rerouted)
            return EscapePlan.build(links, escapes)
    return None


def _overfill_stub(grid, plan, bound):
    """The plan with escapes rerouted onto the free stub vertices, no edge
    reused, so the stub carries bound + 1 exits; None if impossible."""
    exits = {x for _, x, _ in plan.escapes}
    targets = sorted(COL_ONLY - exits)
    need = bound + 1 - len(COL_ONLY & exits)
    if need < 1 or need > len(targets):
        return None
    movable = [k for k, (_, x, _) in enumerate(plan.escapes) if x not in COL_ONLY]
    for chosen in itertools.combinations(movable, need):
        kept = [p for k, (_, _, p) in enumerate(plan.escapes) if k not in chosen]
        free = grid.edges - _edges_of(kept + [p for _, p in plan.linkages])
        for ends in itertools.permutations(targets, need):
            starts = [plan.escapes[k][0] for k in chosen]
            trails = kernel.solve_trails(free, list(zip(starts, ends)))
            if trails is None:
                continue
            escapes = list(plan.escapes)
            for k, z, trail in zip(chosen, ends, trails):
                escapes[k] = (escapes[k][0], z, trail)
            return EscapePlan.build(dict(plan.linkages), escapes)
    return None


def _corruptions(grid, plan, bound, n):
    """(kind, clause, corrupted plan) for each corruption the plan admits;
    ``n`` rotates which entry is hit so the sweep covers every position."""
    links = dict(plan.linkages)
    esc = list(plan.escapes)
    k = len(esc)
    if k:
        i = n % k
        yield "drop", Code.UNRESOLVED_TERMINAL, EscapePlan.build(links, esc[:i] + esc[i + 1 :])
        moved = esc[:i] + [_moved(grid, plan, esc[i])] + esc[i + 1 :]
        yield "move", Code.UNRESOLVED_TERMINAL, EscapePlan.build(links, moved)
    if k >= 2:
        i, j = n % k, (n + 1) % k
        swapped = list(esc)
        swapped[i] = (esc[i][0], esc[j][1], esc[i][2])
        swapped[j] = (esc[j][0], esc[i][1], esc[j][2])
        yield "swap", Code.BAD_ENDPOINT, EscapePlan.build(links, swapped)
    reused = _reuse(grid, plan, n)
    if reused is not None:
        yield "reuse", Code.EDGE_REUSE, reused
    if bound is not None:
        overfilled = _overfill_stub(grid, plan, bound)
        if overfilled is not None:
            yield "stub", Code.B_EXIT_BOUND, overfilled


@pytest.mark.parametrize("lemma", [LemmaId.HEAVY78, LemmaId.HEAVY6, LemmaId.HEAVY5])
def test_validators_reject_single_step_corruptions(grid, strict_sweep, lemma):
    contract = contract_for(lemma)
    bound = contract.max_exits_in_restricted
    built = dict.fromkeys(("drop", "move", "swap", "reuse", "stub"), 0)
    eligible = dict(built)
    routed = [(cfg, plan) for family, cfg, plan, _ in strict_sweep if family is lemma]
    for n, (cfg, plan) in enumerate(routed):
        k = len(plan.escapes)
        eligible["drop"] += k >= 1
        eligible["move"] += k >= 1
        eligible["swap"] += k >= 2
        eligible["reuse"] += 1
        for kind, clause, bad in _corruptions(grid, plan, bound, n):
            assert bad != plan
            built[kind] += 1
            for validate in (validate_plan, validate_plan_recheck):
                verdict = validate(grid, cfg, bad, contract)
                assert not verdict.ok, (kind, cfg, validate.__name__)
                assert clause in {v.code for v in verdict.violations}, (
                    kind,
                    cfg,
                    validate.__name__,
                )
    print(lemma.value, "corruptions built:", built)
    for kind in ("drop", "move", "swap", "reuse"):
        assert built[kind] == eligible[kind] > 0, (kind, built, eligible)
    if bound is None:
        assert built["stub"] == 0
    else:
        assert built["stub"] > 0, built


def _start_moved(plan):
    """For each linkage, the plan with that linkage's start moved one step
    along its own trail; a one-edge linkage is left at its other member."""
    links = dict(plan.linkages)
    for i, p in plan.linkages:
        yield EscapePlan.build({**links, i: Path(p.vertices[1:])}, plan.escapes)


def test_validators_reject_a_moved_linkage_start(grid, strict_sweep):
    """Every linkage of every strict plan, its start moved one step: the
    linkage-endpoint clause alone can catch it, so each validator's verdict
    names ``BAD_ENDPOINT`` and nothing else."""
    contracts = {lemma: contract_for(lemma) for lemma, *_ in strict_sweep}
    built = 0
    for lemma, cfg, plan, _ in strict_sweep:
        for bad in _start_moved(plan):
            built += 1
            for validate in (validate_plan, validate_plan_recheck):
                verdict = validate(grid, cfg, bad, contracts[lemma])
                codes = {v.code for v in verdict.violations}
                assert codes == {Code.BAD_ENDPOINT}, (cfg, bad, validate.__name__)
    assert built == 15_651


def test_validators_name_an_out_of_range_pair_index(grid, strict_sweep):
    """A linkage filed under a pair index the configuration does not have,
    one past the last or -1, is named by each validator as a
    ``BAD_ENDPOINT`` for that index, and neither raises.  The linkage filed
    anew is the last pair's, so -1, read as a Python index, would pick out
    the very pair its trail joins: only the lower bound of each validator's
    range check can catch it.  Every strict plan that links its last pair
    is taken."""
    contracts = {lemma: contract_for(lemma) for lemma, *_ in strict_sweep}
    built = 0
    for lemma, cfg, plan, _ in strict_sweep:
        last = len(cfg.pairs) - 1
        if plan.linkages[-1][0] != last:
            continue
        for key in (len(cfg.pairs), -1):
            links = {(key if i == last else i): p for i, p in plan.linkages}
            bad = EscapePlan.build(links, plan.escapes)
            built += 1
            primary = validate_plan(grid, cfg, bad, contracts[lemma]).violations
            assert Violation(Code.BAD_ENDPOINT, f"linkage references pair {key}") in primary
            recheck = validate_plan_recheck(grid, cfg, bad, contracts[lemma]).violations
            assert Violation(Code.BAD_ENDPOINT, f"linkage {key}") in recheck
    assert built == 10_776
