import hashlib
import itertools

import pytest
from test_validator_mutations import _corruptions

from escape3x3 import kernel
from escape3x3.grid import BOUNDARY, ROW_ONLY, full_grid, grid_without_corner
from escape3x3.model import (
    Code,
    EscapeContract,
    EscapePlan,
    Path,
    PathError,
    contract_for,
    path_of,
    reflected_plan,
    validate_plan,
    validate_plan_recheck,
)
from escape3x3.terminals import LemmaId, make_config


def test_path_requires_grid_steps():
    with pytest.raises(PathError):
        path_of((1, 1), (2, 2))


def test_path_rejects_edge_reuse():
    with pytest.raises(PathError):
        path_of((1, 1), (1, 2), (1, 1), (1, 2))


def test_path_allows_vertex_revisit():
    p = path_of((1, 2), (1, 1), (2, 1), (2, 2), (1, 2), (1, 3))
    assert p.start == (1, 2) and p.end == (1, 3)


def test_path_keeps_canonical_edges_in_walk_order():
    p = path_of((1, 2), (1, 1), (2, 1), (2, 2))
    assert p.edges() == [((1, 1), (1, 2)), ((1, 1), (2, 1)), ((2, 1), (2, 2))]
    p.edges().clear()  # each call hands out a fresh list
    assert len(p.edges()) == 3
    assert p == Path(p.vertices) and hash(p) == hash(Path(p.vertices))
    # steps off the corner grid take the same checks
    assert path_of((3, 4), (3, 3), (4, 3)).edges() == [((3, 3), (3, 4)), ((3, 3), (4, 3))]
    with pytest.raises(PathError):
        path_of((1, 4), (1, 5), (1, 4))
    with pytest.raises(PathError):
        path_of((4, 4), (5, 5))


def test_joined_path_keeps_both_halves():
    left = path_of((1, 2), (1, 1), (2, 1))
    right = path_of((2, 1), (2, 2), (1, 2), (1, 3))
    joined = left + right
    assert joined == Path(left.vertices + right.vertices[1:])
    assert joined.edges() == left.edges() + right.edges()
    assert left + path_of((2, 1)) == left
    with pytest.raises(PathError, match="cannot join"):
        left + path_of((2, 2), (2, 3))
    # the right half is a trail (a cycle) but shares two edges with the left
    with pytest.raises(PathError, match="traversed twice"):
        left + path_of((2, 1), (2, 2), (1, 2), (1, 1), (2, 1))


def test_join_with_a_zero_length_half_builds_nothing():
    trail = path_of((1, 2), (1, 1), (2, 1))
    assert trail + path_of((2, 1)) is trail
    assert path_of((1, 2)) + trail is trail
    stay = path_of((2, 2))
    assert stay + path_of((2, 2)) == stay and stay.reversed() is stay
    with pytest.raises(PathError, match="cannot join"):
        trail + path_of((2, 2))


def test_path_rejects_a_malformed_vertex():
    """A vertex that is not a tuple of two ints is a ``PathError``, on a
    one-vertex path and on a step off the corner grid's step table; a step
    beyond the grid between well-formed vertices is still a path."""
    for vertices in ((5,), ((1, 1, 1),), ((1, True),), (5, 6), ((0, 0), 5), ((0, 0), (0, 1.0))):
        with pytest.raises(PathError, match="is not a vertex$"):
            Path(vertices)
    assert Path(((0, 0), (0, 1))).edges() == [((0, 0), (0, 1))]


def test_path_rejects_a_coordinate_equal_to_an_int_on_the_grid():
    """A bool, a float or an int subclass equal to a grid coordinate finds
    that coordinate's step in the corner grid's step table, and is still a
    ``PathError``, at either end of any step and on a path of one step or
    more; the same vertices as ints are a path."""

    class Coordinate(int):
        pass

    for bad in (True, 1.0, Coordinate(1)):
        for vertices in (
            ((bad, 1), (1, 2)),
            ((1, 2), (bad, 1)),
            ((1, 2), (1, 1), (2, bad)),
            ((2, 2), (1, 2), (bad, 1), (2, 1)),
        ):
            with pytest.raises(PathError, match="is not a vertex$"):
                Path(vertices)
    assert Path(((1, 1), (1, 2))).vertices == ((1, 1), (1, 2))
    with pytest.raises(PathError, match="is not a vertex$"):
        Path(((1, 1), (1, 2), (1, 3, 0)))


def test_path_rejects_a_malformed_vertex_sequence():
    """Vertices given as lists, which the step table cannot look up, and a
    vertex sequence that is not a tuple are a ``PathError``, not a bare
    ``TypeError``."""
    for vertices in (([1, 1], [1, 2]), ((1, 1), [1, 2]), (([1], 1), (1, 2))):
        with pytest.raises(PathError, match="is not a vertex$"):
            Path(vertices)
    for vertices in (5, None, [(1, 1), (1, 2)], "ab"):
        with pytest.raises(PathError, match="is not a tuple of vertices$"):
            Path(vertices)


def test_path_ends_are_its_first_and_last_vertices(grid, strict_sweep):
    """``start`` and ``end`` are set by every constructor: the checked one,
    ``GraphDesc.path``, ``reversed``, ``reflected`` and ``__add__``.  Every
    path of the strict sweep's plans is checked, with its reversal, its
    reflection and the join of its first step with the rest."""

    def check(p):
        assert (p.start, p.end) == (p.vertices[0], p.vertices[-1]), p

    for _, _, plan, _ in strict_sweep:
        for p in plan.all_paths():
            check(p)
            check(p.reversed())
            check(p.reflected())
            if len(p.vertices) > 2:
                head, tail = Path(p.vertices[:2]), Path(p.vertices[1:])
                joined = head + tail
                assert joined == p
                check(joined)
    desc = kernel.desc_for(grid)
    trail = desc.path(tuple(desc.vindex[v] for v in ((1, 1), (1, 2), (2, 2))))
    assert (trail.start, trail.end) == ((1, 1), (2, 2))
    checked = path_of((3, 1), (2, 1), (2, 2))
    assert (checked.start, checked.end) == ((3, 1), (2, 2))


def test_zero_length_path():
    p = path_of((2, 3))
    assert len(p.vertices) == 1
    assert p.edges() == []


def test_contract_for_returns_one_shared_contract():
    for lemma in (LemmaId.HEAVY78, LemmaId.HEAVY6, LemmaId.HEAVY5):
        assert contract_for(lemma) is contract_for(lemma)
    assert contract_for(LemmaId.HEAVY6) == contract_for(LemmaId.HEAVY5)


def test_contracts():
    c78 = contract_for(LemmaId.HEAVY78)
    assert c78.min_linked_pairs == 2
    assert c78.max_exits_in_restricted is None
    c6 = contract_for(LemmaId.HEAVY6)
    assert c6.min_linked_pairs == 1
    assert c6.max_exits_in_restricted == 1
    c5 = contract_for(LemmaId.HEAVY5)
    assert c5.min_linked_pairs == 1
    assert c5.max_exits_in_restricted == 1
    with pytest.raises(ValueError):
        contract_for(LemmaId.W2L)


def _sample_heavy5():
    # pair linked on a single edge, three in-place escapes
    cfg = make_config([((1, 1), (1, 2))], [(3, 1), (3, 2), (1, 3)])
    plan = EscapePlan.build(
        {0: path_of((1, 1), (1, 2))},
        [
            ((3, 1), (3, 1), path_of((3, 1))),
            ((3, 2), (3, 2), path_of((3, 2))),
            ((1, 3), (1, 3), path_of((1, 3))),
        ],
    )
    return cfg, plan


def test_validate_accepts_trivial_plan(grid):
    cfg, plan = _sample_heavy5()
    verdict = validate_plan(grid, cfg, plan, contract_for(LemmaId.HEAVY5))
    assert verdict.ok
    assert validate_plan_recheck(grid, cfg, plan, contract_for(LemmaId.HEAVY5)).ok


def test_validate_detects_edge_reuse(grid):
    cfg = make_config(
        [((3, 1), (3, 3)), ((2, 3), (3, 2))], [(1, 1), (1, 2)]
    )
    shared = path_of((3, 2), (3, 3))
    plan = EscapePlan.build(
        {0: path_of((3, 1), (3, 2), (3, 3))},
        [
            ((2, 3), (2, 3), path_of((2, 3))),
            ((3, 2), (3, 3), shared),
            ((1, 1), (3, 1), path_of((1, 1), (2, 1), (3, 1))),
            ((1, 2), (1, 3), path_of((1, 2), (1, 3))),
        ],
    )
    verdict = validate_plan(grid, cfg, plan, contract_for(LemmaId.HEAVY6))
    assert not verdict.ok
    assert any(v.code is Code.EDGE_REUSE for v in verdict.violations)


def test_validate_detects_col_bound(grid):
    cfg = make_config([((3, 1), (3, 2))], [(1, 3), (2, 3), (1, 1)])
    plan = EscapePlan.build(
        {0: path_of((3, 1), (3, 2))},
        [
            ((1, 3), (1, 3), path_of((1, 3))),
            ((2, 3), (2, 3), path_of((2, 3))),
            ((1, 1), (2, 1), path_of((1, 1), (2, 1))),
        ],
    )
    verdict = validate_plan(grid, cfg, plan, contract_for(LemmaId.HEAVY5))
    codes = {v.code for v in verdict.violations}
    assert Code.B_EXIT_BOUND in codes
    # (2,1) is not a boundary vertex either
    assert Code.BAD_ENDPOINT in codes


def test_validate_detects_exit_collision(grid):
    cfg = make_config([((3, 1), (3, 2))], [(1, 1), (2, 1), (1, 3)])
    plan = EscapePlan.build(
        {0: path_of((3, 1), (3, 2))},
        [
            ((1, 1), (3, 1), path_of((1, 1), (2, 1), (3, 1))),
            ((2, 1), (3, 1), path_of((2, 1), (2, 2), (3, 2), (3, 1))),
            ((1, 3), (1, 3), path_of((1, 3))),
        ],
    )
    verdict = validate_plan(grid, cfg, plan, contract_for(LemmaId.HEAVY5))
    assert any(v.code is Code.EXIT_COLLISION for v in verdict.violations)


def test_validate_detects_unresolved_and_link_count(grid):
    cfg = make_config([((1, 1), (2, 2)), ((3, 1), (3, 3))], [(1, 3), (2, 3)])
    plan = EscapePlan.build({0: path_of((1, 1), (1, 2), (2, 2))}, [])
    verdict = validate_plan(grid, cfg, plan, contract_for(LemmaId.HEAVY6))
    codes = {v.code for v in verdict.violations}
    assert Code.UNRESOLVED_TERMINAL in codes
    # one linkage satisfies the six-terminal contract, so no LINK_COUNT
    assert Code.LINK_COUNT not in codes
    verdict78 = validate_plan(grid, cfg, plan, contract_for(LemmaId.HEAVY78))
    assert any(v.code is Code.LINK_COUNT for v in verdict78.violations)


def test_validate_detects_missing_edge():
    g = full_grid()
    from escape3x3.grid import build_corner_grid

    deleted = build_corner_grid(frozenset({(2, 2)}))
    cfg = make_config([((1, 1), (1, 2))], [(3, 1), (3, 2), (1, 3)])
    plan = EscapePlan.build(
        {0: path_of((1, 1), (1, 2))},
        [
            ((3, 1), (3, 1), path_of((3, 1))),
            ((3, 2), (3, 3), path_of((3, 2), (2, 2), (2, 3), (3, 3))),
            ((1, 3), (1, 3), path_of((1, 3))),
        ],
    )
    assert validate_plan(g, cfg, plan, contract_for(LemmaId.HEAVY5)).ok
    verdict = validate_plan(deleted, cfg, plan, contract_for(LemmaId.HEAVY5))
    assert any(v.code is Code.NOT_A_PATH for v in verdict.violations)


def test_validators_agree_on_bad_plans(grid):
    cfg, plan = _sample_heavy5()
    bad = EscapePlan.build({}, list(plan.escapes))
    v1 = validate_plan(grid, cfg, bad, contract_for(LemmaId.HEAVY5))
    v2 = validate_plan_recheck(grid, cfg, bad, contract_for(LemmaId.HEAVY5))
    assert v1.ok == v2.ok == False  # noqa: E712


def _h6_sample():
    from escape3x3.terminals import LemmaId as L
    from escape3x3.terminals import enumerate_configs

    return list(enumerate_configs(L.HEAVY6))[::173]


def test_validators_agree_on_corrupted_plans(grid):
    """Dropping any single escape from a valid plan must flip both verdicts."""
    from escape3x3.router import route

    contract = contract_for(LemmaId.HEAVY6)
    for cfg in _h6_sample():
        plan, _ = route(cfg, strict=True)
        for k in range(len(plan.escapes)):
            broken = EscapePlan(
                linkages=plan.linkages,
                escapes=plan.escapes[:k] + plan.escapes[k + 1 :],
            )
            v1 = validate_plan(grid, cfg, broken, contract)
            v2 = validate_plan_recheck(grid, cfg, broken, contract)
            assert not v1.ok and not v2.ok
            assert any(v.code is Code.UNRESOLVED_TERMINAL for v in v1.violations)


def test_validators_agree_on_duplicated_exits(grid):
    from escape3x3.router import route

    contract = contract_for(LemmaId.HEAVY6)
    for cfg in _h6_sample():
        plan, _ = route(cfg, strict=True)
        if len(plan.escapes) < 2:
            continue
        t0, x0, p0 = plan.escapes[0]
        t1, _, _ = plan.escapes[1]
        if t1 == x0:
            continue
        forged = (t1, x0, None)
        # reroute the second escape onto the first exit, if a path exists
        from escape3x3 import kernel

        used = set()
        for p in plan.all_paths():
            used.update(p.edges())
        free = set(grid.edges) - used
        trails = kernel.solve_trails(grid, free, [(t1, x0)])
        if trails is None:
            continue
        escapes = (plan.escapes[0], (t1, x0, trails[0])) + plan.escapes[2:]
        broken = EscapePlan(linkages=plan.linkages, escapes=tuple(sorted(escapes)))
        v1 = validate_plan(grid, cfg, broken, contract)
        v2 = validate_plan_recheck(grid, cfg, broken, contract)
        assert not v1.ok and not v2.ok
        assert any(v.code is Code.EXIT_COLLISION for v in v1.violations)


def test_reflected_plan_is_valid_for_reflected_config(grid):
    cfg, plan = _sample_heavy5()
    rcfg = cfg.reflected()
    rplan = reflected_plan(cfg, plan)
    contract = contract_for(LemmaId.HEAVY5)
    rcontract = EscapeContract(
        contract.min_linked_pairs,
        contract.exit_target,
        contract.max_exits_in_restricted,
        ROW_ONLY,
    )
    assert validate_plan(grid, rcfg, rplan, rcontract).ok


def test_reflected_plan_reflects_back_to_the_plan(strict_sweep):
    """Reflecting every strict plan across the diagonal and reflecting the
    image back, each for its own configuration, gives the plan back: the
    same linkages under the same pair indices, and the same escapes."""
    for _, cfg, plan, _ in strict_sweep:
        image = reflected_plan(cfg, plan)
        assert reflected_plan(cfg.reflected(), image) == plan, cfg


def _off_clause_corruptions(cfg, plan, contract):
    """Corrupted copies of a valid plan, each breaking a clause the
    single-step mutations leave alone; every trail is still a Path."""
    links, escapes = plan.linkages, plan.escapes
    if links:
        i, p = links[0]
        for bad in (len(cfg.pairs), -1):
            yield EscapePlan(((bad, p),) + links[1:], escapes)
        a = cfg.pairs[i][0]
        yield EscapePlan(links, tuple(sorted(escapes + ((a, a, path_of(a)),))))
    yield EscapePlan(links[: contract.min_linked_pairs - 1], escapes)
    if escapes:
        t, x, p = escapes[0]
        yield EscapePlan(links, tuple(sorted(escapes + (escapes[0],))))
        if t != x and t in BOUNDARY:
            yield EscapePlan(links, tuple(sorted(escapes + ((t, t, path_of(t)),))))
        if len(p.vertices) != 1:
            yield EscapePlan(links, ((t, x, Path(p.vertices[1:])),) + escapes[1:])
    for k, (t, x, p) in enumerate(escapes):
        inner = [n for n, v in enumerate(p.vertices) if v not in BOUNDARY]
        if inner:
            n = inner[0]
            cut = (t, p.vertices[n], Path(p.vertices[: n + 1]))
            yield EscapePlan(links, escapes[:k] + (cut,) + escapes[k + 1 :])
            break


def test_failing_verdicts_are_pinned(grid, strict_sweep):
    """Both validators' full explanation of a fixed corpus of corrupted
    plans, hashed: the single-step mutations of every seventh strict plan,
    and hand-built breaks of every 49th (an out-of-range linkage index, an
    escape entry for a linked terminal, too few linkages, a terminal
    escaping twice, an escape path off its terminal, an exit off the
    boundary).  Plans whose paths step on the far corner are also checked
    on the grid without it, where those edges are missing."""
    star = grid_without_corner()
    corpus = []
    for n, (lemma, cfg, plan, _) in enumerate(strict_sweep):
        if n % 7:
            continue
        contract = contract_for(lemma)
        bound = contract.max_exits_in_restricted
        bad_plans = [bad for _, _, bad in _corruptions(grid, plan, bound, n)]
        if n % 49 == 0:
            bad_plans += _off_clause_corruptions(cfg, plan, contract)
        corpus += [(grid, cfg, bad, contract) for bad in bad_plans]
        walked = {e for p in plan.all_paths() for e in p.edges()}
        if n % 49 == 0 and not star.edges.issuperset(walked):
            corpus.append((star, cfg, plan, contract))
    digest = hashlib.sha256()
    for g, cfg, plan, contract in corpus:
        for validate in (validate_plan, validate_plan_recheck):
            verdict = validate(g, cfg, plan, contract)
            assert not verdict.ok, (cfg, plan, validate.__name__)
            explained = [(v.code.value, v.message) for v in verdict.violations]
            digest.update(repr(explained).encode())
    assert len(corpus) == 7545
    assert digest.hexdigest() == (
        "777c6bee89fbc3a5cf08c1f99939e362bc7d05d3657ff7c4b8fc47706e078810"
    )


def test_validators_reject_a_pair_linked_twice(grid, strict_sweep):
    """A plan that lists a pair index twice is rejected by both validators,
    whichever of the two trails comes first, with BAD_ENDPOINT naming the
    index.  On the first strict heavy78 plan the extra trail is junk over an
    edge no path uses; on the fourth, whose third pair has a second trail
    over such edges, it is that trail, so both entries join the pair."""
    contract = contract_for(LemmaId.HEAVY78)
    cases = []
    for _, cfg, plan, _ in (strict_sweep[0], strict_sweep[3]):
        free = grid.edges - {e for p in plan.all_paths() for e in p.edges()}
        for i, _ in plan.linkages:
            extras = [Path(min(free)), *(kernel.solve_trails(grid, free, [cfg.pairs[i]]) or ())]
            cases += [(cfg, plan, i, extra) for extra in extras]
    assert any({t.start, t.end} == set(cfg.pairs[i]) for cfg, _, i, t in cases)
    for (cfg, plan, i, extra), first in itertools.product(cases, (True, False)):
        entry = ((i, extra),)
        linkages = entry + plan.linkages if first else plan.linkages + entry
        twice = EscapePlan(linkages, plan.escapes)
        v1 = validate_plan(grid, cfg, twice, contract)
        assert not v1.ok
        assert any(
            v.code is Code.BAD_ENDPOINT and v.message == f"pair {i} linked 2 times"
            for v in v1.violations
        )
        v2 = validate_plan_recheck(grid, cfg, twice, contract)
        assert not v2.ok
        assert any(
            v.code is Code.BAD_ENDPOINT and f"linkage {i}" in v.message for v in v2.violations
        )


def test_validators_reject_too_few_linkages_alone(grid):
    """A heavy78 plan that links one pair and escapes the other five
    terminals to the five boundary exits breaks only the two-linkage
    clause: both validators name LINK_COUNT alone, and both accept the plan
    under a contract that asks for one linkage."""
    cfg = make_config([((1, 1), (1, 2)), ((1, 3), (2, 1)), ((2, 2), (2, 3))], [(3, 1)])
    plan = EscapePlan.build(
        {0: path_of((1, 1), (1, 2))},
        [
            ((1, 3), (1, 3), path_of((1, 3))),
            ((2, 1), (2, 3), path_of((2, 1), (2, 2), (1, 2), (1, 3), (2, 3))),
            ((2, 2), (3, 2), path_of((2, 2), (3, 2))),
            ((2, 3), (3, 3), path_of((2, 3), (3, 3))),
            ((3, 1), (3, 1), path_of((3, 1))),
        ],
    )
    one = EscapeContract(1, BOUNDARY, None)
    for validate in (validate_plan, validate_plan_recheck):
        verdict = validate(grid, cfg, plan, contract_for(LemmaId.HEAVY78))
        assert [v.code for v in verdict.violations] == [Code.LINK_COUNT]
        assert validate(grid, cfg, plan, one).ok
