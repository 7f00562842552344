import hashlib
import itertools
import json
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escape3x3 import campaign, kernel, oracle
from escape3x3.grid import (
    BOUNDARY,
    COL_ONLY,
    GridGraph,
    build_corner_grid,
    full_grid,
    grid_without_corner,
)
from escape3x3.model import (
    Code,
    EscapeContract,
    Path,
    Verdict,
    Violation,
    contract_for,
    plan_to_json,
    validate_plan,
    validate_plan_recheck,
)
from escape3x3.oracle import InvalidWitness, check_weakly_2_linked, oracle_solve
from escape3x3.terminals import LemmaId, encode_config, enumerate_configs, make_config
from euler_trails import exists_trail_system_euler
from test_strict_sweep import DIGEST_CHARS, REFERENCE, _digest, assert_checked


def test_weakly_2_linked_full_grid(grid):
    ok, witness = check_weakly_2_linked(grid)
    assert ok and witness is None


def test_weakly_2_linked_without_corner(grid_star):
    ok, witness = check_weakly_2_linked(grid_star)
    assert ok and witness is None


def test_double_deletion_not_weakly_2_linked():
    g = build_corner_grid(frozenset({(2, 2), (3, 3)}))
    ok, witness = check_weakly_2_linked(g)
    assert not ok
    assert witness is not None
    # the two corner-to-corner routes collapse to one: this tuple must fail
    assert kernel.solve_trails(g.edges, [((1, 3), (3, 1)), ((3, 1), (1, 3))]) is None
    # the first failing tuple in product order, pinned per deleted set
    first_failures = {
        ((2, 2), (3, 3)): ((1, 1), (1, 2), (1, 1), (1, 2)),
        ((1, 1), (3, 3)): ((1, 2), (2, 3), (1, 3), (2, 1)),
        ((2, 2),): ((1, 1), (1, 3), (1, 2), (2, 1)),
        ((1, 2),): ((1, 1), (1, 3), (1, 1), (1, 3)),
    }
    for deleted, first in first_failures.items():
        assert check_weakly_2_linked(build_corner_grid(frozenset(deleted))) == (
            False,
            first,
        )


def test_adjacent_pair_and_boundary_singletons_solve_trivially(grid):
    cfg = make_config([((1, 1), (1, 2))], [(3, 1), (3, 2), (1, 3)])
    plan = oracle_solve(grid, cfg, contract_for(LemmaId.HEAVY5))
    assert plan is not None
    linkage = dict(plan.linkages)[0]
    assert len(linkage.vertices) == 2
    assert all(len(p.vertices) == 1 for _, _, p in plan.escapes)


def test_pigeonhole_none(grid):
    contract = EscapeContract(
        min_linked_pairs=0,
        exit_target=frozenset({(3, 1), (3, 2), (3, 3)}),
        max_exits_in_restricted=None,
    )
    cfg = make_config([], [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert oracle_solve(grid, cfg, contract) is None


def test_oracle_returns_validated_plans(grid):
    contract = contract_for(LemmaId.HEAVY6)
    cfg = make_config([((1, 1), (3, 3)), ((1, 3), (3, 1))], [(2, 2), (2, 3)])
    plan = oracle_solve(grid, cfg, contract)
    assert plan is not None
    assert validate_plan(grid, cfg, plan, contract).ok


def test_oracle_deterministic(grid):
    contract = contract_for(LemmaId.HEAVY6)
    cfg = make_config([((1, 2), (2, 1)), ((2, 2), (1, 1))], [(1, 3), (2, 3)])
    assert oracle_solve(grid, cfg, contract) == oracle_solve(grid, cfg, contract)


def test_oracle_raises_on_a_witness_that_fails_validation(grid, monkeypatch):
    """The oracle's check of its own witness is no ``assert``, so it holds
    under ``python -O`` too."""
    broken = Verdict((Violation(Code.LINK_COUNT, "stub"),))
    monkeypatch.setattr(oracle, "validate_plan", lambda *args: broken)
    cfg = make_config([((1, 1), (1, 2))], [(3, 1), (3, 2), (1, 3)])
    with pytest.raises(InvalidWitness):
        oracle_solve(grid, cfg, contract_for(LemmaId.HEAVY5))
    assert not issubclass(InvalidWitness, AssertionError)


def test_oracle_prefers_more_linked_pairs(grid):
    # both pairs are linkable, so the maximal subset must be linked
    cfg = make_config([((1, 1), (1, 2)), ((3, 1), (3, 2))], [(1, 3), (2, 2)])
    plan = oracle_solve(grid, cfg, contract_for(LemmaId.HEAVY6))
    assert len(plan.linkages) == 2


def _sum_filtered_assignments(unlinked, exits, contract):
    """The exit assignments as the oracle first made them: every injective
    assignment in ``permutations`` order, those with more restricted exits
    than the bound counted out one exit at a time."""
    limit = contract.max_exits_in_restricted
    for combo in itertools.permutations(exits, len(unlinked)):
        if limit is not None:
            if sum(1 for x in combo if x in contract.restricted_zone) > limit:
                continue
        yield combo


_ASSIGNMENT_CONTRACTS = {
    **{lemma.name: contract_for(lemma) for lemma in (LemmaId.HEAVY78, LemmaId.HEAVY6, LemmaId.HEAVY5)},
    "bound-0": EscapeContract(1, BOUNDARY, 0),
    "bound-2": EscapeContract(1, BOUNDARY, 2),
}


@pytest.mark.parametrize("name", list(_ASSIGNMENT_CONTRACTS))
def test_exit_assignments_keep_the_sum_filter_order(grid, name):
    """The zone-intersection bound yields exactly the assignments, in
    exactly the order, of the per-exit count it replaced, for 0-5 terminals
    to escape under each family's contract and two other bounds."""
    contract = _ASSIGNMENT_CONTRACTS[name]
    exits = sorted(contract.exit_target & grid.vertices)
    for n in range(6):
        unlinked = grid.sorted_vertices()[:n]
        expected = list(_sum_filtered_assignments(unlinked, exits, contract))
        assert list(oracle._exit_assignments(unlinked, exits, contract)) == expected, n


def _recording_search(calls):
    """A stand-in for ``kernel.find_trail_system`` that appends each
    call to ``calls`` as (always-free mask, status, nodes): the mask is 0
    for a grid call and nonzero for a sink search."""
    find = kernel.find_trail_system

    def recording(*args):
        out = find(*args)
        calls.append((args[3], out[0], out[2]))
        return out

    return recording


@pytest.fixture
def search_calls(monkeypatch):
    """Every kernel search the test makes, as recorded by ``_recording_search``."""
    calls = []
    monkeypatch.setattr(kernel, "find_trail_system", _recording_search(calls))
    return calls


# A heavy78 configuration whose plan takes three kernel searches (see
# test_oracle_budget_spent_exactly_stops_search).
_THREE_CALL_CFG = make_config([((1, 1), (2, 1)), ((1, 2), (2, 2)), ((1, 3), (2, 3))], [(3, 1)])


def test_oracle_budget_spent_exactly_stops_search(grid, search_calls):
    """The plan of ``_THREE_CALL_CFG`` takes three kernel searches: the first
    assignment fails after exactly 59 nodes, the sink search that follows
    finds the subset feasible in 47, and the second assignment gives the
    plan in 34."""
    assert oracle_solve(grid, _THREE_CALL_CFG, contract_for(LemmaId.HEAVY78)) is not None
    assert [(bool(free), status, nodes) for free, status, nodes in search_calls] == [
        (False, kernel.NONE, 59),
        (True, kernel.FOUND, 47),
        (False, kernel.FOUND, 34),
    ]


def test_sink_refutation_adds_nothing_to_the_memo(grid, search_calls):
    """An infeasible configuration whose one subset is refuted by two
    searches: its first assignment fails in 58 nodes, and the sink search
    that follows fails in 427, so no other assignment is searched."""
    cfg = make_config([((1, 1), (3, 1))], [(1, 2), (1, 3), (2, 1), (2, 2)])
    assert oracle_solve(grid, cfg, contract_for(LemmaId.HEAVY6)) is None
    assert [(bool(free), status, nodes) for free, status, nodes in search_calls] == [
        (False, kernel.NONE, 58),
        (True, kernel.NONE, 427),
    ]


@pytest.fixture(scope="module")
def refute_sweep(grid):
    """The oracle on every one-pair heavy6 configuration of the extended
    enumeration, in enumeration order, run once per module:
    (configurations, plans, kernel calls).  Each kernel call is recorded as
    (always-free mask, status, nodes) at ``kernel.find_trail_system``;
    the mask is 0 for an assignment call and nonzero for a sink search."""
    contract = contract_for(LemmaId.HEAVY6)
    cfgs = [c for c in enumerate_configs(LemmaId.HEAVY6, extended=True) if len(c.pairs) == 1]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "find_trail_system", _recording_search(calls))
        plans = [oracle_solve(grid, cfg, contract) for cfg in cfgs]
    return cfgs, plans, calls


def test_refute_witnesses_match_reference_digests(grid, refute_sweep):
    """The oracle's plan for every one-pair heavy6 configuration of the
    extended enumeration, in enumeration order, is pinned to the digests in
    ``perfbench/reference.json`` (only read); a refutation's digest is
    dashes.  So is the kernel work: 2,468 assignment calls in 115,726 nodes
    and 540 sink searches in 94,041 nodes, of which 106 refute a subset (one
    per infeasible configuration, which has the one subset), in place of the
    48 assignment calls each of those would take without the sink search."""
    _, plans, calls = refute_sweep
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["refute"]
    assert reference["count"] == len(plans) == 1260
    infeasible = [i for i, plan in enumerate(plans) if plan is None]
    assert infeasible == reference["infeasible"] and len(infeasible) == 106
    digests = "".join("-" * DIGEST_CHARS if plan is None else _digest(plan) for plan in plans)
    mismatched = [
        i
        for i in range(len(plans))
        if digests[i * DIGEST_CHARS : (i + 1) * DIGEST_CHARS]
        != reference["item_digests"][i * DIGEST_CHARS : (i + 1) * DIGEST_CHARS]
    ]
    assert not mismatched, f"{len(mismatched)} witnesses differ, first at item {mismatched[0]}"
    plain = [nodes for always_free, _, nodes in calls if not always_free]
    sink = [(status, nodes) for always_free, status, nodes in calls if always_free]
    assert (len(plain), sum(plain)) == (2468, 115726)
    assert (len(sink), sum(nodes for _, nodes in sink)) == (540, 94041)
    assert [status for status, _ in sink].count(kernel.NONE) == 106


def test_every_witness_path_equals_its_checked_path(refute_sweep):
    """The oracle's witnesses are kernel trails, built unchecked; each equals
    the checked path through its vertices."""
    _, plans, _ = refute_sweep
    paths = [path for plan in plans if plan is not None for path in plan.all_paths()]
    assert paths
    for path in paths:
        assert_checked(path)


def test_sink_reach_rows_hold_every_exit_edge(grid, refute_sweep):
    """Every row of the sink descriptor's reach table is keyed with all its
    exit edges free, so the table has at most one row per state of the grid
    edges and the R->S edge."""
    contract = contract_for(LemmaId.HEAVY6)
    sd = kernel.sink_desc(tuple(sorted(contract.exit_target)), contract.restricted_zone, 1)
    table = sd.reach
    assert table
    assert all(m & sd.exit_edges == sd.exit_edges for m in table)
    assert len(table) <= 1 << (len(grid.edges) + 1)


def test_link_two_pairs_witness(grid):
    paths = kernel.solve_trails(grid.edges, [((1, 1), (3, 3)), ((1, 3), (3, 1))])
    assert paths is not None
    p1, p2 = paths
    assert not set(p1.edges()) & set(p2.edges())


def test_euler_cross_check_agrees_with_kernel():
    g = build_corner_grid(frozenset({(1, 1), (1, 2), (1, 3)}))  # 2x3 grid
    vertices = g.sorted_vertices()
    for u1, v1, u2, v2 in itertools.product(vertices[:4], repeat=4):
        fast = kernel.solve_trails(g.edges, [(u1, v1), (u2, v2)])
        slow = exists_trail_system_euler(g, [(u1, v1), (u2, v2)])
        assert (fast is not None) == slow


_FULL = full_grid()
_VERTEX = st.sampled_from(_FULL.sorted_vertices())


@settings(max_examples=150, deadline=None)
@given(
    st.sets(st.sampled_from(_FULL.sorted_edges()), max_size=10),
    st.tuples(_VERTEX, _VERTEX, _VERTEX, _VERTEX),
)
def test_euler_cross_check_agrees_with_kernel_on_free_edge_subsets(free, ends):
    """Reachability pruning under a partial free-edge mask: the kernel on the
    graph with only ``free`` as edges agrees with the subset enumerator, and
    the same edges given as a mutable set, whose mask is folded afresh,
    make the same search."""
    u1, v1, u2, v2 = ends
    pairs = [(u1, v1), (u2, v2)]
    g = GridGraph(vertices=_FULL.vertices, edges=frozenset(free))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "find_trail_system", _recording_search(calls))
        fast = kernel.solve_trails(g.edges, pairs)
        assert (fast is not None) == exists_trail_system_euler(g, pairs)
        assert kernel.solve_trails(free, pairs) == fast
    # the same search, node for node
    assert calls[0] == calls[1]


@settings(max_examples=200, deadline=None)
@given(
    taken=st.sets(st.sampled_from(_FULL.sorted_edges())),
    linked=st.lists(st.tuples(_VERTEX, _VERTEX), max_size=2),
    escaping=st.lists(_VERTEX, min_size=1, max_size=4),
    exits=st.sets(st.sampled_from(sorted(BOUNDARY))),
    limit=st.sampled_from([None, 1]),
)
def test_sink_search_agrees_with_every_exit_assignment(taken, linked, escaping, exits, limit):
    """One sink search answers what the oracle's loop asks of a subset:
    whether some injective assignment of the escaping terminals to the
    exits, at most ``limit`` of them in the restricted zone, has trails
    (one kernel call per assignment) in the grid edges not ``taken``.  The
    trails it returns are checked here from their vertices alone: each
    joins its pair or takes its terminal to an exit, the exits are
    distinct and within the bound, and every step is a free grid edge,
    none used twice."""
    free = _FULL.edges - taken
    exits = sorted(exits)
    brute = any(
        kernel.solve_trails(free, [*linked, *zip(escaping, combo)]) is not None
        for combo in itertools.permutations(exits, len(escaping))
        if limit is None or sum(x in COL_ONLY for x in combo) <= limit
    )
    trails = kernel.escape_trails(free, linked, escaping, exits, COL_ONLY, limit)
    assert (trails is not None) == brute
    if trails is None:
        return
    assert len(trails) == len(linked) + len(escaping)
    for (a, b), trail in zip(linked, trails):
        assert (trail.vertices[0], trail.vertices[-1]) == (a, b)
    escapes = trails[len(linked) :]
    assert [trail.vertices[0] for trail in escapes] == escaping
    reached = [trail.vertices[-1] for trail in escapes]
    assert set(reached) <= set(exits)
    assert len(set(reached)) == len(reached)
    assert limit is None or sum(x in COL_ONLY for x in reached) <= limit
    used = set()
    for trail in trails:
        for (r1, c1), (r2, c2) in zip(trail.vertices, trail.vertices[1:]):
            assert abs(r1 - r2) + abs(c1 - c2) == 1
            edge = tuple(sorted([(r1, c1), (r2, c2)]))
            assert edge in free and edge not in used
            used.add(edge)


def _euler_plan_exists(g, cfg, contract):
    """Full-plan existence via the subset enumerator: loops the same outer
    structure as the oracle but decides each trail system by edge-subset
    parity instead of the DFS kernel."""
    exits = sorted(contract.exit_target & g.vertices)
    npairs = len(cfg.pairs)
    for size in range(npairs, contract.min_linked_pairs - 1, -1):
        for linked in itertools.combinations(range(npairs), size):
            linked_vertices = {v for i in linked for v in cfg.pairs[i]}
            unlinked = sorted(set(cfg.terminals) - linked_vertices)
            for combo in itertools.permutations(exits, len(unlinked)):
                limit = contract.max_exits_in_restricted
                if limit is not None:
                    if sum(1 for x in combo if x in contract.restricted_zone) > limit:
                        continue
                endpoint_pairs = [cfg.pairs[i] for i in linked] + list(
                    zip(unlinked, combo)
                )
                if exists_trail_system_euler(g, endpoint_pairs):
                    return True
    return False


def test_oracle_none_confirmed_by_euler_enumeration(grid):
    """The oracle's NONE verdicts on the one-pair six-terminal extension
    are confirmed by the independent subset enumerator."""
    contract = contract_for(LemmaId.HEAVY6)
    infeasible = [
        make_config([((1, 1), (3, 1))], [(1, 2), (1, 3), (2, 1), (2, 2)]),
        make_config([((2, 2), (3, 1))], [(1, 1), (1, 2), (1, 3), (2, 1)]),
    ]
    feasible = [
        make_config([((1, 1), (3, 1))], [(1, 2), (1, 3), (2, 1), (3, 2)]),
        make_config([((1, 2), (2, 2))], [(1, 1), (2, 1), (3, 1), (3, 3)]),
    ]
    for cfg in infeasible:
        assert oracle_solve(grid, cfg, contract) is None
        assert not _euler_plan_exists(grid, cfg, contract)
    for cfg in feasible:
        assert oracle_solve(grid, cfg, contract) is not None
        assert _euler_plan_exists(grid, cfg, contract)


def test_weak_linkage_sweep_confirmed_by_euler_enumeration(grid, grid_star):
    """Every ordered 4-tuple of both weak-2-linkage graphs, 6,561 + 4,096 =
    10,657 in all, has two edge-disjoint trails by the subset enumerator:
    the sweep's verdict (``test_weakly_2_linked_*``) is confirmed without
    the kernel or the pair-multiset memo."""
    checked = 0
    for g in (grid, grid_star):
        for u1, v1, u2, v2 in itertools.product(g.sorted_vertices(), repeat=4):
            assert exists_trail_system_euler(g, [(u1, v1), (u2, v2)]), (u1, v1, u2, v2)
            checked += 1
    assert checked == 10657


def test_refute_verdicts_confirmed_by_euler_enumeration(grid, refute_sweep):
    """Every verdict of the refute sweep, a witness on 1,154 configurations
    and NONE on 106, is the subset enumerator's verdict too."""
    cfgs, plans, _ = refute_sweep
    contract = contract_for(LemmaId.HEAVY6)
    euler = [_euler_plan_exists(grid, cfg, contract) for cfg in cfgs]
    assert euler == [plan is not None for plan in plans]
    assert (len(euler), euler.count(False)) == (1260, 106)


def test_any_plan_refutes_exactly_the_reference_infeasible(grid, refute_sweep):
    """The existence search on the 1,260 one-pair heavy6 configurations
    finds no plan at exactly the reference's 106 infeasible indices, and
    every plan it returns passes the validator the oracle does not call."""
    cfgs, _, _ = refute_sweep
    contract = contract_for(LemmaId.HEAVY6)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["refute"]
    plans = [oracle.any_plan(grid, cfg, contract) for cfg in cfgs]
    assert [i for i, plan in enumerate(plans) if plan is None] == reference["infeasible"]
    for cfg, plan in zip(cfgs, plans):
        if plan is not None:
            assert validate_plan_recheck(grid, cfg, plan, contract).ok, encode_config(cfg)


ANY_PLAN_DIGESTS = pathlib.Path(__file__).parent / "fixtures" / "any-plan-digests.json"


@pytest.mark.parametrize(
    "lemma, calls, nodes",
    [
        (LemmaId.HEAVY78, 5936, 270780),
        (LemmaId.HEAVY6, 3837, 137405),
        (LemmaId.HEAVY5, 1260, 53116),
    ],
    ids=["heavy78", "heavy6", "heavy5"],
)
def test_existence_search_is_pinned(grid, search_calls, lemma, calls, nodes):
    """The campaigns' existence search (``any_plan``) on every strict
    configuration of a family, as the gate runs it: a plan for each, whose
    ``plan_to_json`` texts, in enumeration order, hash to the family's
    sha256 in ``fixtures/any-plan-digests.json``, and exactly these kernel
    searches and nodes, counted at the kernel search itself."""
    contract = contract_for(lemma)
    digest = hashlib.sha256()
    for cfg in enumerate_configs(lemma):
        plan = oracle.any_plan(grid, cfg, contract)
        assert plan is not None, encode_config(cfg)
        text = json.dumps(plan_to_json(plan), sort_keys=True, separators=(",", ":"))
        digest.update(text.encode() + b"\n")
    assert (len(search_calls), sum(nodes for _, _, nodes in search_calls)) == (calls, nodes)
    expected = json.loads(ANY_PLAN_DIGESTS.read_text(encoding="utf-8"))
    assert digest.hexdigest() == expected[lemma.value]


def test_any_plan_raises_on_swapped_escape_exits(grid, monkeypatch):
    """With two escape trails swapped, each terminal is given the other's
    trail and exit: ``any_plan`` raises InvalidWitness, and the campaign
    records it as an oracle error instead of raising."""
    search = kernel.escape_trails
    swapped = []

    def swapping(free_edges, linked_pairs, escaping, *rest):
        trails = search(free_edges, linked_pairs, escaping, *rest)
        if trails is None or len(escaping) < 2:
            return trails
        swapped.append(escaping)
        k = len(linked_pairs)
        return trails[:k] + [trails[k + 1], trails[k]] + trails[k + 2 :]

    monkeypatch.setattr(kernel, "escape_trails", swapping)
    cfg = make_config([((1, 1), (1, 2))], [(3, 1), (3, 2), (1, 3)])
    with pytest.raises(InvalidWitness):
        oracle.any_plan(grid, cfg, contract_for(LemmaId.HEAVY5))
    assert swapped
    record = campaign._verify_one((LemmaId.HEAVY5.value, True, cfg))
    assert not record["oracle_ok"]
    (violation,) = record["violations"]
    assert violation.startswith("ORACLE_ERROR: InvalidWitness(")


def test_weak_linkage_witnesses_validate(grid):
    for u1, v1, u2, v2 in itertools.islice(
        itertools.product(grid.sorted_vertices(), repeat=4), 0, 500, 7
    ):
        paths = kernel.solve_trails(grid.edges, [(u1, v1), (u2, v2)])
        assert paths is not None
        assert not set(paths[0].edges()) & set(paths[1].edges())
        assert paths[0].start == u1 and paths[0].end == v1
        assert paths[1].start == u2 and paths[1].end == v2


def _share_an_edge(pairs, trails):
    """The first trail twice, when both pairs are one pair of distinct ends."""
    (a, b), second = pairs
    return [trails[0], trails[0]] if a != b and second == (a, b) else trails


def _swap_ends(pairs, trails):
    """The first trail with distinct ends, reversed."""
    for j, (a, b) in enumerate(pairs):
        if a != b:
            return trails[:j] + [trails[j].reversed()] + trails[j + 1 :]
    return trails


def _through_the_corner(pairs, trails):
    """A trail between (2, 3) and (3, 2) through (3, 3), the vertex the grid
    without its corner lacks."""
    for j, (a, b) in enumerate(pairs):
        if {a, b} == {(2, 3), (3, 2)}:
            return trails[:j] + [Path((a, (3, 3), b))] + trails[j + 1 :]
    return trails


def _drop_a_trail(pairs, trails):
    """Every trail but the last."""
    return trails[:-1]


def _moved(pairs, trails, cut):
    """The first trail with distinct ends, cut to ``vertices[cut]``."""
    for j, (a, b) in enumerate(pairs):
        if a != b:
            return trails[:j] + [Path(trails[j].vertices[cut])] + trails[j + 1 :]
    return trails


def _move_start(pairs, trails):
    """The first trail with distinct ends, started one step along itself."""
    return _moved(pairs, trails, slice(1, None))


def _move_end(pairs, trails):
    """The first trail with distinct ends, ended one step short."""
    return _moved(pairs, trails, slice(None, -1))


@pytest.mark.parametrize(
    "mutate, graph",
    [
        (_share_an_edge, full_grid()),
        (_swap_ends, full_grid()),
        (_through_the_corner, grid_without_corner()),
        (_drop_a_trail, full_grid()),
        (_move_start, full_grid()),
        (_move_end, full_grid()),
    ],
    ids=["shared-edge", "wrong-end", "edge-off-graph", "missing-trail", "moved-start", "moved-end"],
)
def test_weak_linkage_sweep_rejects_a_bad_witness(monkeypatch, mutate, graph):
    """The w2l sweep checks every linkage the kernel returns: a witness with
    a shared edge, a wrong end, an edge off the graph, a trail missing, or
    a trail that starts or ends one step off its pair's end raises, not an
    ``assert``, instead of counting its tuple as linked."""
    solve = kernel.solve_trails
    mutated = []

    def corrupting(free_edges, pairs):
        trails = solve(free_edges, pairs)
        bad = trails if trails is None else mutate(pairs, trails)
        if bad != trails:
            mutated.append(pairs)
        return bad

    monkeypatch.setattr(kernel, "solve_trails", corrupting)
    with pytest.raises(InvalidWitness):
        check_weakly_2_linked(graph)
    assert len(mutated) == 1


# -- the weak-2-linkage sweep's one tuple per pair multiset -------------------

_KEYED_GRAPHS = [(), ((3, 3),), ((2, 2),), ((1, 2),)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trail_existence_is_invariant_under_the_key(data):
    """What the sweep rests on: whether trails exist does not change under
    a permutation of the pairs or a reversal of pairs."""
    g = build_corner_grid(frozenset(data.draw(st.sampled_from(_KEYED_GRAPHS))))
    vertex = st.sampled_from(g.sorted_vertices())
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=4))
    order = data.draw(st.permutations(range(len(pairs))))
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    variants = [
        [pairs[i] for i in order],
        [(b, a) for a, b in pairs],
        [(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips)],
    ]
    exists = kernel.solve_trails(g.edges, pairs) is not None
    for variant in variants:
        assert (kernel.solve_trails(g.edges, variant) is not None) == exists


# Per graph, by its deleted vertices: the sweep's kernel searches and their
# total nodes, each graph searched as a mask on the one corner-grid table.
_SWEEP_PINS = {
    "full": ((), 1035, 11732),
    "no-12": (((1, 2),), 37, 211),
    "no-22": (((2, 2),), 80, 482),
    "no-33": (((3, 3),), 666, 6785),
    "no-11-33": (((1, 1), (3, 3)), 111, 787),
    "no-22-33": (((2, 2), (3, 3)), 29, 124),
}


@pytest.mark.parametrize(
    "deleted, searches, nodes", list(_SWEEP_PINS.values()), ids=list(_SWEEP_PINS)
)
def test_pair_key_classes_are_symmetry_orbits(
    deleted, searches, nodes, kernel_calls, search_calls
):
    """The sweep searches one tuple per class of 4-tuples under the only
    symmetries it uses, a swap of the two pairs and a reversal of either:
    the classes are the multisets of unordered pairs.  On each graph its
    searches are exactly the first member of each class in ``product``
    order, in that order, up to its counterexample if it finds one, and
    they make the pinned number of kernel searches in the pinned nodes."""
    g = build_corner_grid(frozenset(deleted))
    firsts = {}
    for u1, v1, u2, v2 in itertools.product(g.sorted_vertices(), repeat=4):
        multiset = frozenset(Counter([frozenset((u1, v1)), frozenset((u2, v2))]).items())
        firsts.setdefault(multiset, ((u1, v1), (u2, v2)))
    expected = list(firsts.values())
    ok, witness = check_weakly_2_linked(g)
    searched = [tuple(pairs) for pairs in kernel_calls]
    assert searched == expected[: len(searched)]
    if ok:
        assert len(searched) == len(expected)
    else:
        assert witness == searched[-1][0] + searched[-1][1]
    assert (len(search_calls), sum(n for _, _, n in search_calls)) == (searches, nodes)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The endpoint pairs of every kernel.solve_trails call the test makes."""
    calls = []
    solve = kernel.solve_trails
    monkeypatch.setattr(
        kernel, "solve_trails", lambda *args: calls.append(args[1]) or solve(*args)
    )
    return calls


def test_weak_linkage_searches_one_tuple_per_key(kernel_calls):
    """The full grid and the grid without its corner: 6,561 + 4,096 tuples
    in 1,701 key classes, one kernel call each."""
    for g in (full_grid(), grid_without_corner()):
        assert check_weakly_2_linked(g) == (True, None)
    assert len(kernel_calls) == 1701
