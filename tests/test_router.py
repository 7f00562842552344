import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escape3x3.grid import ROW_ONLY, full_grid
from escape3x3.model import (
    EscapeContract,
    EscapePlan,
    contract_for,
    plan_to_json,
    reflected_plan,
    validate_plan,
)
from escape3x3 import kernel, router, toolkit
from escape3x3.router import (
    CASE_LABELS,
    CaseGap,
    UnsupportedFamily,
    route,
)
from escape3x3.terminals import (
    LemmaId,
    decode_config,
    demote_pair_to_singletons,
    enumerate_configs,
    make_config,
)

from conftest import isolated_strict_sweep, load_fixture


def test_dispatch_by_count():
    cfg5 = make_config([((1, 1), (2, 2))], [(1, 2), (2, 1), (1, 3)])
    plan, trace = route(cfg5)
    assert trace.lemma is LemmaId.HEAVY5
    cfg8 = next(iter(enumerate_configs(LemmaId.HEAVY78)))
    plan, trace = route(cfg8)
    assert trace.lemma is LemmaId.HEAVY78


def test_trace_carries_the_verdict_of_its_plan(grid, monkeypatch):
    """A routed plan and a non-strict fallback's plan are each valid under
    the family's contract, and the fallback's trace says so; strict routing
    of a failed case raises instead."""
    cfg = next(iter(enumerate_configs(LemmaId.HEAVY5)))
    contract = contract_for(LemmaId.HEAVY5)
    plan, trace = route(cfg, strict=True)
    assert not trace.used_fallback
    assert validate_plan(grid, cfg, plan, contract).ok

    def broken(cfg):
        raise CaseGap("construction failed")

    monkeypatch.setitem(router._CASES, LemmaId.HEAVY5, broken)
    plan, trace = route(cfg)
    assert trace.case_labels == ("fallback",) and trace.used_fallback
    assert validate_plan(grid, cfg, plan, contract).ok
    with pytest.raises(CaseGap):
        route(cfg, strict=True)


def test_three_pairs_six_terminals_rejected_with_hint():
    cfg = make_config([((1, 1), (2, 2)), ((1, 2), (2, 1)), ((1, 3), (3, 1))], [])
    with pytest.raises(UnsupportedFamily, match="demote"):
        route(cfg)
    demoted = demote_pair_to_singletons(cfg, 2)
    plan, trace = route(demoted)
    assert trace.lemma is LemmaId.HEAVY6


def test_route_is_deterministic():
    cfgs = list(enumerate_configs(LemmaId.HEAVY6))[::301]
    for cfg in cfgs:
        first = route(cfg, strict=True)
        second = route(cfg, strict=True)
        assert plan_to_json(first[0]) == plan_to_json(second[0])
        assert first[1] == second[1]


import json
import pathlib

_MANIFEST = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "manifest.json").read_text("utf-8")
)


@pytest.mark.parametrize("name", sorted(_MANIFEST))
def test_fixture_panels_pin_their_case(name, fixture_manifest, grid):
    expected = fixture_manifest[name]
    cfg = decode_config(load_fixture(name))
    plan, trace = route(cfg, strict=True)
    assert trace.lemma.value == expected["lemma"]
    assert trace.case_labels[0] == expected["label"]
    assert not trace.used_fallback
    contract = contract_for(trace.lemma)
    assert validate_plan(grid, cfg, plan, contract).ok


_H78 = list(enumerate_configs(LemmaId.HEAVY78))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, len(_H78) - 1))
def test_reflection_transport_on_unbounded_contract(index):
    """A valid plan reflects to a valid plan for the reflected config when
    the contract carries no restricted-zone bound."""
    cfg = _H78[index]
    grid = full_grid()
    contract = contract_for(LemmaId.HEAVY78)
    plan, _ = route(cfg, strict=True)
    assert validate_plan(grid, cfg, plan, contract).ok
    rplan = reflected_plan(cfg, plan)
    assert validate_plan(grid, cfg.reflected(), rplan, contract).ok


_H6 = list(enumerate_configs(LemmaId.HEAVY6))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, len(_H6) - 1))
def test_reflection_transport_on_bounded_contract(index):
    """With a restricted-zone bound the reflected plan satisfies the
    reflected contract (the bound moves to the other boundary arm)."""
    cfg = _H6[index]
    grid = full_grid()
    contract = contract_for(LemmaId.HEAVY6)
    plan, _ = route(cfg, strict=True)
    rplan = reflected_plan(cfg, plan)
    rcontract = EscapeContract(
        contract.min_linked_pairs,
        contract.exit_target,
        contract.max_exits_in_restricted,
        ROW_ONLY,
    )
    assert validate_plan(grid, cfg.reflected(), rplan, rcontract).ok


def test_route_and_reflected_route_both_succeed():
    for cfg in list(enumerate_configs(LemmaId.HEAVY78))[::517]:
        plan_a, trace_a = route(cfg, strict=True)
        plan_b, trace_b = route(cfg.reflected(), strict=True)
        grid = full_grid()
        contract = contract_for(LemmaId.HEAVY78)
        assert validate_plan(grid, cfg, plan_a, contract).ok
        assert validate_plan(grid, cfg.reflected(), plan_b, contract).ok


def test_reflected_configs_take_the_same_case():
    """A config and its reflection route through the same case; only the
    symmetry marker may differ."""
    for cfg in list(enumerate_configs(LemmaId.HEAVY78))[::97]:
        _, trace_a = route(cfg, strict=True)
        _, trace_b = route(cfg.reflected(), strict=True)
        assert trace_a.case_labels[0] == trace_b.case_labels[0]
        assert trace_a.used_fallback == trace_b.used_fallback


def test_clip_name_recorded_on_trace(fixture_manifest):
    cfg = decode_config(load_fixture("l3-b-inner-col0"))
    _, trace = route(cfg, strict=True)
    assert trace.case_labels[0].startswith("L3/")
    assert any(label.startswith("clip:") for label in trace.case_labels[1:])


def test_extended_six_terminal_family_oracle_only():
    """The 1-pair + 4-singleton six-terminal family is checked against the
    oracle only; the router does not claim it - rightly so, since the
    family contains genuinely infeasible placements."""
    from escape3x3.oracle import oracle_solve
    from escape3x3.terminals import make_config

    grid = full_grid()
    contract = contract_for(LemmaId.HEAVY6)
    extended = [
        cfg
        for cfg in enumerate_configs(LemmaId.HEAVY6, extended=True)
        if len(cfg.pairs) == 1
    ]
    assert len(extended) == 84 * 15
    with pytest.raises(UnsupportedFamily):
        route(extended[0])
    infeasible = sum(
        1 for cfg in extended if oracle_solve(grid, cfg, contract) is None
    )
    assert infeasible == 106
    # witness: four inner singletons and the pair ending on the last row
    # demand four crossings of the three edges entering that row
    blocked = make_config([((1, 1), (3, 1))], [(1, 2), (1, 3), (2, 1), (2, 2)])
    assert oracle_solve(grid, blocked, contract) is None


def test_case_labels_registry_is_closed():
    for lemma, labels in CASE_LABELS.items():
        assert labels
        for label in labels:
            assert label.startswith(("L2/", "L3/", "L4/"))


def test_strict_mode_raises_case_gap_only_via_router():
    # strict routing over a sample must never fall back
    for cfg in list(enumerate_configs(LemmaId.HEAVY5))[::97]:
        plan, trace = route(cfg, strict=True)
        assert trace.lemma is LemmaId.HEAVY5
        assert not trace.used_fallback


def test_strict_sweep_kernel_calls_pinned(strict_sweep_requests, strict_sweep_searches):
    """The routing memo's requests in the strict sweep, in order, are pinned
    by number and by a digest of their free edges, endpoint pairs and
    trails.  The searches the memo makes, one per distinct request, are
    pinned apart by number and node total: a change to how the kernel runs
    its search, not to what the router asks, keeps the first two."""
    count, digest = strict_sweep_requests
    assert count == 11896
    assert digest == "0307e6eb7bb93ecc3a32760cc42577403750cb1472cbbb0db4f2fbee1ed41627"
    assert strict_sweep_searches == (1999, 20772)


def test_sweep_pins_do_not_depend_on_what_routed_before():
    """With the session's routing memo warm from routing a few
    configurations, a new isolated strict sweep asks and searches exactly
    what the pinned one does."""
    for lemma in (LemmaId.HEAVY78, LemmaId.HEAVY6, LemmaId.HEAVY5):
        for cfg in list(enumerate_configs(lemma))[:40]:
            route(cfg, strict=True)
    assert toolkit._SEARCHES
    _, count, digest, searches, nodes, *_ = isolated_strict_sweep()
    assert (count, digest) == (
        11896,
        "0307e6eb7bb93ecc3a32760cc42577403750cb1472cbbb0db4f2fbee1ed41627",
    )
    assert (searches, nodes) == (1999, 20772)


# What strict routing of each case's first configuration in the strict sweep
# gives when every kernel search fails: the message of the case gap it
# raises, or "no gap" for the three cases that make no search.
_GAP_PINS = {
    "L2/a/member-and-singleton": "heavy78: L2/a/member-and-singleton: no linkage for pairs [1, 2]",
    "L2/a/pair-in-S": "heavy78: L2/a/pair-in-S: no linkage for pairs [0]",
    "L2/a/two-members": "heavy78: L2/a/two-members: no linkage for pairs [0, 1]",
    "L2/b/members-and-singleton": (
        "heavy78: L2/b/members-and-singleton: no inner connector avoiding the cycle"
    ),
    "L2/b/pair-plus-member": "heavy78: L2/b/pair-plus-member: no linkage for pairs [0, 1]",
    "L2/b/pair-plus-singleton": "heavy78: L2/b/pair-plus-singleton: no linkage for pairs [0]",
    "L2/b/three-members": "heavy78: L2/b/three-members: no exit assignment for [('p', 0, 0)]",
    "L2/c/no-pair-center-member": (
        "heavy78: L2/c/no-pair-center-member: conflict linkage to (2, 3) blocked"
    ),
    "L2/c/no-pair-center-singleton": "no gap",
    "L2/c/no-pair-center-singleton-direct": "no gap",
    "L2/c/pair-plus-two": "heavy78: L2/c/pair-plus-two: through-link failed",
    "L2/c/two-pairs": "heavy78: L2/c/two-pairs: no linkage for pairs [0, 2]",
    "L3/a/pair-on-L": "heavy6: L3/a/pair-on-L: no path to the row corner",
    "L3/b/S2": "heavy6: L3/b/S2: no linkage for pairs [0]",
    "L3/b/S3": "heavy6: L3/b/S3: no joint linkage and escape",
    "L3/b/S4-col0": "heavy6: L3/b/S4-col0: cannot mate (2, 1), (2, 2) onto ((3, 1), (1, 3))",
    "L3/b/S4-col1": "heavy6: L3/b/S4-col1: cannot mate (2, 1), (2, 2) onto ((3, 1), (3, 2))",
    "L3/b/S4-col2": "heavy6: L3/b/S4-col2: cannot mate (2, 1), (2, 2) onto ((3, 1), (3, 2))",
    "L3/b/other-pair-on-L": (
        "heavy6: L3/b/other-pair-on-L: no exit assignment for [('s', 0), ('s', 1)]"
    ),
    "L3/c/S2-w-col": "heavy6: clip aa-31-32-fork cannot mate (1, 1), (1, 2)",
    "L3/c/S2-w-row": "heavy6: clip aa-31-32-fork cannot mate (1, 1), (1, 2)",
    "L3/c/S3-t2-in-B": "heavy6: clip aa-31-32-cross cannot mate (1, 2), (2, 1)",
    "L3/c/S3-t2-in-row": "heavy6: L3/c/S3-t2-in-row: no exit assignment for [('s', 0), ('s', 1)]",
    "L3/d/S2-all-B-free": "heavy6: clip ab-33-13-sweep cannot mate (1, 1), (1, 2)",
    "L3/d/S2-colpair": "heavy6: L3/d/S2-colpair: no exit assignment for [('p', 0, 0), ('s', 0)]",
    "L3/d/S2-corner-pair": "heavy6: clip aa-32-33-hook cannot mate (1, 1), (1, 2)",
    "L3/d/S3": "heavy6: L3/d/S3: no linkage for the second pair",
    "L3/end/S2-B": "heavy6: L3/end/S2-B: no escape path to (3, 3)",
    "L3/end/S2-t1-row": "heavy6: L3/end/S2-t1-row: no escape path to (3, 1)",
    "L3/end/S2-two-members": "heavy6: L3/end/S2-two-members: no linkage for pairs [0, 1]",
    "L3/end/S2-two-singles": "heavy6: clip aa-32-33-sweep cannot mate (1, 1), (1, 2)",
    "L3/end/S2-w-row": "heavy6: clip aa-31-32-fork cannot mate (1, 1), (1, 2)",
    "L3/end/S3-col0": "heavy6: clip ab-31-13-ladder cannot mate (1, 2), (2, 1)",
    "L3/end/S3-col2": "heavy6: L3/end/S3-col2: no anchor pair admits the mating",
    "L3/end/S3-corner-free": "heavy6: L3/end/S3-corner-free: no anchor pair admits the mating",
    "L3/end/S3-corner-taken": "heavy6: clip aa-32-33-hook cannot mate (1, 1), (2, 1)",
    "L3/end/S3-t-col": "heavy6: L3/end/S3-t-col: no anchor pair admits the mating",
    "L3/end/S4-cols": "heavy6: L3/end/S4-cols: diagonal split failed",
    "L3/end/S4-corner": "heavy6: L3/end/S4-corner: diagonal split failed",
    "L3/end/S4-mixed": "heavy6: L3/end/S4-mixed: diagonal split failed",
    "L3/end/S4-rows": "heavy6: L3/end/S4-rows: diagonal split failed",
    "L4/a/S2": "heavy5: L4/a/S2: no linkage for pairs [0]",
    "L4/a/S2-shift-pair": "heavy5: L4/a/S2-shift-pair: no exit assignment for [('s', 1)]",
    "L4/a/S3": "heavy5: L4/a/S3: no exit assignment for [('s', 1)]",
    "L4/a/S4-corner-free": "heavy5: L4/a/S4-corner-free: no linkage for pairs [0]",
    "L4/a/S4-corner-in-pair": "heavy5: L4/a/S4-corner-in-pair: no linkage for pairs [0]",
    "L4/b/pair-on-L": "heavy5: L4/b/pair-on-L: no exit assignment for [('s', 0)]",
    "L4/b/t1-in-col": "no gap",
    "L4/b/t1-in-row": "heavy5: L4/b/t1-in-row: no linkage path",
    "L4/c": "heavy5: L4/c: no exit assignment for [('s', 0), ('s', 1)]",
    "L4/d/S2": "heavy5: clip aa-31-32-rails cannot mate (1, 1), (1, 2)",
    "L4/d/S3": "heavy5: L4/d/S3: no exit assignment for [('s', 0), ('s', 1), ('s', 2)]",
    "L4/e/S2-aa": "heavy5: clip aa-31-32-rails cannot mate (1, 1), (1, 2)",
    "L4/e/S2-ab": "heavy5: clip ab-31-13-corner cannot mate (1, 1), (1, 2)",
    "L4/e/S2-member": "heavy5: L4/e/S2-member: no joint linkage",
    "L4/e/S3-pair-on-L": (
        "heavy5: L4/e/S3-pair-on-L: no exit assignment for [('s', 0), ('s', 1), ('s', 2)]"
    ),
    "L4/e/S3-t1-in-B": "heavy5: clip aa-31-32-comb cannot mate (1, 2), (2, 1)",
    "L4/e/S3-t1-in-row": "heavy5: L4/e/S3-t1-in-row: no anchor pair admits the mating",
    "L4/e/S4-extension": (
        "heavy5: L4/e/S4-extension: no exit assignment for [('s', 0), ('s', 1), ('s', 2)]"
    ),
}


def test_case_gap_messages_are_pinned(strict_sweep, monkeypatch):
    """Route the first configuration of each case label strictly with every
    kernel search failing: each case raises its pinned case gap, whose
    message names the case, or completes without a search.  The routing
    memo starts empty, so every request reaches the failing search."""
    firsts = {}
    for _, cfg, _, trace in strict_sweep:
        firsts.setdefault(trace.case_labels[0], cfg)
    monkeypatch.setattr(toolkit, "_SEARCHES", {})
    monkeypatch.setattr(kernel, "solve_trails", lambda *args: None)
    found = {}
    for label, cfg in firsts.items():
        try:
            route(cfg, strict=True)
            found[label] = "no gap"
        except CaseGap as exc:
            found[label] = str(exc)
    assert found == _GAP_PINS


def _drop_first_linkage(build):
    def corrupted(*args):
        plan = build(*args)
        return EscapePlan(plan.linkages[1:], plan.escapes)

    return corrupted


@pytest.mark.parametrize(
    "pairs, singletons, reflects",
    [
        ([((1, 1), (1, 3)), ((1, 2), (2, 3)), ((2, 2), (3, 1))], [(2, 1)], True),
        (
            [((1, 1), (1, 2)), ((1, 3), (2, 1)), ((2, 2), (2, 3)), ((3, 1), (3, 2))],
            [],
            False,
        ),
    ],
    ids=["reflecting", "direct"],
)
def test_route_rejects_corrupted_plan_and_falls_back(
    monkeypatch, grid, pairs, singletons, reflects
):
    """A plan that reaches the router's check with a linkage missing is
    refused: strict routing raises, otherwise the oracle's plan is returned.
    For a handler that solves the reflection, the plan is corrupted as it is
    carried back, so only a check of the returned plan catches it."""
    from escape3x3 import router
    from escape3x3.router import CaseGap
    from escape3x3.terminals import make_config
    from escape3x3.toolkit import RoutingContext

    cfg = make_config(pairs, singletons)
    _, trace = route(cfg, strict=True)
    assert trace.symmetry_applied is reflects and not trace.used_fallback
    if reflects:
        corrupted = _drop_first_linkage(router.reflected_plan)
        monkeypatch.setattr(router, "reflected_plan", corrupted)
    else:
        corrupted = _drop_first_linkage(RoutingContext.plan)
        monkeypatch.setattr(RoutingContext, "plan", corrupted)
    with pytest.raises(CaseGap, match="plan invalid"):
        route(cfg, strict=True)
    plan, trace = route(cfg)
    assert trace.used_fallback and trace.case_labels == ("fallback",)
    assert validate_plan(grid, cfg, plan, contract_for(LemmaId.HEAVY78)).ok


@pytest.mark.parametrize(
    "pairs, singletons, cycle, anchor, members, match",
    [
        (
            [((1, 1), (3, 1)), ((1, 2), (1, 3)), ((2, 1), (3, 2))],
            [(2, 2)],
            "INNER_CYCLE_4",
            (2, 2),
            ((2, 2), (1, 2)),
            "not of two pairs",
        ),
        (
            [((1, 1), (1, 2)), ((2, 1), (3, 1)), ((2, 2), (2, 3))],
            [(1, 3)],
            "CYCLE_6_NO_COL1",
            (1, 2),
            ((1, 1), (1, 2)),
            "not of two pairs",
        ),
        (
            [((1, 1), (2, 2)), ((1, 2), (1, 3)), ((2, 1), (3, 1))],
            [(2, 3)],
            "INNER_CYCLE_4",
            (2, 2),
            ((2, 2), (2, 1)),
            r"mate \(1, 1\) off the cycle",
        ),
    ],
    ids=["singleton-member", "one-pair", "partner-off-cycle"],
)
def test_frame_guards_raise_case_gap_and_consume_nothing(
    pairs, singletons, cycle, anchor, members, match
):
    """The frame step refuses a singleton as a member, two members of one
    pair, and a partner neither on the cycle nor one boundary step onto it,
    each as a case gap raised before any edge is consumed or any terminal
    moves."""
    from escape3x3 import grid
    from escape3x3.terminals import make_config
    from escape3x3.toolkit import RoutingContext

    ctx = RoutingContext(make_config(pairs, singletons))
    free, trails = set(ctx.free), dict(ctx.trails)
    with pytest.raises(CaseGap, match=match):
        router._link_through_frame(ctx, getattr(grid, cycle), anchor, members)
    assert ctx.free == free and ctx.trails == trails and not ctx.linked


def test_missing_terminal_gap_names_its_case():
    """``_tid_at`` at a vertex no terminal holds raises a case gap that
    opens with the context's case label, like every other router gap."""
    from escape3x3.toolkit import RoutingContext

    ctx = RoutingContext(make_config([((1, 1), (2, 2))], [(1, 2), (2, 1), (1, 3)]))
    ctx.label = "L4/a/S2"
    with pytest.raises(CaseGap) as gap:
        router._tid_at(ctx, (3, 3))
    assert str(gap.value) == "L4/a/S2: no terminal at (3, 3)"
    assert router._tid_at(ctx, (1, 2)) == ("s", 0)
