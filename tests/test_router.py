import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escape3x3.grid import full_grid
from escape3x3.model import (
    contract_for,
    plan_to_json,
    reflected_contract,
    reflected_plan,
    validate_plan,
)
from escape3x3 import router
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

from conftest import load_fixture


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
    assert validate_plan(grid, cfg.reflected(), rplan, reflected_contract(contract)).ok


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


def test_strict_sweep_kernel_calls_pinned(strict_sweep_kernel_calls):
    """The routing kernel calls of the strict sweep, in order, are pinned by
    number and by a digest of their free edges, endpoint pairs and trails.
    Their node total is pinned apart: a change to how the kernel runs its
    search, not to what it searches, keeps all three."""
    count, nodes, digest = strict_sweep_kernel_calls
    assert count == 11896
    assert nodes == 98287
    assert digest == "0307e6eb7bb93ecc3a32760cc42577403750cb1472cbbb0db4f2fbee1ed41627"


def _drop_first_linkage(build):
    def corrupted(*args):
        plan = build(*args)
        return dataclasses.replace(plan, linkages=plan.linkages[1:])

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
