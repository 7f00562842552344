"""Acceptance gate: every criterion at its stated tolerance, one line each.

Campaigns run in strict mode (no oracle fallback permitted) over the full
enumerations; the oracle independently confirms existence on every single
configuration.
"""

import json
import time

from escape3x3.campaign import verify_all
from escape3x3.grid import full_grid, grid_without_corner
from escape3x3.model import contract_for, reflected_plan, validate_plan
from escape3x3.oracle import check_weakly_2_linked
from escape3x3.router import CASE_LABELS, route
from escape3x3.terminals import LemmaId, enumerate_configs
from escape3x3.toolkit import clip_catalog, verify_clip

EXPECTED_TOTALS = {
    LemmaId.HEAVY78: 4725,
    LemmaId.HEAVY6: 3780,
    LemmaId.HEAVY5: 1260,
}

_campaign_cache = {}


def _campaign(lemma):
    if lemma not in _campaign_cache:
        _campaign_cache[lemma] = verify_all(lemma, strict=True)
    return _campaign_cache[lemma]


def _announce(num, ok, message):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, message


def test_criterion_1_weak_2_linkage_exhaustive():
    started = time.perf_counter()
    ok_full, witness_full = check_weakly_2_linked(full_grid())
    ok_star, witness_star = check_weakly_2_linked(grid_without_corner())
    elapsed = time.perf_counter() - started
    ok = ok_full and ok_star and elapsed < 30.0
    _announce(
        1,
        ok,
        f"weak 2-linkage holds on all 6561 + 4096 ordered 4-tuples "
        f"({elapsed:.2f}s < 30s); counterexamples: {witness_full}, {witness_star}",
    )


def test_criterion_2_full_campaign_heavy78():
    started = time.perf_counter()
    report = _campaign(LemmaId.HEAVY78)
    elapsed = time.perf_counter() - started
    ok = (
        report.total == EXPECTED_TOTALS[LemmaId.HEAVY78]
        and report.valid == report.total
        and not report.failures
        and report.oracle_disagreements == 0
        and elapsed < 300.0
    )
    _announce(
        2,
        ok,
        f"all {report.total} seven/eight-terminal configs: valid plans with >=2 "
        f"linked pairs and oracle-confirmed existence, {len(report.failures)} "
        f"failures ({elapsed:.1f}s < 300s)",
    )


def test_criterion_3_full_campaign_heavy6():
    report = _campaign(LemmaId.HEAVY6)
    ok = (
        report.total == EXPECTED_TOTALS[LemmaId.HEAVY6]
        and report.valid == report.total
        and not report.failures
        and report.oracle_disagreements == 0
    )
    _announce(
        3,
        ok,
        f"all {report.total} six-terminal configs: valid plans with at most one "
        f"column-stub exit, {len(report.failures)} failures",
    )


def test_criterion_4_full_campaign_heavy5():
    report = _campaign(LemmaId.HEAVY5)
    ok = (
        report.total == EXPECTED_TOTALS[LemmaId.HEAVY5]
        and report.valid == report.total
        and not report.failures
        and report.oracle_disagreements == 0
    )
    _announce(
        4,
        ok,
        f"all {report.total} five-terminal configs: pair linked, three distinct "
        f"exits, at most one column-stub exit, {len(report.failures)} failures",
    )


def test_criterion_5_strict_transliteration_gate():
    gaps = sum(_campaign(lemma).case_gaps for lemma in EXPECTED_TOTALS)
    # with strict routing off, every config must still take a documented
    # case rather than the oracle substitute
    fallbacks = 0
    for lemma in EXPECTED_TOTALS:
        for cfg in enumerate_configs(lemma):
            _, trace = route(cfg, strict=False)
            if trace.used_fallback:
                fallbacks += 1
    ok = fallbacks == 0 and gaps == 0
    _announce(
        5,
        ok,
        f"{fallbacks} oracle fallbacks in the non-strict campaigns and {gaps} "
        f"strict-mode case gaps across all three families (target 0)",
    )


def test_criterion_6_clip_catalog():
    catalog = clip_catalog()
    grid = full_grid()
    failing = [
        name for name, clip in sorted(catalog.items()) if not verify_clip(grid, clip).ok
    ]
    ok = len(catalog) >= 8 and not failing
    _announce(
        6,
        ok,
        f"clip catalog: {len(catalog)} entries (>= 8), all machine-verified; "
        f"failing: {failing}",
    )


def test_criterion_7a_validator_double_implementation():
    failures = sum(len(_campaign(lemma).failures) for lemma in EXPECTED_TOTALS)
    disagreements = [
        f
        for lemma in EXPECTED_TOTALS
        for f in _campaign(lemma).failures
        if any("VALIDATOR_DISAGREEMENT" in p for p in f["problems"])
    ]
    ok = failures == 0 and not disagreements
    _announce(
        "7a",
        ok,
        f"both validator implementations agree on every campaign plan "
        f"({sum(EXPECTED_TOTALS.values())} plans, {len(disagreements)} disagreements)",
    )


def test_criterion_7b_reflection_transport(strict_sweep):
    grid = full_grid()
    contract = contract_for(LemmaId.HEAVY78)
    bad = 0
    checked = 0
    for lemma, cfg, plan, _ in strict_sweep:
        if lemma is not LemmaId.HEAVY78:
            continue
        rplan = reflected_plan(cfg, plan)
        if not validate_plan(grid, cfg.reflected(), rplan, contract).ok:
            bad += 1
        checked += 1
    ok = bad == 0
    _announce(
        "7b",
        ok,
        f"reflection transport holds on all {checked} seven/eight-terminal plans "
        f"({bad} failures)",
    )


def test_criterion_7c_campaign_determinism():
    lemma = LemmaId.HEAVY6
    first = verify_all(lemma, strict=True).to_json()
    second = verify_all(lemma, strict=True).to_json()
    first.pop("wall_time")
    second.pop("wall_time")
    ok = json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    _announce(
        "7c",
        ok,
        "two full six-terminal campaign runs are byte-identical modulo wall time",
    )


def test_criterion_7d_dead_case_alarm():
    missing = {
        lemma.value: sorted(set(CASE_LABELS[lemma]) - set(_campaign(lemma).case_histogram))
        for lemma in EXPECTED_TOTALS
    }
    rogue = {
        lemma.value: sorted(set(_campaign(lemma).case_histogram) - set(CASE_LABELS[lemma]))
        for lemma in EXPECTED_TOTALS
    }
    ok = not any(missing.values()) and not any(rogue.values())
    _announce(
        "7d",
        ok,
        f"every documented case label is exercised at least once; missing: "
        f"{ {k: v for k, v in missing.items() if v} }; undocumented labels: "
        f"{ {k: v for k, v in rogue.items() if v} }",
    )


def test_exit_statuses_all_ok():
    for lemma in EXPECTED_TOTALS:
        assert _campaign(lemma).exit_status() == 0
