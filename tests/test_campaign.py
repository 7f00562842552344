import json
import pathlib

from escape3x3 import campaign, cli, kernel, model, oracle, router, terminals, toolkit
from escape3x3.campaign import (
    EXIT_CASE_GAP,
    EXIT_OK,
    EXIT_ORACLE_DISAGREEMENT,
    EXIT_VALIDATION,
    CampaignReport,
    verify_all,
    verify_weak_linkage,
)
from escape3x3.model import EscapePlan
from escape3x3.router import CaseTrace
from escape3x3.terminals import LemmaId, encode_config, enumerate_configs
from test_kernel import garbage_left
from test_oracle import _THREE_CALL_CFG, _recording_search

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def test_report_invariant_valid_plus_failures_is_total():
    report = verify_all(LemmaId.HEAVY5, strict=True)
    assert report.valid + len(report.failures) == report.total
    assert report.exit_status() == EXIT_OK


def test_parallel_report_matches_sequential():
    seq = verify_all(LemmaId.HEAVY5, strict=True).to_json()
    par = verify_all(LemmaId.HEAVY5, strict=True, jobs=3).to_json()
    seq.pop("wall_time")
    par.pop("wall_time")
    assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)


def test_pool_has_no_more_workers_than_chunks(monkeypatch):
    """heavy5's 1,260 configurations make 20 chunks of 64, so a huge
    ``--jobs`` asks for 20 workers and 2 asks for 2.  The stand-in pool
    runs the chunks in this process, so the test starts no process."""
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            assert max_workers <= 20
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(campaign, "ProcessPoolExecutor", InProcessPool)
    seq = verify_all(LemmaId.HEAVY5, strict=True).to_json()
    for jobs in (100000, 2):
        par = verify_all(LemmaId.HEAVY5, strict=True, jobs=jobs).to_json()
        assert {**par, "wall_time": 0} == {**seq, "wall_time": 0}
    assert asked == [20, 2]


def test_pool_gets_one_task_per_configuration(monkeypatch):
    """At ``--jobs 2`` the pool's ``map`` gets one task per configuration,
    heavy5's 1,260 in enumeration order, in chunks of ``_CHUNK``.  perfbench
    times each task as one item, so its latency percentiles are per
    configuration only while a task is one configuration."""
    handed = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            handed.append((tasks, chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(campaign, "ProcessPoolExecutor", RecordingPool)
    verify_all(LemmaId.HEAVY5, strict=True, jobs=2)
    [(tasks, chunksize)] = handed
    assert chunksize == campaign._CHUNK
    assert tasks == [("heavy5", True, cfg) for cfg in enumerate_configs(LemmaId.HEAVY5)]
    assert len(tasks) == 1260


def test_verify_one_depends_only_on_its_task(monkeypatch):
    """Running a task twice gives equal records and the same kernel
    searches, so a pool worker's record does not depend on what the worker
    ran before: routing and the oracle's existence search make 2 kernel
    searches in 56 nodes on each run.  Each run routes with an empty
    routing memo (``toolkit._SEARCHES``), so both ask the kernel alike."""
    calls = []
    monkeypatch.setattr(kernel, "find_trail_system", _recording_search(calls))
    task = (LemmaId.HEAVY78.value, True, _THREE_CALL_CFG)
    monkeypatch.setattr(toolkit, "_SEARCHES", {})
    first = campaign._verify_one(task)
    first_calls = calls[:]
    calls.clear()
    monkeypatch.setattr(toolkit, "_SEARCHES", {})
    assert campaign._verify_one(task) == first
    assert calls == first_calls
    assert (len(calls), sum(nodes for _, _, nodes in calls)) == (2, 56)


def test_campaigns_leave_no_reference_cycles():
    """A campaign's router, toolkit, oracle and validators free what they
    make by reference counting alone: once warm, a strict heavy5 campaign
    and the w2l sweep each leave nothing for the cyclic collector."""
    campaigns = {
        "heavy5": lambda: verify_all(LemmaId.HEAVY5, strict=True),
        "w2l": verify_weak_linkage,
    }
    assert garbage_left(campaigns) == {"heavy5": 0, "w2l": 0}


def test_failures_carry_the_encoded_config(monkeypatch):
    monkeypatch.setattr(campaign, "any_plan", lambda *args, **kwargs: None)
    report = verify_all(LemmaId.HEAVY5, strict=True)
    assert report.failures == [
        {"config": encode_config(cfg), "problems": ["ORACLE_NONE"]}
        for cfg in enumerate_configs(LemmaId.HEAVY5)
    ]
    assert report.exit_status() == EXIT_ORACLE_DISAGREEMENT


def test_oracle_error_is_reported_not_raised(monkeypatch):
    """An oracle that raises on one configuration makes that configuration
    a failure that names it and the stage that raised, and the campaign
    exits as for a disagreement.  The oracle returned nothing, so there is
    no ``ORACLE_NONE``."""
    broken = list(enumerate_configs(LemmaId.HEAVY5))[7]
    error = RuntimeError("oracle broke")
    solve = campaign.any_plan

    def raising(g, cfg, contract):
        if cfg == broken:
            raise error
        return solve(g, cfg, contract)

    monkeypatch.setattr(campaign, "any_plan", raising)
    report = verify_all(LemmaId.HEAVY5, strict=True)
    assert report.failures == [
        {"config": encode_config(broken), "problems": [f"ORACLE_ERROR: {error!r}"]}
    ]
    assert report.valid == report.total - 1
    assert report.oracle_disagreements == 1
    assert report.exit_status() == EXIT_ORACLE_DISAGREEMENT


def test_route_error_is_reported_not_raised(monkeypatch):
    """A router that raises on one configuration makes that configuration
    a failure that names the routing stage; the oracle still agrees, so the
    campaign exits as for a validation failure."""
    broken = list(enumerate_configs(LemmaId.HEAVY5))[7]
    error = RuntimeError("router broke")
    original = campaign.route

    def raising(cfg, strict=False):
        if cfg == broken:
            raise error
        return original(cfg, strict=strict)

    monkeypatch.setattr(campaign, "route", raising)
    report = verify_all(LemmaId.HEAVY5, strict=True)
    assert report.failures == [
        {"config": encode_config(broken), "problems": [f"ROUTE_ERROR: {error!r}"]}
    ]
    assert report.valid == report.total - 1
    assert report.oracle_disagreements == 0
    assert report.exit_status() == EXIT_VALIDATION


def test_each_plan_validated_once_where_it_is_made(monkeypatch):
    """A ``--jobs 1`` heavy5 campaign calls ``validate_plan`` once per plan
    it produces: in ``route`` and on the oracle's witness.  The campaign
    re-checks each routed plan with one ``validate_plan_recheck`` of its
    own."""
    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def count(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(owner, name, count)

    for owner in (router, oracle, campaign):
        counting(owner, "validate_plan")
    counting(campaign, "validate_plan_recheck")
    report = verify_all(LemmaId.HEAVY5, strict=True)
    assert report.valid == report.total == 1260
    assert calls == {"validate_plan": 2520, "validate_plan_recheck": 1260}


def test_fallback_verdict_reaches_the_report(monkeypatch):
    """Outside strict mode a failed case falls back to the oracle's plan,
    which the oracle has validated and the campaign re-checks: each of the
    first 20 heavy5 configurations counts as a valid fallback.  In strict
    mode each is a case gap."""
    first = list(enumerate_configs(LemmaId.HEAVY5))[:20]

    def broken(cfg):
        raise router.CaseGap("construction failed")

    monkeypatch.setitem(router._CASES, LemmaId.HEAVY5, broken)
    monkeypatch.setattr(campaign, "enumerate_configs", lambda lemma: iter(first))
    report = verify_all(LemmaId.HEAVY5)
    assert (report.total, report.valid, report.fallbacks) == (20, 20, 20)
    assert report.case_histogram == {"fallback": 20}
    assert report.exit_status() == EXIT_OK
    strict = verify_all(LemmaId.HEAVY5, strict=True)
    assert (strict.valid, strict.case_gaps) == (0, 20)
    assert strict.exit_status() == EXIT_CASE_GAP


def test_taken_verdict_is_checked_against_the_campaign_contract(monkeypatch):
    """The campaign takes a routed plan as validated and checks it under
    its own contract with ``validate_plan_recheck``: a plan routed as
    another family's that breaks the heavy5 contract (one linkage dropped)
    is reported as a validator disagreement."""
    first = list(enumerate_configs(LemmaId.HEAVY5))[:20]
    original = campaign.route

    def other_family(cfg, strict=False):
        plan, trace = original(cfg, strict=strict)
        broken = EscapePlan(plan.linkages[:-1], plan.escapes)
        return broken, CaseTrace(
            LemmaId.HEAVY6, trace.case_labels, trace.used_fallback, trace.symmetry_applied
        )

    monkeypatch.setattr(campaign, "route", other_family)
    monkeypatch.setattr(campaign, "enumerate_configs", lambda lemma: iter(first))
    report = verify_all(LemmaId.HEAVY5, strict=True)
    assert (report.total, report.valid, len(report.failures)) == (20, 0, 20)
    assert all(f["problems"] == ["VALIDATOR_DISAGREEMENT"] for f in report.failures)
    assert report.exit_status() == EXIT_VALIDATION


def test_exit_status_priorities():
    report = CampaignReport(lemma="heavy5")
    report.total, report.valid = 1, 0
    report.failures.append({"config": {}, "problems": ["x"]})
    assert report.exit_status() == EXIT_VALIDATION
    report.oracle_disagreements = 1
    assert report.exit_status() == EXIT_ORACLE_DISAGREEMENT
    report.case_gaps = 1
    assert report.exit_status() == EXIT_CASE_GAP


def test_report_json_shape():
    report = verify_all(LemmaId.W2L)
    payload = report.to_json()
    assert payload["lemma"] == "w2l"
    assert payload["total"] == 6561 + 4096
    assert payload["valid"] == payload["total"]


def test_benchmark_tracer_finds_every_patch_point(monkeypatch):
    """The benchmark's tracer (read, never edited here) wraps package callables at
    the module and class attributes their callers look up; each must still
    be one, and restoring the tracer puts every original back."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    owners = (campaign, cli, kernel, kernel._impl, model, oracle, router, terminals, model.Path)
    before = [dict(vars(owner)) for owner in owners]
    tr = tracer.Tracer()
    try:
        tracer.trace_package(tr)
    finally:
        tr.restore()
    assert [dict(vars(owner)) for owner in owners] == before
