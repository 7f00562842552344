"""Tests for the benchmark harness: known-answer checks, the percentile
rule, self times, the tracer's restore and the seeded inputs.

They run small slices of the workloads against the committed
reference.json, so they take a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from escape3x3 import model, oracle, router  # noqa: E402
from escape3x3.grid import full_grid  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reference():
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def solve_slice(n=40):
    return workloads.canonical_items("solve")[:n]


def refute_slice(reference, n=3):
    """The first n refuted configurations and the n witnesses before them."""
    items = workloads.canonical_items("refute")
    first = reference["refute"]["infeasible"][:n]
    chosen = set(first) | {i - 1 for i in first}
    return [items[i] for i in sorted(chosen)]


def corrupt_route(monkeypatch, target_index, corrupt):
    """Make router.route return a corrupted plan for one configuration."""
    target = workloads.canonical_items("solve")[target_index][1]
    honest = router.route

    def route(cfg, strict=False):
        plan, trace = honest(cfg, strict=strict)
        return (corrupt(cfg, plan) if cfg == target else plan), trace

    monkeypatch.setattr(router, "route", route)


def swap_exits(cfg, plan):
    (t1, x1, p1), (t2, x2, p2) = plan.escapes[:2]
    return model.EscapePlan(plan.linkages, ((t1, x2, p1), (t2, x1, p2)) + plan.escapes[2:])


def _trails(grid, a, b):
    """Every edge-simple a-b trail in the grid, by depth-first search."""
    out, stack = [], [((a,), frozenset())]
    while stack:
        walk, used = stack.pop()
        if walk[-1] == b and len(walk) > 1:
            out.append(walk)
        for e in grid.edges:
            if walk[-1] in e and e not in used:
                nxt = e[1] if e[0] == walk[-1] else e[0]
                stack.append((walk + (nxt,), used | {e}))
    return out


def reuse_edge(cfg, plan):
    """Reroute the first escape along an edge another path already uses."""
    t, x, path = plan.escapes[0]
    others = {e for p in plan.all_paths() if p != path for e in p.edges()}
    for walk in _trails(full_grid(), t, x):
        p = model.Path(walk)
        if set(p.edges()) & others:
            return model.EscapePlan(plan.linkages, ((t, x, p),) + plan.escapes[1:])
    raise AssertionError("no edge-sharing reroute found")


def first_with_two_escapes():
    for index, cfg in solve_slice():
        if len(router.route(cfg, strict=True)[0].escapes) >= 2:
            return index
    raise AssertionError("no plan in the slice has two escapes")


def test_solve_slice_passes_its_check(reference):
    attempted, failed = workloads.check("solve", workloads.solve_pass(solve_slice()), reference)
    assert (attempted, failed) == (40, 0)


@pytest.mark.parametrize("corrupt", [swap_exits, reuse_edge])
def test_corrupted_plan_is_counted(reference, monkeypatch, corrupt):
    index = first_with_two_escapes()
    corrupt_route(monkeypatch, index, corrupt)
    p = workloads.solve_pass(solve_slice())
    assert not [ok for i, _, ok in p.outputs if i == index][0]
    assert workloads.check("solve", p, reference) == (40, 1)


def test_wrong_refute_set_is_counted(reference, monkeypatch):
    items = refute_slice(reference)
    attempted, failed = workloads.check("refute", workloads.refute_pass(items), reference)
    assert (attempted, failed) == (6, 0)
    honest = oracle.oracle_solve
    witness_cfg = items[0][1]
    monkeypatch.setattr(
        oracle, "oracle_solve",
        lambda g, cfg, contract: None if cfg == witness_cfg else honest(g, cfg, contract),
    )
    assert workloads.check("refute", workloads.refute_pass(items), reference) == (6, 1)


def test_gate_report_mismatch_is_counted(reference):
    reports = [dict(r, wall_time=1.0) for r in reference["gate"]]
    ok = workloads.Pass(1.0, [], [], (0, reports), [])
    assert workloads.check("gate", ok, reference) == (5, 0)
    reports[2] = dict(reports[2], valid=reports[2]["valid"] - 1)
    assert workloads.check("gate", workloads.Pass(1.0, [], [], (2, reports), []), reference) == (5, 2)


def test_failed_check_exits_nonzero(monkeypatch, tmp_path, capsys, spec):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    items = solve_slice(1100)
    monkeypatch.setattr(workloads, "canonical_items", lambda w: items)
    corrupt_route(monkeypatch, first_with_two_escapes(), swap_exits)
    status = run.main(["--workload", "solve", "--seed", "3", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert last["correct"] is False and last["failed"] == 1 and last["attempted"] == 1100
    assert {k: m["unit"] for k, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }


def test_percentile_rule():
    value, beyond = run.percentile(range(1, 1261), 99)
    assert (value, beyond) == (1248, 12)
    assert run.percentile(range(1, 1261), 50) == (630, 630)
    assert run.percentile(range(1000), 99)[1] == 10
    with pytest.raises(ValueError):
        run.percentile(range(999), 99)


def test_self_time_from_nested_spans():
    assert tracing.self_times([-1, 0, 0, 1], [0.0, 1.0, 5.0, 2.0], [10.0, 4.0, 7.0, 3.0]) == [
        5.0, 2.0, 2.0, 1.0,
    ]


def test_tracer_nests_spans_and_restores(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    ns = type("NS", (), {})()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(ns.inner(x))
    originals = dict(vars(ns))
    tr = tracing.Tracer()
    tr.wrap(ns, "inner", "inner", measure=lambda r: (r, r > 2))
    tr.wrap(ns, "outer", "outer", new_item=True)
    assert ns.outer(1) == 3
    tr.restore()
    assert vars(ns) == originals
    names = [tr.names[n] for n in tr.name]
    assert names == ["outer", "inner", "inner"]
    assert list(tr.parent) == [-1, 0, 0] and list(tr.item) == [0, 0, 0]
    assert list(tr.value) == [0, 2, 3] and list(tr.flag) == [0, 0, 1]
    # outer spans ticks 0..5, each inner one tick
    assert tracing.self_times(tr.parent, tr.t0, tr.t1) == [3.0, 1.0, 1.0]


def test_traced_pass_matches_untraced(reference, spec):
    from escape3x3 import campaign, kernel

    watched = [(kernel._impl, "find_trail_system"), (kernel, "solve_trails"),
               (router, "route"), (campaign, "_verify_one"), (model.Path, "__post_init__")]
    before = [vars(owner)[attr] for owner, attr in watched]
    items = solve_slice()
    plain = workloads.solve_pass(items)
    tr = tracing.Tracer()
    tracing.trace_package(tr)
    try:
        traced = workloads.solve_pass(items, tr)
    finally:
        tr.restore()
    assert [vars(owner)[attr] for owner, attr in watched] == before
    assert [workloads.plan_digest(p) for _, p, _ in traced.outputs] == [
        workloads.plan_digest(p) for _, p, _ in plain.outputs
    ]
    layers = tracing.layer_metrics(tr)
    assert layers["router.calls"] == 40
    assert layers["kernel_impl.calls"] == layers["kernel.calls"] == layers["router.kernel_calls"]
    assert layers["model.path_objects"] > 0
    setup = [dict.fromkeys(("import_s", "clip_catalog_s", "desc_for_s", "setup_s"), 0.1)]
    reported = run.per_layer(layers, plain, traced, setup)
    assert {k: m["unit"] for k, m in reported.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def test_seed_permutes_order_only(reference):
    a = workloads.seeded_items("refute", 1)
    b = workloads.seeded_items("refute", 2)
    assert a != b and sorted(a) == sorted(b) == workloads.canonical_items("refute")
    assert workloads.seeded_items("refute", 1) == a
    assert workloads.SEEDED == {"solve", "refute"}


def test_refuses_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", str(BENCH / "run.py"), "--workload", "solve",
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "gate",
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
