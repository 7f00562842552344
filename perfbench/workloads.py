"""The benchmark's workloads: their inputs, one timed pass, and the check of
every output against the known answers in ``reference.json``.

``solve`` and ``refute`` take their item order from the seed and hand the
package only the configurations they generated; ``gate`` and ``gate-jobs2``
run the CLI's fixed enumeration and ignore the seed.  Answers never depend
on the seed: items are keyed by their index in the canonical enumeration.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from escape3x3 import campaign, cli, model, oracle, router, terminals
from escape3x3.grid import full_grid
from escape3x3.terminals import LemmaId

from tracer import Patches

SEEDED = frozenset({"solve", "refute"})
GATE_JOBS = {"gate": 1, "gate-jobs2": 2}
SOLVE_FAMILIES = (LemmaId.HEAVY78, LemmaId.HEAVY6, LemmaId.HEAVY5)
DIGEST_CHARS = 12  # per-item digest length in reference.json
NO_PLAN = "-" * DIGEST_CHARS
CALIBRATE_EVERY_S = 0.02


class _Cell:
    __slots__ = ("row", "col")

    def __init__(self, row, col):
        self.row = row
        self.col = col

    def key(self):
        return (self.row, self.col)


def calibration_unit() -> int:
    """A fixed piece of interpreter work made of the operations the package
    spends its time on: small objects, method calls, tuples, set lookups.
    Of the units tried, this one's time tracked the workloads' own under
    host interference most closely (log-log slope about 1.1)."""
    seen = set()
    keys = []
    for i in range(500):
        key = _Cell(i & 31, i >> 5).key()
        if key not in seen:
            seen.add(key)
            keys.append(key)
        if i % 100 == 0:
            keys.sort()
    return len(keys)


class Calibrator:
    """Times calibration_unit between items, at most every
    CALIBRATE_EVERY_S, so that a pass can be rescaled by how fast the host
    ran while it did.  ``spent_s`` is the time the calibration took.  Under
    a tracer each sample is a span of its own, so that no layer's self time
    includes it."""

    def __init__(self, tracer=None):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._due = 0.0
        self._tracer = tracer

    def tick(self) -> None:
        start = time.perf_counter()
        if start < self._due:
            return
        if self._tracer is None:
            calibration_unit()
        else:
            with self._tracer.span("benchmark.calibrate"):
                calibration_unit()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent_s += end - start
        self._due = end + CALIBRATE_EVERY_S

    def take(self) -> tuple[list[float], float]:
        """The samples and time spent since the last take."""
        out = (self.samples, self.spent_s)
        self.samples, self.spent_s = [], 0.0
        return out


@dataclass
class Pass:
    """One timed pass over a workload's items.

    ``verdict_s`` is wall time with the calibration's own time taken out;
    ``cal_s`` holds the calibration samples taken during the pass and
    ``item_cal[i]`` how many of them came before item i.
    """

    verdict_s: float
    item_s: list[float]
    item_cal: list[int]
    outputs: object  # what check() compares with the reference
    cal_s: list[float]
    child_peak_kb: int = 0  # peak RSS of one pool's workers, summed


def canonical_items(workload: str) -> list:
    """(index, config) pairs in the package's enumeration order."""
    if workload == "solve":
        cfgs = [c for lemma in SOLVE_FAMILIES for c in terminals.enumerate_configs(lemma)]
    elif workload == "refute":
        cfgs = [
            c
            for c in terminals.enumerate_configs(LemmaId.HEAVY6, extended=True)
            if len(c.pairs) == 1
        ]
    else:
        raise ValueError(f"{workload} has no generated items")
    return list(enumerate(cfgs))


def seeded_items(workload: str, seed: int) -> list:
    items = canonical_items(workload)
    random.Random(seed).shuffle(items)
    return items


def plan_digest(plan) -> str:
    if plan is None:
        return NO_PLAN
    text = json.dumps(model.plan_to_json(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def reference_digest(digests: str, index: int) -> str:
    return digests[index * DIGEST_CHARS : (index + 1) * DIGEST_CHARS]


# -- passes ------------------------------------------------------------------


def solve_pass(items, tracer=None) -> Pass:
    """route(strict) then both validators, per configuration; no oracle."""
    grid = full_grid()
    cal = Calibrator(tracer)
    clock = time.perf_counter
    item_s = []
    item_cal = []
    outputs = []
    start = clock()
    for index, cfg in items:
        if tracer is not None:
            tracer.item_id = index
        cal.tick()
        item_cal.append(len(cal.samples))
        t = clock()
        try:
            plan, trace = router.route(cfg, strict=True)
            contract = model.contract_for(trace.lemma)
            ok = (
                model.validate_plan(grid, cfg, plan, contract).ok
                and model.validate_plan_recheck(grid, cfg, plan, contract).ok
            )
        except Exception:  # noqa: BLE001 - a failed item is counted, not fatal
            plan, ok = None, False
        item_s.append(clock() - t)
        outputs.append((index, plan, ok))
    return Pass(clock() - start - cal.spent_s, item_s, item_cal, outputs, cal.samples)


def refute_pass(items, tracer=None) -> Pass:
    """The oracle under the heavy6 contract, per configuration."""
    grid = full_grid()
    contract = model.contract_for(LemmaId.HEAVY6)
    cal = Calibrator(tracer)
    clock = time.perf_counter
    item_s = []
    item_cal = []
    outputs = []
    start = clock()
    for index, cfg in items:
        if tracer is not None:
            tracer.item_id = index
        cal.tick()
        item_cal.append(len(cal.samples))
        t = clock()
        try:
            plan = oracle.oracle_solve(grid, cfg, contract)
        except Exception:  # noqa: BLE001 - a failed item is counted, not fatal
            plan = False  # no verdict; None is the oracle's refutation
        item_s.append(clock() - t)
        outputs.append((index, plan))
    return Pass(clock() - start - cal.spent_s, item_s, item_cal, outputs, cal.samples)


_worker_calibrator = None  # one per pool worker process


def timed_call(fn, arg):
    """Run one campaign item in a pool worker and time it there; return the
    worker's calibration samples since its previous item with it."""
    global _worker_calibrator
    if _worker_calibrator is None:
        _worker_calibrator = Calibrator()
    _worker_calibrator.tick()
    t = time.perf_counter()
    result = fn(arg)
    return result, time.perf_counter() - t, _worker_calibrator.take()


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def timed_pool(item_s: list, item_cal: list, cal: Calibrator, worker_peak_kb: list,
               tracer=None):
    """A ProcessPoolExecutor that times and calibrates each item in its
    worker, records the parent's waits for results, and reads each worker's
    peak RSS before the pool shuts its workers down."""

    class TimedPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            results = super().map(functools.partial(timed_call, fn), *iterables, **kwargs)
            while True:
                wait = tracer.span("campaign.pool_wait") if tracer else contextlib.nullcontext()
                with wait:
                    try:
                        result, seconds, (samples, spent) = next(results)
                    except StopIteration:
                        return
                cal.samples.extend(samples)
                cal.spent_s += spent
                item_s.append(seconds)
                item_cal.append(len(cal.samples))
                yield result

        def shutdown(self, *args, **kwargs):
            worker_peak_kb.append(sum(_vm_hwm_kb(pid) for pid in list(self._processes or ())))
            super().shutdown(*args, **kwargs)

    return TimedPool


def gate_pass(jobs: int, report_path, tracer=None) -> Pass:
    """``escape3x3 verify --lemma all --strict --jobs N`` through cli.main,
    with stdout captured and the JSON report written to ``report_path``."""
    item_s: list[float] = []
    item_cal: list[int] = []
    worker_peak_kb: list[int] = []
    cal = Calibrator(tracer)
    patches = Patches()
    if jobs > 1:
        patches.set(campaign, "ProcessPoolExecutor",
                    timed_pool(item_s, item_cal, cal, worker_peak_kb, tracer))
    else:
        patches.set(campaign, "_verify_one",
                    _timed_in_process(campaign._verify_one, item_s, item_cal, cal))
    argv = ["verify", "--lemma", "all", "--strict", "--jobs", str(jobs),
            "--report", str(report_path)]
    captured = io.StringIO()
    clock = time.perf_counter
    try:
        start = clock()
        with contextlib.redirect_stdout(captured):
            status = cli.main(argv)
        verdict_s = clock() - start - cal.spent_s / jobs
    finally:
        patches.restore()
    with open(report_path, encoding="utf-8") as fh:
        reports = json.load(fh)
    return Pass(verdict_s, item_s, item_cal, (status, reports), cal.samples,
                max(worker_peak_kb, default=0))


def _timed_in_process(fn, sink, item_cal, cal):
    clock = time.perf_counter

    def timed(*args):
        cal.tick()
        item_cal.append(len(cal.samples))
        t = clock()
        result = fn(*args)
        sink.append(clock() - t)
        return result

    return timed


def run_pass(workload: str, items, report_path, tracer=None) -> Pass:
    if workload == "solve":
        return solve_pass(items, tracer)
    if workload == "refute":
        return refute_pass(items, tracer)
    return gate_pass(GATE_JOBS[workload], report_path, tracer)


# -- known answers -----------------------------------------------------------


def gate_answer(reports) -> list:
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in reports]


def check(workload: str, p: Pass, reference: dict) -> tuple[int, int]:
    """(attempted, failed) for one pass against the known answers.

    gate: each lemma report (every to_json field but wall_time) and the exit
    status is one check.  solve: a configuration fails unless both
    validators accept its plan and the plan's digest matches.  refute: a
    configuration fails if its refutation or its witness digest differs.
    """
    if workload in GATE_JOBS:
        status, reports = p.outputs
        expected = reference["gate"]
        got = gate_answer(reports)
        failed = sum(
            g != e for g, e in zip(got + [None] * len(expected), expected)
        ) + (status != 0)
        return len(expected) + 1, failed
    ref = reference[workload]
    digests = ref["item_digests"]
    failed = 0
    if workload == "solve":
        for index, plan, ok in p.outputs:
            if not ok or plan_digest(plan) != reference_digest(digests, index):
                failed += 1
    else:
        for index, plan in p.outputs:
            if plan is False or plan_digest(plan) != reference_digest(digests, index):
                failed += 1
    return len(p.outputs), failed


def record_answers(workload: str, p: Pass):
    """The reference entry a pass in canonical order produces."""
    if workload in GATE_JOBS:
        return gate_answer(p.outputs[1])
    plans = [out[1] for out in sorted(p.outputs, key=lambda out: out[0])]
    entry = {
        "count": len(plans),
        "item_digests": "".join(plan_digest(plan) for plan in plans),
    }
    if workload == "refute":
        entry["infeasible"] = [i for i, plan in enumerate(plans) if plan is None]
    return entry
