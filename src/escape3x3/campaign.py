"""Verification campaigns over complete enumerations.

A campaign routes every configuration of a family, re-checks each plan
(which the router has already validated) with the independent validator,
and cross-checks existence against the exhaustive oracle's existence
search (``oracle.any_plan``): the campaign needs only whether some plan
exists, not the oracle's lexicographically first witness.  Reports are
reproducible: identical inputs give identical reports apart from the wall
time.
"""

from __future__ import annotations

import json
import time

from .grid import Record, full_grid, grid_without_corner
# validate_plan is not called here; it stays a module attribute because
# perfbench/tracer.py wraps it
from .model import contract_for, validate_plan, validate_plan_recheck  # noqa: F401
from .oracle import any_plan, check_weakly_2_linked
# oracle_solve is not called here; it stays a module attribute because
# perfbench/tracer.py wraps it
from .oracle import oracle_solve  # noqa: F401
from .router import CASE_LABELS, CaseGap, route
from .terminals import LemmaId, encode_config, enumerate_configs

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ORACLE_DISAGREEMENT = 3
EXIT_CASE_GAP = 4

# Configurations per task the pool hands a worker at a time.
_CHUNK = 64

def ProcessPoolExecutor(max_workers: int):  # noqa: N802 - stands in for the class
    """A process pool of ``max_workers`` workers.  The pool class is
    imported here, when a campaign makes a pool: loading
    ``multiprocessing`` costs a fresh process tens of milliseconds, which
    every other command and ``--jobs 1`` would pay for nothing."""
    from concurrent.futures import ProcessPoolExecutor as pool_class

    return pool_class(max_workers=max_workers)


class CampaignReport(Record):
    """A campaign's counts, filled in as it runs; two reports are equal
    when every field is, ``wall_time`` included."""

    _fields = (
        "lemma",
        "total",
        "valid",
        "fallbacks",
        "case_histogram",
        "failures",
        "oracle_disagreements",
        "case_gaps",
        "dead_labels",
        "wall_time",
    )

    def __init__(
        self,
        lemma: str,
        total: int = 0,
        valid: int = 0,
        fallbacks: int = 0,
        case_histogram: dict[str, int] | None = None,
        failures: list | None = None,
        oracle_disagreements: int = 0,
        case_gaps: int = 0,
        dead_labels: list[str] | None = None,
        wall_time: float = 0.0,
    ):
        self.lemma = lemma
        self.total = total
        self.valid = valid
        self.fallbacks = fallbacks
        self.case_histogram = {} if case_histogram is None else case_histogram
        self.failures = [] if failures is None else failures
        self.oracle_disagreements = oracle_disagreements
        self.case_gaps = case_gaps
        self.dead_labels = [] if dead_labels is None else dead_labels
        self.wall_time = wall_time

    def exit_status(self) -> int:
        if self.case_gaps:
            return EXIT_CASE_GAP
        if self.oracle_disagreements:
            return EXIT_ORACLE_DISAGREEMENT
        if self.failures or self.valid != self.total:
            return EXIT_VALIDATION
        return EXIT_OK

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "total": self.total,
            "valid": self.valid,
            "fallbacks": self.fallbacks,
            "case_histogram": dict(sorted(self.case_histogram.items())),
            "failures": self.failures,
            "oracle_disagreements": self.oracle_disagreements,
            "case_gaps": self.case_gaps,
            "dead_labels": sorted(self.dead_labels),
            "wall_time": self.wall_time,
        }


def _verify_one(args):
    lemma_value, strict, cfg = args
    lemma = LemmaId(lemma_value)
    contract = contract_for(lemma)
    grid = full_grid()
    record = {
        "label": None,
        "fallback": False,
        "violations": [],
        "oracle_ok": True,
        "case_gap": False,
    }
    try:
        plan, trace = route(cfg, strict=strict)
        record["label"] = trace.case_labels[0]
        record["fallback"] = trace.used_fallback
        # route returns only plans validate_plan accepted
        if not validate_plan_recheck(grid, cfg, plan, contract).ok:
            record["violations"].append("VALIDATOR_DISAGREEMENT")
    except CaseGap as exc:
        record["case_gap"] = True
        record["violations"].append(f"CASE_GAP: {exc}")
    except Exception as exc:  # noqa: BLE001 - campaign reports, never raises
        record["violations"].append(f"ROUTE_ERROR: {exc!r}")
    try:
        if any_plan(grid, cfg, contract) is None:
            record["oracle_ok"] = False
            record["violations"].append("ORACLE_NONE")
    except Exception as exc:  # noqa: BLE001 - campaign reports, never raises
        record["oracle_ok"] = False
        record["violations"].append(f"ORACLE_ERROR: {exc!r}")
    return record


def verify_all(lemma: LemmaId, strict: bool = False, jobs: int = 1) -> CampaignReport:
    """Route, validate, and oracle-check every configuration of a family."""
    if lemma is LemmaId.W2L:
        return verify_weak_linkage()
    started = time.perf_counter()
    report = CampaignReport(lemma=lemma.value)
    configs = list(enumerate_configs(lemma))
    tasks = [(lemma.value, strict, cfg) for cfg in configs]
    if jobs > 1:
        # the pool starts every worker up front: no more than there are chunks
        workers = min(jobs, -(-len(tasks) // _CHUNK))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_verify_one, tasks, chunksize=_CHUNK))
    else:
        records = [_verify_one(t) for t in tasks]
    # pool.map, like the list comprehension, returns records in task order
    for cfg, rec in zip(configs, records):
        report.total += 1
        problems = rec["violations"]
        if not rec["oracle_ok"]:
            report.oracle_disagreements += 1
        if rec["case_gap"]:
            report.case_gaps += 1
        if rec["fallback"]:
            report.fallbacks += 1
        if rec["label"]:
            report.case_histogram[rec["label"]] = (
                report.case_histogram.get(rec["label"], 0) + 1
            )
        if problems:
            report.failures.append(
                {"config": encode_config(cfg), "problems": problems}
            )
        else:
            report.valid += 1
    report.dead_labels = sorted(CASE_LABELS[lemma] - set(report.case_histogram))
    report.wall_time = time.perf_counter() - started
    return report


def verify_weak_linkage() -> CampaignReport:
    """Exhaustive weak 2-linkage check on the corner grid and the grid
    without its far corner."""
    started = time.perf_counter()
    report = CampaignReport(lemma=LemmaId.W2L.value)
    for name, grid in (("corner-grid", full_grid()), ("without-corner", grid_without_corner())):
        tuples = len(grid.vertices) ** 4
        ok, witness = check_weakly_2_linked(grid)
        report.total += tuples
        if ok:
            report.valid += tuples
            report.case_histogram[name] = tuples
        else:
            report.failures.append({"graph": name, "counterexample": list(witness)})
    report.wall_time = time.perf_counter() - started
    return report


def report_to_text(report: CampaignReport) -> str:
    lines = [
        f"lemma={report.lemma} total={report.total} valid={report.valid} "
        f"fallbacks={report.fallbacks} case_gaps={report.case_gaps} "
        f"oracle_disagreements={report.oracle_disagreements}",
    ]
    for label in sorted(report.case_histogram):
        lines.append(f"  {label}: {report.case_histogram[label]}")
    if report.dead_labels:
        lines.append(f"  dead labels: {', '.join(report.dead_labels)}")
    for failure in report.failures[:20]:
        lines.append(f"  FAIL {json.dumps(failure, sort_keys=True)}")
    if len(report.failures) > 20:
        lines.append(f"  ... and {len(report.failures) - 20} more failures")
    lines.append(f"  wall_time={report.wall_time:.2f}s")
    return "\n".join(lines)
