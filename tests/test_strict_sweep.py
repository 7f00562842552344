"""Strict routing of every supported configuration, checked as a whole.

The plans are pinned to the digests recorded in ``perfbench/reference.json``
(the file is only read), so any change to what the router builds shows here.
The two in-case retries the case tree names are noted on the trace; each
must occur, and only in its own case.
"""

import hashlib
import json
import pathlib

import pytest

from escape3x3.model import Path, plan_to_json

REFERENCE = pathlib.Path(__file__).parents[1] / "perfbench" / "reference.json"
DIGEST_CHARS = 12


def _digest(plan) -> str:
    text = json.dumps(plan_to_json(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def assert_checked(path):
    """The path equals the checked path through its vertices, edges and all."""
    checked = Path(path.vertices)
    assert path == checked and path.edges() == checked.edges(), path


def test_plans_match_reference_digests(strict_sweep):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["solve"]
    assert reference["count"] == len(strict_sweep) == 9765
    digests = "".join(_digest(plan) for _, _, plan, _ in strict_sweep)
    mismatched = [
        i
        for i in range(len(strict_sweep))
        if digests[i * DIGEST_CHARS : (i + 1) * DIGEST_CHARS]
        != reference["item_digests"][i * DIGEST_CHARS : (i + 1) * DIGEST_CHARS]
    ]
    assert not mismatched, f"{len(mismatched)} plans differ, first at item {mismatched[0]}"


@pytest.mark.parametrize(
    "note, case, count",
    [("retry:unrestricted", "L3/b/S3", 18), ("retry:joint", "L3/c/S3-t2-in-row", 6)],
    ids=["unrestricted", "joint"],
)
def test_retry_notes_only_in_their_case(strict_sweep, note, case, count):
    noted = [trace for _, _, _, trace in strict_sweep if note in trace.case_labels[1:]]
    assert len(noted) == count
    assert {trace.case_labels[0] for trace in noted} == {case}


def test_one_routing_context_per_route(strict_sweep, strict_sweep_contexts):
    assert strict_sweep_contexts == len(strict_sweep) == 9765


def test_every_path_equals_its_checked_path(strict_sweep):
    """Kernel trails, reversals, reflections and joins are built unchecked;
    every path of every plan equals the checked path through its vertices."""
    for _, _, plan, _ in strict_sweep:
        for path in plan.all_paths():
            assert_checked(path)
