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

from escape3x3.model import plan_to_json
from escape3x3.router import route
from escape3x3.terminals import LemmaId, enumerate_configs

REFERENCE = pathlib.Path(__file__).parents[1] / "perfbench" / "reference.json"
DIGEST_CHARS = 12


@pytest.fixture(scope="module")
def sweep():
    return [
        (cfg, *route(cfg, strict=True))
        for lemma in (LemmaId.HEAVY78, LemmaId.HEAVY6, LemmaId.HEAVY5)
        for cfg in enumerate_configs(lemma)
    ]


def _digest(plan) -> str:
    text = json.dumps(plan_to_json(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def test_plans_match_reference_digests(sweep):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["solve"]
    assert reference["count"] == len(sweep) == 9765
    digests = "".join(_digest(plan) for _, plan, _ in sweep)
    mismatched = [
        i
        for i in range(len(sweep))
        if digests[i * DIGEST_CHARS : (i + 1) * DIGEST_CHARS]
        != reference["item_digests"][i * DIGEST_CHARS : (i + 1) * DIGEST_CHARS]
    ]
    assert not mismatched, f"{len(mismatched)} plans differ, first at item {mismatched[0]}"


@pytest.mark.parametrize(
    "note, case, count",
    [("retry:unrestricted", "L3/b/S3", 18), ("retry:joint", "L3/c/S3-t2-in-row", 6)],
    ids=["unrestricted", "joint"],
)
def test_retry_notes_only_in_their_case(sweep, note, case, count):
    noted = [trace for _, _, trace in sweep if note in trace.case_labels[1:]]
    assert len(noted) == count
    assert {trace.case_labels[0] for trace in noted} == {case}
