"""Record reference.json, the known answers the benchmark checks against.

    python3 perfbench/record_reference.py

Runs gate (jobs 1), solve and refute once, in canonical order, and stores
the gate's campaign reports without their wall times plus a digest of every
plan and witness.  Run it only at a commit whose outputs are trusted: the
answers it records are the ones every later run must reproduce.
"""

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    reference = {}
    for workload in ("gate", "solve", "refute"):
        items = None if workload == "gate" else workloads.canonical_items(workload)
        p = workloads.run_pass(workload, items, run.OUT / "reference-report.json")
        reference[workload] = workloads.record_answers(workload, p)
        print(f"{workload}: recorded in {p.verdict_s:.1f} s", file=sys.stderr)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
