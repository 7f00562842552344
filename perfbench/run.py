"""Run one workload of the escape3x3 benchmark and print its metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 10 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

* ``gate``       ``escape3x3 verify --lemma all --strict --jobs 1`` in-process
                 through ``escape3x3.cli.main``; fixed enumeration, seed unused.
* ``gate-jobs2`` the same with ``--jobs 2``: the campaign's process pool.
* ``solve``      all 9,765 configurations in seeded order through
                 ``router.route(strict=True)`` and both validators.
* ``refute``     the oracle under the heavy6 contract on the 1,260
                 one-pair six-terminal configurations, 106 of them infeasible.

``--workload all`` runs the four in turn and prints one combined result.
With ``--trace 0`` a run repeats timed passes for ``--seconds`` (at least
one) and reports the end-to-end metrics; with ``--trace 1`` it makes one
untraced and one traced pass and reports per-layer metrics taken from spans
recorded around the package's layer boundaries (see tracer.py).  Every
output is checked against reference.json; any mismatch makes ``correct``
false and the exit status 1.  The last line of stdout is the result as
JSON; the full record, with the environment stamp, goes to perfbench/out/.
The package is imported from the checkout's ``src/``.

Times are rescaled to a reference host speed.  On a shared host the speed
of the same code drifts by 20% and more within minutes, so each pass times a
fixed unit of interpreter work (``workloads.calibration_unit``) between
items, at most every 20 ms, and divides by how much slower than CAL_REF_S
that unit ran: each item by the samples nearest it, and ``verdict_s`` by
the item-time-weighted mean of those factors.  The raw wall time is printed
beside the result.
Set-up time is rescaled the same way by a different yardstick: each fresh
interpreter that is timed to ready is followed at once by one that runs
SETUP_YARDSTICK, and the probe's times are divided by how much slower than
SETUP_REF_S that one ran.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("gate", "solve", "refute", "gate-jobs2")
SETUP_SAMPLES = 15
# A fresh interpreter running a fixed loop, and its time on the reference
# host.  Of the yardsticks tried (bare start-up, stdlib imports, dataclass
# and enum creation, the same loop inside the probe), this one tracked the
# probe's time under host interference most closely.
SETUP_YARDSTICK = "x = 0\nfor i in range(600000):\n    x += i * i % 7\n"
SETUP_REF_S = 0.15
CAL_REF_S = 4.0e-4  # workloads.calibration_unit on the reference host
LOCAL_SAMPLES = 5
TAIL = 99  # the highest percentile with >= MIN_BEYOND samples above it
MIN_BEYOND = 10

SETUP_PROBE = """\
import json, time
t0 = time.perf_counter()
import escape3x3.cli
from escape3x3 import kernel, toolkit
from escape3x3.grid import full_grid
t1 = time.perf_counter()
toolkit.clip_catalog()
t2 = time.perf_counter()
kernel.desc_for(full_grid())
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "clip_catalog_s": t2 - t1, "desc_for_s": t3 - t2}), flush=True)
"""


def percentile(samples, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it.

    Refuses a percentile with fewer than MIN_BEYOND samples beyond it.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p} of {len(ordered)} samples has {beyond} beyond it; need {MIN_BEYOND}"
        )
    return ordered[rank - 1], beyond


def local_factors(p) -> list[float]:
    """Each item's host factor, from the calibration samples taken nearest
    to it: the LOCAL_SAMPLES before and the LOCAL_SAMPLES after."""
    cal, n = p.cal_s, len(p.cal_s)
    prefix = [0.0]
    for c in cal:
        prefix.append(prefix[-1] + c)
    out = []
    for j in p.item_cal:
        lo, hi = max(0, j - LOCAL_SAMPLES), min(n, j + LOCAL_SAMPLES)
        out.append((prefix[hi] - prefix[lo]) / (hi - lo) / CAL_REF_S)
    return out


def rescale(p) -> tuple[float, list[float], float]:
    """A pass's verdict and item times at the reference host's speed, and
    the host factor used: each item is divided by its local factor, and
    the verdict by the item-time-weighted mean of those factors."""
    items = [s / f for s, f in zip(p.item_s, local_factors(p))]
    factor = sum(p.item_s) / sum(items)
    return p.verdict_s / factor, items, factor


def measure_setup(samples: int) -> list[dict]:
    """Start a fresh interpreter ``samples`` times and time each from launch
    to ready: imported, clip catalog loaded, first grid descriptor built.
    Each probe is followed by a fresh interpreter that runs SETUP_YARDSTICK,
    and the probe's times are rescaled by that one's speed against
    SETUP_REF_S; ``host_factor`` is the factor used and ``raw_setup_s`` the
    probe's unscaled time.  The in-process calibration unit is not used
    here: it tracked the probe's speed worse than no calibration at all."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = []
    for _ in range(samples):
        line, ready = launch(SETUP_PROBE, env)
        if not line:
            raise RuntimeError("set-up probe printed nothing")
        _, yardstick = launch(SETUP_YARDSTICK, env)
        factor = yardstick / SETUP_REF_S
        phases = {k: v / factor for k, v in json.loads(line).items()}
        phases.update(setup_s=ready / factor, raw_setup_s=ready, host_factor=factor)
        out.append(phases)
    return out


def launch(code: str, env: dict) -> tuple[str, float]:
    """Run ``code`` in a fresh interpreter; return its first line of output
    and the seconds from launch until that line (or exit, if it prints
    none)."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
    return line, ready


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git."""
    head_file = root / ".git" / "HEAD"
    if not head_file.is_file():
        return None
    head = head_file.read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_file = root / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment_stamp() -> dict:
    from escape3x3 import kernel

    return {
        "backend": kernel.BACKEND,
        "ESCAPE3X3_KERNEL": os.environ.get("ESCAPE3X3_KERNEL"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC / "escape3x3"),
    }


def metric(value, unit: str, n: int, note: str = "") -> dict:
    return {"value": value, "unit": unit, "n": n, "note": note}


def end_to_end(passes, setup, peak_rss_kb) -> dict:
    """Medians over the passes of a run, and over the set-up samples, of
    times rescaled to the reference host's speed."""
    n = len(passes[0].item_s)
    verdicts, items, factors = zip(*(rescale(p) for p in passes))
    verdict = statistics.median(verdicts)
    p50 = statistics.median(percentile(x, 50)[0] for x in items)
    tail = statistics.median(percentile(x, TAIL)[0] for x in items)
    per = (f"median of {len(passes)} passes; host factor "
           f"{statistics.median(factors):.3f}, raw verdict "
           f"{statistics.median(p.verdict_s for p in passes):.4g} s")
    return {
        "verdict_s": metric(verdict, "s", len(passes), per),
        "latency_p50_us": metric(p50 * 1e6, "us", n, f"{n} items per pass, {per}"),
        f"latency_p{TAIL}_us": metric(tail * 1e6, "us", n, f"{n} items per pass, {per}"),
        "setup_s": metric(statistics.median(s["setup_s"] for s in setup), "s", len(setup),
                          f"median of {len(setup)} fresh interpreters; host factor "
                          f"{statistics.median(s['host_factor'] for s in setup):.3f}, raw "
                          f"{statistics.median(s['raw_setup_s'] for s in setup):.4g} s"),
        "peak_rss_mb": metric(peak_rss_kb / 1024, "MB", 1,
                              "benchmark process plus pool workers"),
    }


def per_layer(layers, baseline, traced, setup) -> dict:
    units = {"_s": "s", "_us_per_call": "us", "_ratio": "ratio", "_per_item": "count"}
    out = {}
    for name, value in layers.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        out[name] = metric(value, unit, 1, "traced pass")
    for phase in ("import_s", "clip_catalog_s", "desc_for_s"):
        out[f"setup.{phase}"] = metric(statistics.median(s[phase] for s in setup), "s",
                                       len(setup), f"median of {len(setup)} fresh interpreters, "
                                       "rescaled like setup_s")
    ratio = rescale(traced)[0] / rescale(baseline)[0]
    out["trace.overhead_ratio"] = metric(ratio, "ratio", 1,
                                         "traced verdict_s over untraced verdict_s")
    return out


def execute(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """Run the workload and return its metrics and known-answer tally."""
    import tracer as tracing
    import workloads
    from escape3x3 import kernel, toolkit
    from escape3x3.grid import full_grid

    toolkit.clip_catalog()
    kernel.desc_for(full_grid())
    setup = measure_setup(SETUP_SAMPLES)
    items = workloads.seeded_items(workload, seed) if workload in workloads.SEEDED else None
    report_path = OUT / f"{workload}-seed{seed}-report.json"
    attempted = failed = 0

    def checked(p):
        nonlocal attempted, failed
        a, f = workloads.check(workload, p, reference)
        attempted += a
        failed += f
        p.outputs = None  # keep one pass's plans in memory, not every pass's
        return p

    if not trace:
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(checked(workloads.run_pass(workload, items, report_path)))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_kb += max(p.child_peak_kb for p in passes)
        metrics = end_to_end(passes, setup, peak_kb)
        spans_path = None
    else:
        baseline = checked(workloads.run_pass(workload, items, report_path))
        tracer = tracing.Tracer()
        tracing.trace_package(tracer, items_in_process=workloads.GATE_JOBS.get(workload, 1) == 1)
        try:
            if items is not None:
                items = workloads.seeded_items(workload, seed)
            traced = workloads.run_pass(workload, items, report_path, tracer)
        finally:
            tracer.restore()
        checked(traced)
        metrics = per_layer(tracing.layer_metrics(tracer), baseline, traced, setup)
        spans_path = OUT / f"{workload}-seed{seed}-spans.tsv.gz"
        tracer.write(spans_path)
    return {
        "workload": workload,
        "seed": seed,
        "seed_applies": workload in workloads.SEEDED,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs every workload, each in its own interpreter")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in turn, each in a fresh interpreter so that
    peak memory and set-up are its own, and print one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not __debug__:
        print("refusing to run under python -O: it strips the package's own "
              "assertions, so the program measured would not be the one shipped",
              file=sys.stderr)
        return 2
    if not (SRC / "escape3x3" / "__init__.py").is_file():
        print(f"no escape3x3 source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    OUT.mkdir(exist_ok=True)
    stamp = environment_stamp()
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    result["environment"] = stamp
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)

    print("environment: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"workload={args.workload} seed={args.seed}"
          f"{'' if result['seed_applies'] else ' (fixed enumeration; seed unused)'}")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}  (n={m['n']}; {m['note']})")
    print(f"  fail_ratio = {result['fail_ratio']:.6g}  "
          f"({result['failed']} of {result['attempted']} checks failed)")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
