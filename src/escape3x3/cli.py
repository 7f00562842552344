"""Command-line interface.

Subcommands:
  verify     run a verification campaign over a full family enumeration
  solve      route one configuration from a JSON file
  clips      machine-verify the packaged clip catalog
  enumerate  dump a family enumeration as NDJSON
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .campaign import (
    EXIT_VALIDATION,
    report_to_text,
    verify_all,
)
from .grid import full_grid
from .model import plan_to_json
from .render import render_ascii, render_dot
from .router import UnsupportedFamily, route
from .terminals import (
    LemmaId,
    MalformedConfigError,
    config_to_ndjson_line,
    decode_config,
    enumerate_configs,
)
from .toolkit import clip_catalog, verify_clip


def _cmd_verify(args) -> int:
    lemmas = (
        [LemmaId.W2L, LemmaId.HEAVY78, LemmaId.HEAVY6, LemmaId.HEAVY5]
        if args.lemma == "all"
        else [LemmaId(args.lemma)]
    )
    if args.report:
        # fail before any campaign runs; append mode keeps an existing report
        try:
            open(args.report, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"cannot write {args.report}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    status = 0
    reports = []
    for lemma in lemmas:
        report = verify_all(lemma, strict=args.strict, jobs=args.jobs)
        reports.append(report)
        print(report_to_text(report))
        status = max(status, report.exit_status())
    if args.report:
        payload = [r.to_json() for r in reports]
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(payload if len(payload) > 1 else payload[0], fh, indent=2, sort_keys=True)
        except OSError as exc:
            print(f"cannot write {args.report}: {exc}", file=sys.stderr)
            return max(status, EXIT_VALIDATION)
        print(f"report written to {args.report}")
    return status


def _cmd_solve(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = decode_config(json.load(fh))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MalformedConfigError as exc:
        print(f"malformed config in {args.config}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        plan, trace = route(cfg, strict=args.strict)
    except UnsupportedFamily as exc:
        print(f"unsupported family: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    payload = {
        "plan": plan_to_json(plan),
        "trace": {
            "lemma": trace.lemma.value,
            "case_labels": list(trace.case_labels),
            "used_fallback": trace.used_fallback,
            "symmetry_applied": trace.symmetry_applied,
        },
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.render == "ascii":
        print(render_ascii(plan, cfg))
    elif args.render == "dot":
        print(render_dot(plan, cfg))
    return 0


def _cmd_clips(args) -> int:
    if not args.verify:
        for name in sorted(clip_catalog()):
            print(name)
        return 0
    grid = full_grid()
    bad = 0
    for name in sorted(clip_catalog()):
        verdict = verify_clip(grid, clip_catalog()[name])
        state = "ok" if verdict.ok else "FAIL"
        print(f"{name}: {state}")
        if not verdict.ok:
            bad += 1
            for viol in verdict.violations:
                print(f"    {viol.code.value}: {viol.message}")
    return 0 if bad == 0 else EXIT_VALIDATION


def _cmd_enumerate(args) -> int:
    try:
        configs = enumerate_configs(LemmaId(args.lemma), extended=args.extended)
    except ValueError as exc:
        print(f"invalid --extended: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    lines = [config_to_ndjson_line(cfg) for cfg in configs]
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"{len(lines)} configs written to {args.out}")
    else:
        for line in lines:
            print(line)
    return 0


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="escape3x3",
        description="Edge-disjoint escape routing on the 3x3 corner grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a full verification campaign")
    p_verify.add_argument(
        "--lemma",
        choices=["w2l", "heavy78", "heavy6", "heavy5", "all"],
        required=True,
    )
    p_verify.add_argument("--strict", action="store_true")
    p_verify.add_argument("--jobs", type=_jobs, default=1)
    p_verify.add_argument("--report", metavar="OUT.json")
    p_verify.set_defaults(fn=_cmd_verify)

    p_solve = sub.add_parser("solve", help="route one configuration")
    p_solve.add_argument("--config", required=True, metavar="FILE")
    p_solve.add_argument("--render", choices=["none", "ascii", "dot"], default="none")
    p_solve.add_argument("--strict", action="store_true")
    p_solve.set_defaults(fn=_cmd_solve)

    p_clips = sub.add_parser("clips", help="list or verify the clip catalog")
    p_clips.add_argument("--verify", action="store_true")
    p_clips.set_defaults(fn=_cmd_clips)

    p_enum = sub.add_parser("enumerate", help="dump a family enumeration")
    p_enum.add_argument(
        "--lemma", choices=["heavy78", "heavy6", "heavy5"], required=True
    )
    p_enum.add_argument("--out", metavar="FILE.ndjson")
    p_enum.add_argument(
        "--extended",
        action="store_true",
        help="include the oracle-only 1-pair + 4-singleton six-terminal family",
    )
    p_enum.set_defaults(fn=_cmd_enumerate)
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names and return its exit status; 1 when the
    reader of stdout has gone before the command's output is all written."""
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        # the last output may still be buffered: a reader gone by now
        # shows here, not in the interpreter's flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout to os.devnull, so that flush at exit writes nowhere and
        # raises nothing (the Python docs' SIGPIPE idiom)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
