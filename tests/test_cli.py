import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escape3x3 import cli, router
from escape3x3.cli import main
from escape3x3.grid import full_grid
from escape3x3.model import contract_for, plan_to_json
from escape3x3.oracle import oracle_solve
from escape3x3.terminals import (
    LemmaId,
    MalformedConfigError,
    TerminalConfig,
    decode_config,
)
from escape3x3.toolkit import ClipSpec


TESTS = pathlib.Path(__file__).parent

# runs cli.main on its arguments in a fresh interpreter, then prints the exit
# status and which of the process pool's modules the run loaded
_FRESH_RUN = """\
import contextlib, io, sys
from escape3x3.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
pool = ("multiprocessing", "concurrent.futures.process")
print(status, *[name for name in pool if name in sys.modules])
"""


def _write_cfg(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_solve_prints_plan_and_renders(tmp_path, capsys):
    path = _write_cfg(
        tmp_path,
        {"pairs": [[[1, 1], [2, 2]]], "singletons": [[1, 2], [2, 1], [1, 3]]},
    )
    status = main(["solve", "--config", path, "--render", "ascii"])
    out = capsys.readouterr().out
    assert status == 0
    payload = json.loads(out[: out.index("\n■")] if "■" in out else out)
    assert len(payload["plan"]["escapes"]) == 3
    assert len(payload["plan"]["linkages"]) == 1
    assert payload["trace"]["used_fallback"] is False


def test_solve_fixture_trace_names_lemma_and_clip_family(tmp_path, capsys):
    cfg = {"pairs": [[[1, 2], [2, 1]], [[2, 2], [2, 3]]], "singletons": [[1, 1], [1, 3]]}
    status = main(["solve", "--config", _write_cfg(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert status == 0
    payload = json.loads(out)
    assert payload["trace"]["case_labels"][0].startswith("L3/")


def test_solve_falls_back_to_the_oracle(tmp_path, capsys, monkeypatch):
    """Without ``--strict``, a case handler that cannot complete hands the
    configuration to the oracle: ``solve`` prints the oracle's plan, marks
    the trace as a fallback and exits 0."""
    payload = {"pairs": [[[1, 1], [2, 2]]], "singletons": [[1, 2], [2, 1], [1, 3]]}
    cfg = decode_config(payload)

    def broken(cfg):
        raise router.CaseGap("construction failed")

    monkeypatch.setitem(router._CASES, LemmaId.HEAVY5, broken)
    status = main(["solve", "--config", _write_cfg(tmp_path, payload)])
    out = json.loads(capsys.readouterr().out)
    assert status == 0
    assert out["trace"]["used_fallback"] is True
    assert out["trace"]["case_labels"] == ["fallback"]
    witness = oracle_solve(full_grid(), cfg, contract_for(LemmaId.HEAVY5))
    assert out["plan"] == plan_to_json(witness)


def test_solve_rejects_malformed(tmp_path, capsys):
    for cfg in (
        {"pairs": [[[1, 1], [1, 1]]], "singletons": []},
        {"pairs": [[[True, 1], [2, 2]]], "singletons": [[1, 2], [1, 3], [2, 1]]},
        {"pairs": [{}]},
    ):
        path = _write_cfg(tmp_path, cfg)
        status = main(["solve", "--config", path])
        assert status == 2
        assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [b'{"pairs": [], "singletons": [[1, 1]], "note": "\xff"}', b"[" * 100_000],
    ids=["not-utf8", "nested-past-recursion-limit"],
)
def test_solve_rejects_unreadable(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    status = main(["solve", "--config", str(path)])
    assert status == 2
    assert "cannot read config" in capsys.readouterr().err


def test_solve_rejects_unsupported_family(tmp_path, capsys):
    cfg = {
        "pairs": [[[1, 1], [2, 2]], [[1, 2], [2, 1]], [[1, 3], [3, 1]]],
        "singletons": [],
    }
    status = main(["solve", "--config", _write_cfg(tmp_path, cfg)])
    assert status == 2
    assert "demote" in capsys.readouterr().err


def test_solve_render_dot(tmp_path, capsys):
    path = _write_cfg(
        tmp_path,
        {"pairs": [[[1, 1], [2, 2]]], "singletons": [[1, 2], [2, 1], [1, 3]]},
    )
    status = main(["solve", "--config", path, "--render", "dot"])
    out = capsys.readouterr().out
    assert status == 0
    assert "graph escape {" in out


def test_enumerate_writes_ndjson(tmp_path, capsys):
    out_path = tmp_path / "heavy5.ndjson"
    status = main(["enumerate", "--lemma", "heavy5", "--out", str(out_path)])
    assert status == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1260
    assert all(json.loads(line) for line in lines)


def test_enumerate_reports_an_unwritable_out(tmp_path, capsys):
    out_path = tmp_path / "missing" / "out.json"
    status = main(["enumerate", "--lemma", "heavy5", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert status == 2
    assert f"cannot write {out_path}:" in captured.err
    assert "written" not in captured.out
    assert not out_path.exists()


@pytest.mark.parametrize("lemma", ["heavy78", "heavy5"])
def test_enumerate_rejects_extended_outside_heavy6(tmp_path, capsys, lemma):
    """``--extended`` adds configurations to heavy6 only; any other family
    rejects it and writes nothing."""
    out_path = tmp_path / f"{lemma}.ndjson"
    status = main(["enumerate", "--lemma", lemma, "--extended", "--out", str(out_path)])
    assert status == 2
    assert "--extended" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--config", str(TESTS / "fixtures" / "l2-b-pair-singleton.json")],
        ["verify", "--lemma", "heavy5", "--strict", "--jobs", "1"],
    ],
    ids=["solve", "verify-jobs1"],
)
def test_fresh_process_does_not_load_the_pool(argv):
    """Only a campaign that makes a process pool imports it, so a command
    that makes none starts without ``multiprocessing``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split() == ["0"], done.stdout


def _run_under_hash_seed(seed, argv):
    """The stdout bytes of ``escape3x3`` run on ``argv`` in a fresh
    interpreter under ``PYTHONHASHSEED=seed``."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "escape3x3.cli", *argv],
        env=env, capture_output=True, timeout=120, check=True,
    )
    return done.stdout


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Set and dict orders change with ``PYTHONHASHSEED``, and no output
    does: the report of a strict heavy5 campaign, without its
    ``wall_time`` line, and a ``solve --render dot`` of one fixture
    configuration are the same bytes under hash seeds 1 and 2."""
    config = str(TESTS / "fixtures" / "l2-b-pair-singleton.json")
    outputs = []
    for seed in (1, 2):
        report = tmp_path / f"report-{seed}.json"
        argv = ["verify", "--lemma", "heavy5", "--strict", "--report", str(report)]
        _run_under_hash_seed(seed, argv)
        lines = report.read_bytes().splitlines(keepends=True)
        kept = [line for line in lines if b'"wall_time":' not in line]
        assert len(kept) == len(lines) - 1
        dot = _run_under_hash_seed(seed, ["solve", "--config", config, "--render", "dot"])
        assert b"graph escape {" in dot
        outputs.append((b"".join(kept), dot))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--config", str(TESTS / "fixtures" / "l2-b-pair-singleton.json"), "--render", "dot"],
        ["enumerate", "--lemma", "heavy78"],
    ],
    ids=["solve-dot", "enumerate"],
)
def test_closed_stdout_ends_quietly_with_status_1(argv):
    """A command whose reader has gone, as under ``| head -1``, exits with
    status 1 and writes nothing to stderr: no ``BrokenPipeError``
    traceback.  The pipe's read end is closed before the child starts, so
    its first write already fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")])
    )
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "escape3x3.cli", *argv],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stderr) == (1, "")


def test_clips_verify(capsys):
    status = main(["clips", "--verify"])
    out = capsys.readouterr().out
    assert status == 0
    assert "FAIL" not in out


def test_clips_verify_prints_each_violation_of_a_failing_clip(capsys, monkeypatch):
    """A clip that fails ``verify_clip`` prints ``name: FAIL`` and then one
    indented ``CODE: message`` line per violation, and the command exits
    with the validation status."""
    broken = ClipSpec("broken", (2, 2), (3, 1), "AA", frozenset({((2, 2), (3, 2))}))
    monkeypatch.setattr(cli, "clip_catalog", lambda: {"broken": broken})
    status = main(["clips", "--verify"])
    assert status == 2
    assert capsys.readouterr().out.splitlines() == [
        "broken: FAIL",
        "    BAD_ENDPOINT: clip broken anchors off the boundary",
        "    BAD_ENDPOINT: clip broken kind mismatch",
        "    NOT_A_PATH: clip broken cannot mate (2, 2), (3, 2) to (2, 2), (3, 1)",
    ]


def test_verify_heavy5_strict_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    status = main(
        ["verify", "--lemma", "heavy5", "--strict", "--report", str(report_path)]
    )
    assert status == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["total"] == 1260
    assert report["valid"] == 1260
    assert report["fallbacks"] == 0
    assert report["dead_labels"] == []


def test_verify_w2l(capsys):
    status = main(["verify", "--lemma", "w2l"])
    out = capsys.readouterr().out
    assert status == 0
    assert "total=10657" in out


def test_verify_reports_an_unwritable_report(tmp_path, capsys, monkeypatch):
    """A report that cannot be opened fails the command with a validation
    status before any campaign runs, instead of after all of them."""

    def no_campaign(*args, **kwargs):
        raise AssertionError("a campaign ran")

    monkeypatch.setattr(cli, "verify_all", no_campaign)
    report_path = tmp_path / "missing" / "out.json"
    status = main(["verify", "--lemma", "all", "--report", str(report_path)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert f"cannot write {report_path}:" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_verify_rejects_bad_jobs(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lemma", "w2l", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1, 4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=5)
    | st.dictionaries(
        st.sampled_from(["pairs", "singletons"]) | st.text(max_size=3), kids, max_size=3
    ),
    max_leaves=24,
)
# near-configs: the two known keys over lists of short coordinate lists
_vertex_like = st.lists(st.integers(0, 4) | st.booleans(), min_size=1, max_size=3)
_config_like = st.dictionaries(
    st.sampled_from(["pairs", "singletons"]),
    st.lists(st.lists(_vertex_like, min_size=1, max_size=3) | _vertex_like, max_size=5),
)


@settings(max_examples=200, deadline=None)
@given((_json_values | _config_like).filter(lambda v: not isinstance(v, str)))
def test_decode_and_solve_fuzzed_config(tmp_path_factory, value):
    """Any JSON value decodes to a config or is rejected as malformed, and
    ``solve`` on it exits 0 or 2 without raising."""
    try:
        decoded = decode_config(value)
    except MalformedConfigError:
        decoded = None
    else:
        assert isinstance(decoded, TerminalConfig)
    path = tmp_path_factory.getbasetemp() / "fuzzed-config.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = main(["solve", "--config", str(path)])
    assert status in ((0, 2) if decoded is not None else (2,))
