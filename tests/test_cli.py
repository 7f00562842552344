import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escape3x3 import router
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


@pytest.mark.parametrize("lemma", ["heavy78", "heavy5"])
def test_enumerate_rejects_extended_outside_heavy6(tmp_path, capsys, lemma):
    """``--extended`` adds configurations to heavy6 only; any other family
    rejects it and writes nothing."""
    out_path = tmp_path / f"{lemma}.ndjson"
    status = main(["enumerate", "--lemma", lemma, "--extended", "--out", str(out_path)])
    assert status == 2
    assert "--extended" in capsys.readouterr().err
    assert not out_path.exists()


def test_clips_verify(capsys):
    status = main(["clips", "--verify"])
    out = capsys.readouterr().out
    assert status == 0
    assert "FAIL" not in out


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
