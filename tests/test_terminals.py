import hashlib
import json
import pathlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escape3x3 import terminals
from escape3x3.grid import (
    GridError,
    GridGraph,
    build_corner_grid,
    full_grid,
    grid_without_corner,
    unique_l_path,
)
from escape3x3.model import (
    EscapePlan,
    Path,
    PathError,
    contract_for,
    validate_plan,
    validate_plan_recheck,
)
from escape3x3.terminals import (
    LemmaId,
    MalformedConfigError,
    TerminalConfig,
    config_to_ndjson_line,
    decode_config,
    demote_pair_to_singletons,
    encode_config,
    enumerate_configs,
    family_of,
    make_config,
)

EXPECTED_COUNTS = {
    LemmaId.HEAVY5: 1260,  # C(9,5) * C(5,2)
    LemmaId.HEAVY6: 3780,  # C(9,6) * 45
    LemmaId.HEAVY78: 4725,  # 9 * 105 + 36 * 7 * 15
}


@pytest.mark.parametrize("lemma", list(EXPECTED_COUNTS))
def test_enumeration_counts(lemma):
    assert sum(1 for _ in enumerate_configs(lemma)) == EXPECTED_COUNTS[lemma]


@pytest.mark.parametrize("lemma", list(EXPECTED_COUNTS))
def test_enumeration_duplicate_free(lemma):
    seen = set()
    for cfg in enumerate_configs(lemma):
        key = config_to_ndjson_line(cfg)
        assert key not in seen
        seen.add(key)


def test_enumeration_respects_invariants():
    for cfg in enumerate_configs(LemmaId.HEAVY6):
        terms = cfg.terminals
        assert len(set(terms)) == len(terms)
        assert len(terms) == 6


def test_extended_six_terminal_family():
    base = sum(1 for _ in enumerate_configs(LemmaId.HEAVY6))
    ext = sum(1 for _ in enumerate_configs(LemmaId.HEAVY6, extended=True))
    # one pair + four singletons: C(9,6) * C(6,2)
    assert ext - base == 84 * 15


def test_w2l_not_enumerated_here():
    with pytest.raises(ValueError):
        enumerate_configs(LemmaId.W2L)


@pytest.mark.parametrize("lemma", [LemmaId.HEAVY78, LemmaId.HEAVY5], ids=["heavy78", "heavy5"])
def test_extended_rejected_outside_heavy6(lemma):
    """``extended`` adds configurations to heavy6 only; on another family
    the call itself raises, before any configuration is made, and names the
    family by its value."""
    with pytest.raises(ValueError, match=f"heavy6 only, not {lemma.value}$"):
        enumerate_configs(lemma, extended=True)


ENUMERATION_DIGESTS = pathlib.Path(__file__).parent / "fixtures" / "enumeration-digests.json"


@pytest.mark.parametrize(
    "n_pairs, n_singles, count",
    [(4, 0, 945), (3, 1, 3780), (2, 2, 3780), (1, 3, 1260), (1, 4, 1260)],
)
def test_enumeration_is_pinned(n_pairs, n_singles, count):
    """Each shape's direct enumeration is, config by config, what
    ``make_config`` makes of it: all fields tuples, and the sha256 of its
    NDJSON lines joined by newlines and the sha256 of its pickles, in order,
    as in ``fixtures/enumeration-digests.json``."""
    configs = list(terminals._configs_with(n_pairs, n_singles))
    assert len(configs) == count
    assert configs == [make_config(c.pairs, c.singletons) for c in configs]
    for cfg in configs:
        assert type(cfg.pairs) is tuple and type(cfg.singletons) is tuple
        assert all(type(p) is tuple for p in cfg.pairs)
        assert all(type(v) is tuple for p in cfg.pairs for v in p)
        assert all(type(v) is tuple for v in cfg.singletons)
    expected = json.loads(ENUMERATION_DIGESTS.read_text(encoding="utf-8"))
    lines = "\n".join(config_to_ndjson_line(cfg) for cfg in configs)
    pickles = b"".join(pickle.dumps(cfg) for cfg in configs)
    assert {
        "ndjson": hashlib.sha256(lines.encode()).hexdigest(),
        "pickle": hashlib.sha256(pickles).hexdigest(),
    } == expected[f"{n_pairs}+{n_singles}"]


def test_round_trip_identity_over_heavy5():
    for cfg in enumerate_configs(LemmaId.HEAVY5):
        unread = TerminalConfig(cfg.pairs, cfg.singletons)
        assert len(cfg.terminals) == 5
        assert decode_config(encode_config(cfg)) == cfg
        # reading ``terminals`` changes no comparison, hash, repr, encoding or pickle
        assert cfg == unread and unread == cfg
        assert hash(cfg) == hash(unread) and repr(cfg) == repr(unread)
        assert encode_config(cfg) == encode_config(unread)
        assert pickle.dumps(cfg) == pickle.dumps(unread)
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg and copy.terminals == cfg.terminals


def test_decode_example():
    cfg = decode_config(
        {"pairs": [[[1, 1], [2, 2]]], "singletons": [[1, 2], [2, 1], [1, 3]]}
    )
    assert family_of(cfg) is LemmaId.HEAVY5


def test_decode_rejects_duplicate_vertex():
    with pytest.raises(MalformedConfigError):
        decode_config({"pairs": [[[1, 1], [1, 1]]], "singletons": []})


def test_decode_rejects_out_of_range():
    with pytest.raises(MalformedConfigError):
        decode_config({"pairs": [], "singletons": [[0, 1]]})


def test_decode_rejects_five_pairs():
    pairs = [
        [[1, 1], [1, 2]],
        [[1, 3], [2, 1]],
        [[2, 2], [2, 3]],
        [[3, 1], [3, 2]],
        [[3, 3], [2, 3]],
    ]
    with pytest.raises(MalformedConfigError):
        decode_config({"pairs": pairs, "singletons": []})


@pytest.mark.parametrize(
    "text",
    [
        '{"pairs": [[[true, 1], [2, 2]]], "singletons": [[1, 2], [1, 3], [2, 1]]}',
        '{"pairs": [[[1, 1], [2, 2]]], "singletons": [[1, 2], [1, 3], [2, true]]}',
    ],
    ids=["pair", "singleton"],
)
def test_decode_rejects_bool_coordinate(text):
    with pytest.raises(MalformedConfigError):
        decode_config(text)


def test_decode_rejects_unknown_key():
    text = '{"pairs": [[[1, 1], [2, 2]]], "singletons": [[1, 2], [1, 3], [2, 1]], "bogus": 1}'
    with pytest.raises(MalformedConfigError):
        decode_config(text)


@pytest.mark.parametrize(
    "pair",
    [{}, [[1, 1]], [[1, 1], [2, 2], [1, 2]]],
    ids=["object", "one-vertex", "three-vertices"],
)
def test_decode_rejects_bad_pair_shape(pair):
    with pytest.raises(MalformedConfigError):
        decode_config({"pairs": [pair]})


@pytest.mark.parametrize(
    "pair", [((1, 1),), ((1, 1), (1, 2), (1, 3))], ids=["one-vertex", "three-vertices"]
)
def test_make_config_rejects_bad_pair_shape(pair):
    """``make_config`` is public: a pair of other than two vertices is
    malformed, neither cut to its first two vertices nor an ``IndexError``."""
    with pytest.raises(MalformedConfigError, match=r"is not a pair of two vertices$"):
        make_config([pair], [(2, 2)])


@pytest.mark.parametrize(
    "text", ["not json", "[1", "[" * 100_000 + "]" * 100_000], ids=["word", "open-list", "deep"]
)
def test_decode_rejects_text_that_is_not_json(text):
    with pytest.raises(MalformedConfigError):
        decode_config(text)


def test_decode_from_string():
    text = json.dumps({"pairs": [], "singletons": [[1, 1]]})
    assert decode_config(text).singletons == ((1, 1),)


def test_demote_pair():
    cfg = make_config([((1, 1), (2, 2))], [])
    demoted = demote_pair_to_singletons(cfg, 0)
    assert demoted.pairs == ()
    assert set(demoted.singletons) == {(1, 1), (2, 2)}
    assert len(demoted.terminals) == len(cfg.terminals)
    with pytest.raises(IndexError):
        demote_pair_to_singletons(cfg, 1)


def test_demote_counts():
    cfg = make_config([((1, 1), (2, 2)), ((3, 1), (1, 3))], [(2, 3)])
    demoted = demote_pair_to_singletons(cfg, 1)
    assert len(demoted.pairs) == len(cfg.pairs) - 1
    assert len(demoted.singletons) == len(cfg.singletons) + 2


@st.composite
def heavy6_configs(draw):
    configs = heavy6_configs.cache
    return configs[draw(st.integers(0, len(configs) - 1))]


heavy6_configs.cache = list(enumerate_configs(LemmaId.HEAVY6))


@settings(max_examples=200, deadline=None)
@given(heavy6_configs())
def test_reflect_involution_on_configs(cfg):
    assert cfg.reflected().reflected() == cfg


def test_reflect_involution_over_whole_family():
    for cfg in enumerate_configs(LemmaId.HEAVY5):
        assert cfg.reflected().reflected() == cfg


def test_reflection_is_what_make_config_makes_of_the_mirrored_vertices():
    """On every configuration of the three routed families and of the
    extended heavy6 enumeration (11,025 in all), ``reflected`` builds,
    without checking anything again, the very pairs and singletons tuples
    that ``make_config`` makes of the swapped vertices, and reflecting twice
    gives the configuration back."""

    def swap(v):
        return (v[1], v[0])

    configs = [
        *enumerate_configs(LemmaId.HEAVY78),
        *enumerate_configs(LemmaId.HEAVY6, extended=True),
        *enumerate_configs(LemmaId.HEAVY5),
    ]
    assert len(configs) == 11_025
    for cfg in configs:
        mirror = cfg.reflected()
        made = make_config(
            [(swap(a), swap(b)) for a, b in cfg.pairs], [swap(s) for s in cfg.singletons]
        )
        assert (mirror.pairs, mirror.singletons) == (made.pairs, made.singletons), cfg
        back = mirror.reflected()
        assert (back.pairs, back.singletons) == (cfg.pairs, cfg.singletons), cfg


@settings(max_examples=100, deadline=None)
@given(heavy6_configs())
def test_reflect_preserves_family(cfg):
    assert family_of(cfg.reflected()) is family_of(cfg)


def test_exported_callables_reject_malformed_input_with_package_errors():
    """A vertex that is not a sequence is a malformed configuration, not a
    bare ``TypeError``, and a lemma given by its name is refused as not a
    ``LemmaId``, neither an ``AttributeError`` nor a missing contract."""
    for pairs, singletons in (([((1, 1), 5)], []), ([], [5])):
        with pytest.raises(MalformedConfigError, match=r"^terminal 5 is not a vertex$"):
            make_config(pairs, singletons)
    for call in (enumerate_configs, contract_for):
        with pytest.raises(ValueError, match=r"^expected a LemmaId, got 'heavy5'$"):
            call("heavy5")


def test_exported_callables_reject_malformed_containers_with_package_errors():
    """Pairs or singletons that cannot be iterated are a malformed
    configuration; deleted vertices that cannot be iterated are a
    ``GridError``, and a list of vertices counts as their set; a pair index
    that is not an int, a bool included, is a ``ValueError`` that names
    ``pair_index``.  No such call raises a bare ``TypeError``.  An int
    index out of range keeps its ``IndexError``."""
    with pytest.raises(MalformedConfigError, match=r"^pairs must be iterable, got None$"):
        make_config(None, [])
    with pytest.raises(MalformedConfigError, match=r"^singletons must be iterable, got None$"):
        make_config([], None)
    for deleted in (5, None):
        with pytest.raises(GridError, match=r"are not a set of vertices$"):
            build_corner_grid(deleted)
    assert build_corner_grid([(3, 3)]) is grid_without_corner()
    cfg = make_config([((1, 1), (2, 2))], [])
    for index in ("0", True, 0.0):
        with pytest.raises(ValueError, match=r"^pair_index must be an int, got "):
            demote_pair_to_singletons(cfg, index)
    with pytest.raises(IndexError):
        demote_pair_to_singletons(cfg, -1)


_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
# non-sequences, wrong lengths, bools, floats, strings, None and
# out-of-range ints, alone or nested, beside vertex-shaped tuples
_MALFORMED = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner),
        st.tuples(inner, inner),
        st.tuples(inner, inner, inner),
        st.dictionaries(st.text(max_size=2), inner, max_size=2),
    ),
    max_leaves=8,
)
_CFG = make_config([((1, 1), (2, 2)), ((1, 2), (3, 3))], [(2, 1)])


def _malformed_plans(junk):
    """Plans built by hand with ``junk`` in one place of their linkages or
    escapes and well-formed records elsewhere; the last also escapes from
    (1, 3), not a terminal of ``_CFG``, beside a junk terminal."""
    step, stay = Path(((2, 1), (3, 1))), Path(((1, 3),))
    return [
        EscapePlan(junk, ()),
        EscapePlan((), junk),
        EscapePlan((junk,), ()),
        EscapePlan(((junk, step),), ()),
        EscapePlan(((0, junk),), ()),
        EscapePlan((), (junk,)),
        EscapePlan((), ((junk, (3, 1), step),)),
        EscapePlan((), (((2, 1), junk, step),)),
        EscapePlan((), (((2, 1), (3, 1), junk),)),
        EscapePlan((), ((junk, (3, 1), step), ((1, 3), (1, 3), stay))),
    ]


def _exported_calls(junk):
    """(name, argument name, call) for each exported callable that takes
    input, with ``junk`` in one argument and well-formed values in the
    others, and for both validators (``validate_plan_recheck`` is not
    exported) with ``junk`` inside the plan's contents."""
    g, plan, contract = full_grid(), EscapePlan((), ()), contract_for(LemmaId.HEAVY6)
    plans = _malformed_plans(junk)
    return [
        *[
            (name, "plan", lambda check=check, p=p: check(g, _CFG, p, contract))
            for name, check in (
                ("validate_plan", validate_plan),
                ("validate_plan_recheck", validate_plan_recheck),
            )
            for p in plans
        ],
        ("make_config", "pairs", lambda: make_config(junk, [])),
        ("make_config", "singletons", lambda: make_config([], junk)),
        ("decode_config", "obj", lambda: decode_config(junk)),
        ("decode_config", "obj", lambda: decode_config({"pairs": junk})),
        ("decode_config", "obj", lambda: decode_config(json.dumps(junk))),
        ("demote_pair_to_singletons", "cfg", lambda: demote_pair_to_singletons(junk, 0)),
        ("demote_pair_to_singletons", "pair_index", lambda: demote_pair_to_singletons(_CFG, junk)),
        ("enumerate_configs", "lemma", lambda: enumerate_configs(junk)),
        ("enumerate_configs", "extended", lambda: enumerate_configs(LemmaId.HEAVY5, junk)),
        ("contract_for", "lemma", lambda: contract_for(junk)),
        ("Path", "vertices", lambda: Path(junk)),
        ("build_corner_grid", "deleted", lambda: build_corner_grid(junk)),
        ("GridGraph", "vertices", lambda: GridGraph(junk, frozenset())),
        ("GridGraph", "edges", lambda: GridGraph(frozenset(), junk)),
        ("unique_l_path", "u", lambda: unique_l_path(junk, (3, 1))),
        ("unique_l_path", "v", lambda: unique_l_path((1, 3), junk)),
        ("validate_plan", "g", lambda: validate_plan(junk, _CFG, plan, contract)),
        ("validate_plan", "cfg", lambda: validate_plan(g, junk, plan, contract)),
        ("validate_plan", "plan", lambda: validate_plan(g, _CFG, junk, contract)),
        ("validate_plan", "contract", lambda: validate_plan(g, _CFG, plan, junk)),
    ]


@settings(max_examples=300, deadline=None)
@given(junk=_MALFORMED)
def test_exported_callables_return_or_refuse_any_malformed_shape(junk):
    """Each exported callable that takes input, given a malformed shape in
    any one argument, returns, raises one of the package's own errors
    (``MalformedConfigError``, ``GridError``, ``PathError``), or raises a
    ``ValueError`` whose message names the argument, by name or by value;
    never a bare ``TypeError``, ``IndexError`` or ``AttributeError``.
    (``decode_config`` gets the shape as its object, as its pairs and as
    JSON text, and the validators get it inside a plan too.)"""
    for name, arg, call in _exported_calls(junk):
        try:
            call()
        except (MalformedConfigError, GridError, PathError):
            pass
        except ValueError as exc:
            named = (arg, repr(junk), str(junk))
            assert any(n in str(exc) for n in named), (name, arg, junk, exc)
        except Exception as exc:
            pytest.fail(f"{name}({arg}={junk!r}) raised {exc!r}")
