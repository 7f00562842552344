"""The package's record classes: construction, equality, hashing, repr
and immutability.

One instance of each record class is built with its constructor, by
position and by keyword alike.  Equality and hashing read the record's
compared fields as one tuple, ``repr`` names the same fields in order, no
record has an order, and no field of a frozen record can be assigned."""

import pytest

from escape3x3 import grid, kernel
from escape3x3.campaign import CampaignReport
from escape3x3.grid import BOUNDARY, COL_ONLY, GridGraph, full_grid
from escape3x3.model import Code, EscapeContract, EscapePlan, Path, Verdict, Violation
from escape3x3.router import CaseTrace
from escape3x3.terminals import LemmaId, TerminalConfig
from escape3x3.toolkit import ClipSpec, RoutingContext

from conftest import record_classes

_G = full_grid()
_DESC = kernel.desc_for.__wrapped__(_G)  # a descriptor with memos of its own
_P = Path(((1, 1), (1, 2), (2, 2)))
_CFG = TerminalConfig((((1, 1), (2, 2)),), ((1, 2), (3, 3)))


def _records():
    """(class, positional arguments, keyword arguments, compared fields,
    frozen) for one instance of each record class; the two argument forms
    build equal records."""
    sink_args = (_DESC, _DESC.adj, 9, 1 << 12, 1 << 12)
    return [
        (
            GridGraph,
            (_G.vertices, _G.edges),
            {"vertices": _G.vertices, "edges": _G.edges},
            ("vertices", "edges"),
            True,
        ),
        (Path, (_P.vertices,), {"vertices": _P.vertices}, ("vertices",), True),
        (
            EscapeContract,
            (1, BOUNDARY, 1, COL_ONLY),
            {"min_linked_pairs": 1, "exit_target": BOUNDARY, "max_exits_in_restricted": 1},
            ("min_linked_pairs", "exit_target", "max_exits_in_restricted", "restricted_zone"),
            True,
        ),
        (
            Violation,
            (Code.EDGE_REUSE, "edge used twice"),
            {"code": Code.EDGE_REUSE, "message": "edge used twice"},
            ("code", "message"),
            True,
        ),
        (
            Verdict,
            ((Violation(Code.LINK_COUNT, "none"),),),
            {"violations": (Violation(Code.LINK_COUNT, "none"),)},
            ("violations",),
            True,
        ),
        (
            EscapePlan,
            (((0, _P),), (((3, 3), (3, 3), Path(((3, 3),))),)),
            {"linkages": ((0, _P),), "escapes": (((3, 3), (3, 3), Path(((3, 3),))),)},
            ("linkages", "escapes"),
            True,
        ),
        (
            TerminalConfig,
            (_CFG.pairs, _CFG.singletons),
            {"pairs": _CFG.pairs, "singletons": _CFG.singletons},
            ("pairs", "singletons"),
            True,
        ),
        (
            kernel.GraphDesc,
            (_DESC.vertices, _DESC.edges, _DESC.adj, _DESC.vindex, _DESC.ebit, _DESC.step),
            {
                "vertices": _DESC.vertices,
                "edges": _DESC.edges,
                "adj": _DESC.adj,
                "vindex": _DESC.vindex,
                "ebit": _DESC.ebit,
                "step": _DESC.step,
            },
            ("vertices", "edges", "adj"),
            True,
        ),
        (
            kernel.SinkDesc,
            sink_args,
            dict(zip(("grid", "adj", "sink", "virtual", "exit_edges"), sink_args)),
            ("grid", "adj", "sink", "virtual", "exit_edges"),
            True,
        ),
        (
            RoutingContext,
            (_CFG,),
            {"cfg": _CFG},
            ("cfg", "free", "trails", "linked", "escaped", "label", "notes"),
            False,
        ),
        (
            ClipSpec,
            ("c", (3, 1), (3, 2), "AA", frozenset({((3, 1), (3, 2))})),
            {
                "name": "c",
                "u": (3, 1),
                "v": (3, 2),
                "kind": "AA",
                "edges": frozenset({((3, 1), (3, 2))}),
            },
            ("name", "u", "v", "kind", "edges"),
            True,
        ),
        (
            CaseTrace,
            (LemmaId.HEAVY5, ("L4/a",), False, True),
            {"lemma": LemmaId.HEAVY5, "case_labels": ("L4/a",), "symmetry_applied": True},
            ("lemma", "case_labels", "used_fallback", "symmetry_applied"),
            True,
        ),
        (
            CampaignReport,
            ("heavy5",),
            {"lemma": "heavy5"},
            (
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
            ),
            False,
        ),
    ]


RECORDS = _records()


def test_every_record_class_is_listed():
    assert len(RECORDS) == 13
    assert len({cls for cls, *_ in RECORDS}) == 13


def test_every_record_class_takes_its_methods_from_the_base():
    """With every package module imported, the classes below
    ``grid.Record``, at any depth and ``grid.Frozen`` aside, are exactly
    the listed record classes, and none of them writes its own equality,
    hashing, repr or key."""
    found = set(record_classes())
    assert found - {grid.Frozen} == {cls for cls, *_ in RECORDS}
    own = [
        f"{cls.__qualname__}.{name}"
        for cls in found - {grid.Frozen}
        for name in ("__eq__", "__hash__", "__repr__", "_key")
        if name in vars(cls)
    ]
    assert not own, sorted(own)


@pytest.mark.parametrize(
    "cls, args, kwargs, compared, frozen", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_behaviour(cls, args, kwargs, compared, frozen):
    x, y = cls(*args), cls(**kwargs)
    key = tuple(getattr(x, f) for f in compared)
    # equality reads the compared fields, as one tuple, of the same class only
    assert x == y and not x != y
    assert key == tuple(getattr(y, f) for f in compared)
    assert x.__eq__(key) is NotImplemented and x != key
    # repr names the same fields, in order
    body = ", ".join(f"{f}={getattr(x, f)!r}" for f in compared)
    assert repr(x) == f"{cls.__qualname__}({body})"
    if frozen:
        assert hash(x) == hash(y) == hash(key)
        for f in compared:
            with pytest.raises(AttributeError):
                setattr(x, f, getattr(x, f))
        assert x == y
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(x)
        setattr(x, compared[-1], getattr(y, compared[-1]))


def test_no_record_has_an_instance_dict():
    """Each record keeps its fields, and the state it owns beyond them, in
    slots of its class, and its constructor fills every slot."""
    for cls, args, *_ in RECORDS:
        x = cls(*args)
        assert not hasattr(x, "__dict__"), cls.__name__
        slots = cls.__dict__.get("__slots__", ())
        assert set(cls._fields) <= set(slots), cls.__name__
        empty = []
        for name in slots:
            try:
                cls.__dict__[name].__get__(x)
            except AttributeError:
                empty.append(name)
        assert not empty, (cls.__name__, empty)


def test_path_fields_and_order():
    p, q = Path(((1, 1), (1, 2))), Path(((1, 1), (2, 1)))
    with pytest.raises(TypeError):  # paths have no order
        p < q  # noqa: B015 - the comparison is what is checked
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        p._edges = ()
    # the kept edges take no part in equality, hashing or repr
    assert Path._trusted(p.vertices, ()) == p
    assert repr(p) == "Path(vertices=((1, 1), (1, 2)))"


def test_terminal_config_order_and_terminals():
    cfg, other = TerminalConfig(_CFG.pairs, _CFG.singletons), TerminalConfig((), ((1, 1),))
    assert cfg.terminals == ((1, 1), (2, 2), (1, 2), (3, 3))
    assert cfg == _CFG and hash(cfg) == hash(_CFG) and repr(cfg) == repr(_CFG)
    with pytest.raises(TypeError):  # configurations have no order
        other < cfg  # noqa: B015 - the comparison is what is checked


def test_record_defaults_are_fresh_per_instance():
    assert EscapeContract(1, BOUNDARY, None).restricted_zone == COL_ONLY
    assert Verdict().violations == () and Verdict().ok
    trace = CaseTrace(LemmaId.HEAVY6, ("L3/a/pair-on-L",))
    assert (trace.used_fallback, trace.symmetry_applied) == (False, False)
    a, b = CampaignReport("w2l"), CampaignReport("w2l")
    assert (a.total, a.valid, a.fallbacks, a.wall_time) == (0, 0, 0, 0.0)
    for f in ("case_histogram", "failures", "dead_labels"):
        assert getattr(a, f) == getattr(b, f) and getattr(a, f) is not getattr(b, f)
    c, d = (RoutingContext(_CFG) for _ in range(2))
    for f in ("linked", "escaped", "notes"):
        assert not getattr(c, f) and getattr(c, f) is not getattr(d, f)
    for f in ("free", "trails"):
        assert getattr(c, f) == getattr(d, f) and getattr(c, f) is not getattr(d, f)
    one, two = (kernel.desc_for.__wrapped__(_G) for _ in range(2))
    assert one == two and one.reach is not two.reach
    assert one.paths is not two.paths and one.masks is not two.masks
    sink = kernel.SinkDesc(one, one.adj, 9, 0, 0)
    assert sink.reach == {} and sink.reach is not kernel.SinkDesc(one, one.adj, 9, 0, 0).reach

