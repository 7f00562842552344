import hashlib
import importlib
import json
import pathlib
import pkgutil

import pytest

import escape3x3
from escape3x3 import kernel, router, toolkit
from escape3x3.grid import Record, full_grid, grid_without_corner
from escape3x3.router import route
from escape3x3.terminals import LemmaId, enumerate_configs
from escape3x3.toolkit import RoutingContext

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def grid():
    return full_grid()


@pytest.fixture(scope="session")
def grid_star():
    return grid_without_corner()


def isolated_strict_sweep():
    """Route every configuration of the three routed families strictly, on
    a kernel descriptor and a routing memo of their own, so that what the
    session routed before cannot show here.  Every request to the routing
    memo (``toolkit.memo_trails``) is digested as it is made: its free
    edges, endpoint pairs and returned trails.  The searches the memo makes
    are counted apart, with their nodes, at the kernel search itself, and
    so are the routing contexts built.  The descriptor's memos and the
    routing memo hold what the sweep alone put there.

    Returns (sweep, requests, request digest, searches, search nodes,
    contexts, the kernel descriptor, the routing memo)."""
    digest = hashlib.sha256()
    requests = searches = nodes = contexts = 0
    memo = toolkit.memo_trails
    find = kernel.find_trail_system
    init = RoutingContext.__init__
    desc = kernel.GraphDesc()
    searched = {}

    def recording(free_edges, endpoint_pairs):
        nonlocal requests
        out = memo(free_edges, endpoint_pairs)
        trails = None if out is None else [t.vertices for t in out]
        digest.update(json.dumps([sorted(free_edges), endpoint_pairs, trails]).encode())
        requests += 1
        return out

    def counting_nodes(*args):
        nonlocal searches, nodes
        out = find(*args)
        searches += 1
        nodes += out[2]
        return out

    def counting(ctx, cfg):
        nonlocal contexts
        contexts += 1
        init(ctx, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toolkit, "_SEARCHES", searched)
        mp.setattr(toolkit, "memo_trails", recording)
        mp.setattr(router, "memo_trails", recording)
        mp.setattr(kernel, "find_trail_system", counting_nodes)
        mp.setattr(kernel, "_DESC", desc)
        mp.setattr(RoutingContext, "__init__", counting)
        sweep = [
            (lemma, cfg, *route(cfg, strict=True))
            for lemma in (LemmaId.HEAVY78, LemmaId.HEAVY6, LemmaId.HEAVY5)
            for cfg in enumerate_configs(lemma)
        ]
    return (
        sweep,
        requests,
        digest.hexdigest(),
        searches,
        nodes,
        contexts,
        desc,
        searched,
    )


@pytest.fixture(scope="session")
def _strict_sweep_run():
    """The isolated strict sweep, routed once per session."""
    return isolated_strict_sweep()


@pytest.fixture(scope="session")
def strict_sweep(_strict_sweep_run):
    """(lemma, cfg, plan, trace) for the strict route of every configuration
    of the three routed families, in enumeration order; routed once per
    session for every test that reads the whole sweep."""
    return _strict_sweep_run[0]


@pytest.fixture(scope="session")
def strict_sweep_requests(_strict_sweep_run):
    """(number, sha256 hex digest) of the requests the strict sweep made to
    the routing memo, in order."""
    return _strict_sweep_run[1:3]


@pytest.fixture(scope="session")
def strict_sweep_searches(_strict_sweep_run):
    """(number, total nodes) of the kernel searches the routing memo made
    for the strict sweep: one per distinct request."""
    return _strict_sweep_run[3:5]


@pytest.fixture(scope="session")
def strict_sweep_contexts(_strict_sweep_run):
    """How many routing contexts the strict sweep built."""
    return _strict_sweep_run[5]


@pytest.fixture(scope="session")
def strict_sweep_desc(_strict_sweep_run):
    """The kernel descriptor as the strict sweep left it: built for the
    sweep, so its memos hold the sweep's work and nothing else."""
    return _strict_sweep_run[6]


@pytest.fixture(scope="session")
def strict_sweep_memo(_strict_sweep_run):
    """The routing memo as the strict sweep left it: its own, so it holds
    the sweep's searches and nothing else."""
    return _strict_sweep_run[7]


@pytest.fixture(scope="session")
def fixture_manifest():
    with open(FIXTURES / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_fixture(name):
    with open(FIXTURES / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def record_classes():
    """Every class below ``grid.Record``, at any depth and ``grid.Frozen``
    included, with every package module imported first, in the order the
    walk first reaches them."""
    for module in pkgutil.iter_modules(escape3x3.__path__, "escape3x3."):
        importlib.import_module(module.name)
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found
