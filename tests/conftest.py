import functools
import hashlib
import importlib
import json
import pathlib
import pkgutil

import pytest

import escape3x3
from escape3x3 import kernel
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


@pytest.fixture(scope="session")
def _strict_sweep_run():
    """Route every configuration of the three routed families strictly, once
    per session, and digest every routing kernel call as it is made: its
    free edges, endpoint pairs and returned trails.  Its node count is
    summed apart, at the kernel search itself.  Also count the routing
    contexts the sweep builds.  The sweep runs on grid descriptors of its
    own, cached apart from the session's, so their memos hold what the
    sweep alone put there."""
    digest = hashlib.sha256()
    count = nodes = contexts = 0
    solve = kernel.solve_trails
    find = kernel.find_trail_system
    init = RoutingContext.__init__
    desc_for = functools.lru_cache(kernel.desc_for.__wrapped__)

    def recording(g, free_edges, endpoint_pairs):
        nonlocal count
        out = solve(g, free_edges, endpoint_pairs)
        trails = None if out is None else [t.vertices for t in out]
        digest.update(json.dumps([sorted(free_edges), endpoint_pairs, trails]).encode())
        count += 1
        return out

    def counting_nodes(*args):
        nonlocal nodes
        out = find(*args)
        nodes += out[2]
        return out

    def counting(ctx, cfg):
        nonlocal contexts
        contexts += 1
        init(ctx, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "solve_trails", recording)
        mp.setattr(kernel, "find_trail_system", counting_nodes)
        mp.setattr(kernel, "desc_for", desc_for)
        mp.setattr(RoutingContext, "__init__", counting)
        sweep = [
            (lemma, cfg, *route(cfg, strict=True))
            for lemma in (LemmaId.HEAVY78, LemmaId.HEAVY6, LemmaId.HEAVY5)
            for cfg in enumerate_configs(lemma)
        ]
    return sweep, count, nodes, digest.hexdigest(), contexts, desc_for(full_grid())


@pytest.fixture(scope="session")
def strict_sweep(_strict_sweep_run):
    """(lemma, cfg, plan, trace) for the strict route of every configuration
    of the three routed families, in enumeration order; routed once per
    session for every test that reads the whole sweep."""
    return _strict_sweep_run[0]


@pytest.fixture(scope="session")
def strict_sweep_kernel_calls(_strict_sweep_run):
    """(number, total nodes, sha256 hex digest) of the routing kernel calls
    the strict sweep made, in order."""
    return _strict_sweep_run[1:4]


@pytest.fixture(scope="session")
def strict_sweep_contexts(_strict_sweep_run):
    """How many routing contexts the strict sweep built."""
    return _strict_sweep_run[4]


@pytest.fixture(scope="session")
def strict_sweep_desc(_strict_sweep_run):
    """The full grid's descriptor as the strict sweep left it: built for
    the sweep, so its memos hold the sweep's work and nothing else."""
    return _strict_sweep_run[5]


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
