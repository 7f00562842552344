import json
import pathlib

import pytest

from escape3x3.grid import full_grid, grid_without_corner
from escape3x3.router import route
from escape3x3.terminals import LemmaId, enumerate_configs

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def grid():
    return full_grid()


@pytest.fixture(scope="session")
def grid_star():
    return grid_without_corner()


@pytest.fixture(scope="session")
def strict_sweep():
    """(lemma, cfg, plan, trace) for the strict route of every configuration
    of the three routed families, in enumeration order; routed once per
    session for every test that reads the whole sweep."""
    return [
        (lemma, cfg, *route(cfg, strict=True))
        for lemma in (LemmaId.HEAVY78, LemmaId.HEAVY6, LemmaId.HEAVY5)
        for cfg in enumerate_configs(lemma)
    ]


@pytest.fixture(scope="session")
def fixture_manifest():
    with open(FIXTURES / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_fixture(name):
    with open(FIXTURES / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)
