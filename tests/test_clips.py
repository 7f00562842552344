"""Catalog gate: every packaged clip is machine-verified."""

import itertools

import pytest

from escape3x3 import router
from escape3x3.grid import BOUNDARY, LAST_ROW, edge
from escape3x3.toolkit import ClipSpec, clip_catalog, verify_clip


def test_catalog_has_enough_entries():
    assert len(clip_catalog()) >= 8


@pytest.mark.parametrize("name", sorted(clip_catalog()))
def test_every_catalogued_clip_verifies(name, grid):
    clip = clip_catalog()[name]
    verdict = verify_clip(grid, clip)
    assert verdict.ok, [v.message for v in verdict.violations]


@pytest.mark.parametrize("name", sorted(clip_catalog()))
def test_clip_kinds_match_anchors(name):
    clip = clip_catalog()[name]
    expected = "AA" if clip.u in LAST_ROW and clip.v in LAST_ROW else "AB"
    assert clip.kind == expected


def test_every_catalogued_clip_serves_a_strict_mating(strict_sweep):
    # dead-clip alarm: a clip no strict route mates through is dead weight
    noted = {label for *_, trace in strict_sweep for label in trace.case_labels[1:]}
    unused = sorted(name for name in clip_catalog() if f"clip:{name}" not in noted)
    assert not unused, f"catalogued clips no strict route mates through: {unused}"


def test_catalog_covers_all_anchor_pairs_used_by_the_router():
    wanted = {
        frozenset({(3, 1), (3, 2)}),
        frozenset({(3, 2), (3, 3)}),
        frozenset({(3, 1), (3, 3)}),
        frozenset({(3, 1), (1, 3)}),
        frozenset({(3, 2), (1, 3)}),
        frozenset({(3, 3), (1, 3)}),
        frozenset({(3, 1), (2, 3)}),
        frozenset({(3, 2), (2, 3)}),
    }
    have = {frozenset({c.u, c.v}) for c in clip_catalog().values()}
    assert wanted <= have


def test_clip_index_matches_a_filter_of_the_catalog():
    """The router's clip index gives, for every unordered pair of distinct
    boundary vertices, the clips a filter over the name-sorted catalog
    gives, in the same order, each with its covered vertices as a
    frozenset; it has no other key, and it is built once."""
    index = router._clips_by_anchors()
    assert router._clips_by_anchors() is index
    catalog = clip_catalog()
    anchor_pairs = [frozenset(p) for p in itertools.combinations(sorted(BOUNDARY), 2)]
    assert set(index) <= set(anchor_pairs)
    for anchors in anchor_pairs:
        entries = index.get(anchors, ())
        old_filter = [c for c in map(catalog.get, sorted(catalog)) if {c.u, c.v} == anchors]
        assert [clip for clip, _ in entries] == old_filter
        for clip, covered in entries:
            assert type(covered) is frozenset and covered == set(clip.covered())
    assert sum(map(len, index.values())) == len(catalog)


def test_inner_path_sweep_is_a_clip(grid):
    # the unique (3,1),(3,2)-path through the whole inner square
    walk = [(3, 1), (2, 1), (1, 1), (1, 2), (2, 2), (3, 2)]
    clip = ClipSpec(
        name="sweep",
        u=(3, 1),
        v=(3, 2),
        kind="AA",
        edges=frozenset(edge(a, b) for a, b in zip(walk, walk[1:])),
    )
    assert verify_clip(grid, clip).ok


def test_clip_property_fails_off_graph():
    from escape3x3.grid import build_corner_grid

    clip = clip_catalog()["aa-31-32-rails"]
    smaller = build_corner_grid(frozenset({(1, 1)}))
    assert not verify_clip(smaller, clip).ok


@pytest.mark.parametrize("u, v", [((3, 1), (1, 1)), ((1, 1), (3, 2))], ids=["v-inner", "u-inner"])
def test_clip_with_either_anchor_off_the_boundary_fails(grid, u, v):
    """Each anchor is checked against the boundary on its own: a clip with
    one anchor on it and the other inside fails, naming that, whichever
    anchor is the inner one."""
    walk = [(3, 1), (2, 1), (1, 1), (1, 2), (2, 2), (3, 2)]
    edges = frozenset(edge(a, b) for a, b in zip(walk, walk[1:]))
    clip = ClipSpec("half-anchored", u, v, "AB", edges)
    messages = [violation.message for violation in verify_clip(grid, clip).violations]
    assert "clip half-anchored anchors off the boundary" in messages
