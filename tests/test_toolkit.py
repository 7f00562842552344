import functools

import pytest

from escape3x3 import kernel, toolkit
from escape3x3.grid import edge, full_grid
from escape3x3.model import Path, PathError, path_of
from escape3x3.router import route
from escape3x3.terminals import make_config
from escape3x3.toolkit import (
    ClipSpec,
    RoutingContext,
    ToolkitError,
    clip_catalog,
    complete_frame,
    mate_through_clip,
    term_ids,
    verify_clip,
)


def _ctx(pairs, singles):
    return RoutingContext(make_config(pairs, singles))


def test_shift_consumes_boundary_edges():
    ctx = _ctx([], [(2, 3)])
    ctx.shift((2, 3), (3, 1))
    used = full_grid().edges - ctx.free
    assert used == {
        edge((2, 3), (3, 3)),
        edge((3, 3), (3, 2)),
        edge((3, 2), (3, 1)),
    }
    assert ctx.trails[("s", 0)].end == (3, 1)


def test_shift_identity_consumes_nothing():
    ctx = _ctx([], [(2, 3)])
    ctx.shift((2, 3), (2, 3))
    assert ctx.free == set(full_grid().edges)


def test_blocked_move_changes_nothing():
    # the third edge of the move is held by the terminal shifted from (2,3)
    ctx = _ctx([], [(2, 3), (3, 1)])
    ctx.shift((2, 3), (3, 3))
    free, trails = set(ctx.free), dict(ctx.trails)
    with pytest.raises(ToolkitError):
        ctx.move(("s", 1), path_of((3, 1), (3, 2), (3, 3), (2, 3)))
    assert ctx.free == free
    assert ctx.trails == trails


def test_second_overlapping_shift_blocked():
    ctx = _ctx([], [(2, 3), (1, 3)])
    ctx.shift((2, 3), (3, 2))
    free, trails = set(ctx.free), dict(ctx.trails)
    # (1,3)-(2,3) is free, (2,3)-(3,3) is not: the shift takes neither
    with pytest.raises(ToolkitError, match="not free"):
        ctx.shift((1, 3), (3, 3))
    assert ctx.free == free
    assert ctx.trails == trails


def test_shift_requires_boundary():
    ctx = _ctx([], [(2, 2)])
    with pytest.raises(ToolkitError, match="boundary"):
        ctx.shift((2, 2), (3, 2))


def test_link_pairs_identity_case(grid):
    paths = kernel.solve_trails(grid, grid.edges, [((1, 1), (1, 1)), ((3, 3), (3, 3))])
    assert paths is not None
    p1, p2 = paths
    assert len(p1.vertices) == 1 and len(p2.vertices) == 1


def test_link_pairs_corner_to_corner(grid):
    paths = kernel.solve_trails(grid, grid.edges, [((1, 1), (3, 3)), ((1, 3), (3, 1))])
    assert paths is not None
    p1, p2 = paths
    assert not set(p1.edges()) & set(p2.edges())


def test_bad_clip_fails_verification(grid):
    clip = ClipSpec(
        name="bad",
        u=(3, 1),
        v=(3, 2),
        kind="AA",
        edges=frozenset({edge((1, 1), (1, 2))}),
    )
    assert not verify_clip(grid, clip).ok


def test_clip_catalog_mating_consumes_only_used_edges():
    cat = clip_catalog()
    clip = cat["aa-31-32-rails"]
    ctx = _ctx([], [(1, 1), (2, 2), (3, 3)])
    mate_through_clip(ctx, clip, ("s", 0), ("s", 1))  # at (1,1) and (2,2)
    assert {ctx.trails[("s", 0)].end, ctx.trails[("s", 1)].end} == {(3, 1), (3, 2)}
    # the mated terminals hold the clip anchors
    assert not ctx.is_free_vertex((3, 1)) and not ctx.is_free_vertex((3, 2))
    # the mating uses two disjoint branches; nothing else is consumed
    used = full_grid().edges - ctx.free
    assert used < clip.edges or used == clip.edges


def test_clip_mating_from_anchors_is_zero_length():
    cat = clip_catalog()
    clip = cat["aa-31-32-rails"]
    ctx = _ctx([], [(3, 1), (3, 2), (1, 3)])
    mate_through_clip(ctx, clip, ("s", 1), ("s", 2))  # at (3,1) and (3,2)
    assert ctx.free == set(full_grid().edges)
    assert sorted(t.end for t in ctx.trails.values()) == [(1, 3), (3, 1), (3, 2)]


def test_clip_mating_twice_fails():
    cat = clip_catalog()
    clip = cat["aa-31-32-cross"]
    ctx = _ctx([], [(1, 2), (2, 1), (1, 1), (2, 2)])
    mate_through_clip(ctx, clip, ("s", 1), ("s", 2))  # at (1,2) and (2,1)
    # (2,2) and the terminal now at (3,1) are covered, but the first mating
    # took the clip edges their trails need
    with pytest.raises(ToolkitError, match="not free"):
        mate_through_clip(ctx, clip, ("s", 3), ctx.terminals_at((3, 1))[0])


_CYCLE, _ANCHOR = ((2, 2), (2, 3), (3, 3), (3, 2)), (2, 2)


def test_frame_zero_landing():
    ctx = _ctx([((2, 2), (3, 3)), ((2, 1), (3, 2))], [])
    attach = (path_of((2, 2)), path_of((2, 1), (2, 2)))
    t1, t2 = complete_frame(ctx, _CYCLE, _ANCHOR, attach, path_of((3, 3)), path_of((3, 2)))
    assert t1.start == (2, 2) and t1.end == (3, 3)
    assert t2.start == (2, 1) and t2.end == (3, 2)
    assert not set(t1.edges()) & set(t2.edges())


def test_frame_landing_on_anchor_uses_no_cycle_edges():
    # first pair's mate already sits on the anchor: its trail takes no arc
    ctx = _ctx([((1, 2), (2, 2)), ((1, 1), (3, 3))], [])
    attach = (path_of((1, 2), (2, 2)), path_of((1, 1), (2, 1), (2, 2)))
    t1, t2 = complete_frame(ctx, _CYCLE, _ANCHOR, attach, path_of((2, 2)), path_of((3, 3)))
    cycle = {edge((2, 2), (2, 3)), edge((2, 3), (3, 3)), edge((3, 3), (3, 2)), edge((3, 2), (2, 2))}
    assert not set(t1.edges()) & cycle
    assert t1.start == (1, 2) and t1.end == (2, 2)
    assert t2.start == (1, 1) and t2.end == (3, 3)


def test_frame_attach_may_not_use_cycle_edges():
    # the first attachment takes (2,3)-(2,2), which every arc pair needs
    ctx = _ctx([((2, 3), (3, 3)), ((2, 1), (3, 2))], [])
    attach = (path_of((2, 3), (2, 2)), path_of((2, 1), (2, 2)))
    free = set(ctx.free)
    with pytest.raises(ToolkitError, match="no arc orientation avoids edge reuse"):
        complete_frame(ctx, _CYCLE, _ANCHOR, attach, path_of((3, 3)), path_of((3, 2)))
    assert ctx.free == free


def test_frame_attach_must_end_at_the_anchor_and_be_edge_disjoint():
    ctx = _ctx([((1, 2), (3, 3)), ((2, 1), (3, 2))], [])
    mates = (path_of((3, 3)), path_of((3, 2)))
    # an attachment off the anchor does not join its arc
    with pytest.raises(PathError, match="cannot join"):
        complete_frame(ctx, _CYCLE, _ANCHOR, (path_of((1, 2)), path_of((2, 2))), *mates)
    shared = path_of((1, 2), (2, 2))
    with pytest.raises(ToolkitError, match="no arc orientation avoids edge reuse"):
        complete_frame(ctx, _CYCLE, _ANCHOR, (shared, shared), *mates)


def test_context_plan_assembly(grid):
    cfg = make_config([((1, 1), (2, 3))], [(3, 1), (3, 2), (1, 3)])
    ctx = RoutingContext(cfg)
    ctx.move(("p", 0, 0), path_of((1, 1), (1, 2)))
    ctx.finish_link(0, path_of((1, 2), (2, 2), (2, 3)))
    for j in range(3):
        ctx.finish_escape(("s", j))
    plan = ctx.plan()
    linkage = dict(plan.linkages)[0]
    assert linkage.start == (1, 1) and linkage.end == (2, 3)
    assert len(plan.escapes) == 3


def test_free_vertex_accounting():
    ctx = _ctx([((3, 1), (1, 3))], [(2, 2)])
    assert not ctx.is_free_vertex((3, 1))
    assert ctx.is_free_vertex((3, 2))
    assert not ctx.is_free_vertex((2, 2))  # off the boundary
    ctx.finish_link(0, Path(((3, 1), (3, 2), (3, 3), (2, 3), (1, 3))))
    assert ctx.is_free_vertex((3, 1))  # freed by the linkage
    ctx.escape_via(("s", 0), path_of((2, 2), (2, 1), (3, 1)))
    assert not ctx.is_free_vertex((3, 1))  # taken by the escape's exit


def test_start_trails_are_the_descriptors_shared_paths(grid):
    """Each terminal starts on the full grid descriptor's zero-length
    trail at its vertex, the same object for every context: two
    configurations with a terminal on (2, 2) share its start trail."""
    desc = kernel.desc_for(grid)
    first = _ctx([((1, 1), (2, 2))], [(3, 1), (3, 2), (1, 3)])
    second = _ctx([((1, 2), (2, 1))], [(2, 2), (3, 3), (1, 3)])
    for ctx in (first, second):
        for tid, v in term_ids(ctx.cfg).items():
            trail = ctx.trails[tid]
            assert trail is desc.path((desc.vindex[v],))
            assert trail.vertices == (v,) and trail.edges() == []
    assert first.trails[("p", 0, 1)] is second.trails[("s", 1)]  # (2, 2)
    assert first.trails[("s", 0)] is second.trails[("s", 0)]  # (1, 3)


def test_each_terminal_trail_lives_in_one_place():
    """An unresolved terminal's trail is in ``trails``, an escaped one's in
    ``escaped``, and a linked pair's two trails are in its linkage: after a
    shift, a clip mating, the escapes and a link, every terminal id is in
    exactly one of those places."""
    ctx = _ctx([((1, 2), (1, 3))], [(1, 1), (2, 2), (2, 3)])
    everyone = sorted(term_ids(ctx.cfg))

    def places():
        members = [("p", i, k) for i in ctx.linked for k in (0, 1)]
        return sorted([*ctx.trails, *ctx.escaped, *members])

    ctx.shift((2, 3), (3, 3))
    assert places() == everyone
    mate_through_clip(ctx, clip_catalog()["aa-31-32-rails"], ("s", 0), ("s", 1))
    assert places() == everyone
    for j in range(3):
        ctx.finish_escape(("s", j))
        assert places() == everyone
    ctx.finish_link(0, path_of((1, 2), (1, 3)))
    assert places() == everyone and not ctx.trails
    assert ctx.escaped[("s", 0)].vertices == ((1, 1), (2, 1), (3, 1))
    assert ctx.escaped[("s", 2)].vertices == ((2, 3), (3, 3))
    assert ctx.linked[0].vertices == ((1, 2), (1, 3))


def test_memo_answers_are_fresh_searches(strict_sweep_memo, strict_sweep_desc, monkeypatch):
    """After the strict sweep, each answer in its routing memo is the one a
    fresh kernel search on a fresh descriptor gives, trail by trail, edges
    included; and each trail is the sweep descriptor's shared ``Path`` for
    its index trail, as the kernel handed it out."""
    desc = strict_sweep_desc
    assert len(strict_sweep_memo) == 1999
    monkeypatch.setattr(kernel, "desc_for", functools.lru_cache(kernel.desc_for.__wrapped__))
    for (pairs, mask), trails in strict_sweep_memo.items():
        region = {e for e in desc.edges if mask & desc.ebit[e]}
        fresh = kernel.solve_trails(full_grid(), region, list(pairs))
        if trails is None:
            assert fresh is None, pairs
            continue
        assert [(t.vertices, t.edges()) for t in trails] == [
            (t.vertices, t.edges()) for t in fresh
        ]
        for t in trails:
            assert t is desc.paths[tuple(desc.vindex[v] for v in t.vertices)]


def test_warm_memo_routes_as_the_cold_sweep(strict_sweep, strict_sweep_memo, monkeypatch):
    """Every 7th configuration of the strict sweep, routed again with the
    sweep's routing memo warm, gets the plan and trace the cold sweep gave,
    and the memo answers every request: no kernel search is made."""

    def no_search(*args):
        raise AssertionError(f"kernel search made on a warm memo: {args[2]}")

    monkeypatch.setattr(toolkit, "_SEARCHES", strict_sweep_memo)
    monkeypatch.setattr(kernel, "solve_trails", no_search)
    sample = strict_sweep[::7]
    assert len(sample) == 1395
    for _, cfg, plan, trace in sample:
        assert route(cfg, strict=True) == (plan, trace)
