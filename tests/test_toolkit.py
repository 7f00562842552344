import pytest

from escape3x3 import kernel
from escape3x3.grid import edge, full_grid
from escape3x3.model import Path, path_of
from escape3x3.terminals import make_config
from escape3x3.toolkit import (
    ClipFailed,
    ClipSpec,
    FrameConflict,
    FrameSpec,
    NotOnBoundary,
    RoutingContext,
    ShiftBlocked,
    ToolkitError,
    clip_catalog,
    complete_frame,
    mate_through_clip,
    verify_clip,
)


def _ctx(pairs, singles):
    return RoutingContext.fresh(make_config(pairs, singles))


def test_shift_consumes_boundary_edges():
    ctx = _ctx([], [(2, 3)])
    ctx.shift((2, 3), (3, 1))
    used = full_grid().edges - ctx.free
    assert used == {
        edge((2, 3), (3, 3)),
        edge((3, 3), (3, 2)),
        edge((3, 2), (3, 1)),
    }
    assert ctx.positions[("s", 0)] == (3, 1)


def test_shift_identity_consumes_nothing():
    ctx = _ctx([], [(2, 3)])
    ctx.shift((2, 3), (2, 3))
    assert ctx.free == set(full_grid().edges)


def test_blocked_move_changes_nothing():
    # the third edge of the move is held by the terminal shifted from (2,3)
    ctx = _ctx([], [(2, 3), (3, 1)])
    ctx.shift((2, 3), (3, 3))
    free, trails, positions = set(ctx.free), dict(ctx.trails), dict(ctx.positions)
    with pytest.raises(ToolkitError):
        ctx.move(("s", 1), path_of((3, 1), (3, 2), (3, 3), (2, 3)))
    assert ctx.free == free
    assert ctx.trails == trails
    assert ctx.positions == positions


def test_second_overlapping_shift_blocked():
    ctx = _ctx([], [(2, 3), (1, 3)])
    ctx.shift((2, 3), (3, 2))
    free, trails, positions = set(ctx.free), dict(ctx.trails), dict(ctx.positions)
    # (1,3)-(2,3) is free, (2,3)-(3,3) is not: the shift takes neither
    with pytest.raises(ShiftBlocked):
        ctx.shift((1, 3), (3, 3))
    assert ctx.free == free
    assert ctx.trails == trails
    assert ctx.positions == positions


def test_shift_requires_boundary():
    ctx = _ctx([], [(2, 2)])
    with pytest.raises(NotOnBoundary):
        ctx.shift((2, 2), (3, 2))


def test_link_pairs_identity_case(grid):
    paths = kernel.solve_trails(grid, grid.edges, [((1, 1), (1, 1)), ((3, 3), (3, 3))])
    assert paths is not None
    p1, p2 = paths
    assert p1.is_zero_length() and p2.is_zero_length()


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
    mate_through_clip(ctx, clip, (1, 1), (2, 2))
    assert {ctx.positions[("s", 0)], ctx.positions[("s", 1)]} == {(3, 1), (3, 2)}
    # the mated terminals hold the clip anchors
    assert not ctx.is_free_vertex((3, 1)) and not ctx.is_free_vertex((3, 2))
    # the mating uses two disjoint branches; nothing else is consumed
    used = full_grid().edges - ctx.free
    assert used < clip.edges or used == clip.edges


def test_clip_mating_from_anchors_is_zero_length():
    cat = clip_catalog()
    clip = cat["aa-31-32-rails"]
    ctx = _ctx([], [(3, 1), (3, 2), (1, 3)])
    mate_through_clip(ctx, clip, (3, 1), (3, 2))
    assert ctx.free == set(full_grid().edges)
    assert sorted(ctx.positions.values()) == [(1, 3), (3, 1), (3, 2)]


def test_clip_mating_twice_fails():
    cat = clip_catalog()
    clip = cat["aa-31-32-cross"]
    ctx = _ctx([], [(1, 2), (2, 1), (1, 1), (2, 2)])
    mate_through_clip(ctx, clip, (1, 2), (2, 1))
    with pytest.raises(ClipFailed):
        mate_through_clip(ctx, clip, (1, 1), (2, 2))


def test_frame_zero_landing():
    ctx = _ctx([((2, 2), (3, 3)), ((2, 1), (3, 2))], [])
    frame = FrameSpec(
        cycle=((2, 2), (2, 3), (3, 3), (3, 2)),
        anchor=(2, 2),
        attach=(path_of((2, 2)), path_of((2, 1), (2, 2))),
    )
    t1, t2 = complete_frame(ctx, frame, path_of((3, 3)), path_of((3, 2)))
    assert t1.start == (2, 2) and t1.end == (3, 3)
    assert t2.start == (2, 1) and t2.end == (3, 2)
    assert not set(t1.edges()) & set(t2.edges())


def test_frame_landing_on_anchor_uses_no_cycle_edges():
    # first pair's mate already sits on the anchor: its trail takes no arc
    ctx = _ctx([((1, 2), (2, 2)), ((1, 1), (3, 3))], [])
    frame = FrameSpec(
        cycle=((2, 2), (2, 3), (3, 3), (3, 2)),
        anchor=(2, 2),
        attach=(path_of((1, 2), (2, 2)), path_of((1, 1), (2, 1), (2, 2))),
    )
    t1, t2 = complete_frame(ctx, frame, path_of((2, 2)), path_of((3, 3)))
    cycle = {edge((2, 2), (2, 3)), edge((2, 3), (3, 3)), edge((3, 3), (3, 2)), edge((3, 2), (2, 2))}
    assert not set(t1.edges()) & cycle
    assert t1.start == (1, 2) and t1.end == (2, 2)
    assert t2.start == (1, 1) and t2.end == (3, 3)


def test_frame_anchor_must_lie_on_cycle():
    with pytest.raises(FrameConflict):
        FrameSpec(
            cycle=((2, 2), (2, 3), (3, 3), (3, 2)),
            anchor=(1, 1),
            attach=(path_of((1, 1)), path_of((1, 2), (1, 1))),
        )


def test_frame_attach_may_not_use_cycle_edges():
    with pytest.raises(FrameConflict):
        FrameSpec(
            cycle=((2, 2), (2, 3), (3, 3), (3, 2)),
            anchor=(2, 2),
            attach=(path_of((2, 3), (2, 2)), path_of((2, 2))),
        )


def test_context_plan_assembly(grid):
    cfg = make_config([((1, 1), (2, 3))], [(3, 1), (3, 2), (1, 3)])
    ctx = RoutingContext.fresh(cfg)
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
