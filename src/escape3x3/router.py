"""Constructive routing for the three terminal families.

Each router follows a fixed case tree keyed on where the terminals sit
(inner square vs boundary, pair composition), assembling plans from the
toolkit primitives: boundary shifts, clip matings, frames, and linkages
restricted to stated subregions.  Every search goes through the
toolkit's routing memo (``memo_trails``), which makes each distinct
search once per process.  Every step the cases repeat is written once, as
one helper: a search that must succeed (``_must_trails``), a
linkage along the boundary (``_link_on_l``), clearing the last-column stub
(``_clear_col_stub``), a mating onto anchors, a frame linking two pairs
(``_link_through_frame``), a diagonal split.  A case handler names its case
once, on its routing context (``ctx.label``), and resolves the terminals
the case names; the trace opens with that label, and the handler and its
helpers read it there to open their case-gap messages.  The dispatcher
then lets every other boundary terminal exit where it stands, and every
exit assignment takes its budget of last-column exits from the family's
contract.  Each plan is validated once, after it is carried back to the
configuration asked for; in strict mode a case whose construction fails
raises CaseGap, otherwise the exhaustive oracle is substituted and the
fallback is recorded on the trace.

Where a case leaves a choice open (which free vertex, which of several
catalogued clips), ties are broken lexicographically so that routing is
bit-identical across runs.  Two cases retry a search beyond their first
region, and each retry is noted on the trace: ``retry:unrestricted`` in
L3/b/S3 and ``retry:joint`` in L3/c/S3-t2-in-row.
"""

from __future__ import annotations

import functools
import itertools

from .grid import (
    BOUNDARY,
    COL_ONLY,
    CORNER,
    CYCLE_6_NO_COL1,
    CYCLE_6_NO_ROW1,
    CYCLE_8_NO_CORNER,
    Frozen,
    INNER_CYCLE_4,
    INNER_SQUARE,
    LAST_COL,
    LAST_ROW,
    L_EDGES,
    L_ORDER,
    ROW_ONLY,
    S_EDGES,
    Vertex,
    adjacent,
    col_edges,
    cycle_edges,
    edge,
    reflect_vertex,
    row_edges,
    unique_l_path,
)
from .model import (
    EscapePlan,
    Path,
    contract_for,
    path_of,
    reflected_plan,
    validate_plan,
)
from .oracle import oracle_solve
from .terminals import LemmaId, TerminalConfig, family_of
from .toolkit import (
    GRID,
    ClipSpec,
    RoutingContext,
    ToolkitError,
    clip_catalog,
    complete_frame,
    mate_through_clip,
    memo_trails,
    partner,
)


class RouterError(RuntimeError):
    pass


class CaseGap(RouterError):
    """A documented case matched but its construction could not complete."""


class UnsupportedFamily(ValueError):
    pass


class CaseTrace(Frozen):
    """How a plan was routed.

    ``route`` returns only plans that passed ``validate_plan`` under the
    family's contract: its own, or the oracle's on the fallback witness."""

    __slots__ = _fields = ("lemma", "case_labels", "used_fallback", "symmetry_applied")

    def __init__(
        self,
        lemma: LemmaId,
        case_labels: tuple[str, ...],
        used_fallback: bool = False,
        symmetry_applied: bool = False,
    ):
        self._set_fields(lemma, case_labels, used_fallback, symmetry_applied)


# Registry of every case label a router can emit, per family; the campaign's
# dead-branch alarm checks each one is hit at least once.
CASE_LABELS: dict[LemmaId, frozenset[str]] = {
    LemmaId.HEAVY78: frozenset(
        {
            "L2/a/pair-in-S",
            "L2/a/two-members",
            "L2/a/member-and-singleton",
            "L2/b/pair-plus-member",
            "L2/b/pair-plus-singleton",
            "L2/b/three-members",
            "L2/b/members-and-singleton",
            "L2/c/two-pairs",
            "L2/c/pair-plus-two",
            "L2/c/no-pair-center-member",
            "L2/c/no-pair-center-singleton",
            "L2/c/no-pair-center-singleton-direct",
        }
    ),
    LemmaId.HEAVY6: frozenset(
        {
            "L3/a/pair-on-L",
            "L3/b/S2",
            "L3/b/other-pair-on-L",
            "L3/b/S3",
            "L3/b/S4-col2",
            "L3/b/S4-col1",
            "L3/b/S4-col0",
            "L3/c/S2-w-row",
            "L3/c/S2-w-col",
            "L3/c/S3-t2-in-B",
            "L3/c/S3-t2-in-row",
            "L3/d/S2-all-B-free",
            "L3/d/S2-corner-pair",
            "L3/d/S2-colpair",
            "L3/d/S3",
            "L3/end/S2-two-singles",
            "L3/end/S2-two-members",
            "L3/end/S2-w-row",
            "L3/end/S2-t1-row",
            "L3/end/S2-B",
            "L3/end/S3-col0",
            "L3/end/S3-t-col",
            "L3/end/S3-corner-free",
            "L3/end/S3-corner-taken",
            "L3/end/S3-col2",
            "L3/end/S4-rows",
            "L3/end/S4-cols",
            "L3/end/S4-corner",
            "L3/end/S4-mixed",
        }
    ),
    LemmaId.HEAVY5: frozenset(
        {
            "L4/a/S2-shift-pair",
            "L4/a/S2",
            "L4/a/S3",
            "L4/a/S4-corner-free",
            "L4/a/S4-corner-in-pair",
            "L4/b/pair-on-L",
            "L4/b/t1-in-col",
            "L4/b/t1-in-row",
            "L4/c",
            "L4/d/S2",
            "L4/d/S3",
            "L4/e/S3-pair-on-L",
            "L4/e/S2-aa",
            "L4/e/S2-ab",
            "L4/e/S2-member",
            "L4/e/S3-t1-in-B",
            "L4/e/S3-t1-in-row",
            "L4/e/S4-extension",
        }
    ),
}


# -- small helpers ----------------------------------------------------------


def _terminals_in(cfg: TerminalConfig, region: frozenset[Vertex]) -> list[Vertex]:
    return sorted(t for t in cfg.terminals if t in region)


def _s_count(cfg: TerminalConfig) -> int:
    return len(_terminals_in(cfg, INNER_SQUARE))


def _pairs_within(cfg: TerminalConfig, region: frozenset[Vertex]) -> list[int]:
    return [i for i, (a, b) in enumerate(cfg.pairs) if a in region and b in region]


def _pair_index(cfg: TerminalConfig, v: Vertex) -> int | None:
    """The index of the pair holding ``v``; None if no pair does."""
    return next((i for i, p in enumerate(cfg.pairs) if v in p), None)


def _split_pair(cfg: TerminalConfig, pi: int) -> tuple[Vertex, Vertex]:
    """The ends of pair ``pi``, which straddles the square's edge: (inner
    member, boundary member)."""
    a, b = cfg.pairs[pi]
    return (a, b) if a in INNER_SQUARE else (b, a)


def _row_walk(v: Vertex, col: int) -> tuple[Vertex, ...]:
    r, c = v
    step = 1 if col >= c else -1
    return tuple((r, cc) for cc in range(c, col + step, step))


def _col_walk(v: Vertex, row: int) -> tuple[Vertex, ...]:
    return tuple(reflect_vertex(w) for w in _row_walk(reflect_vertex(v), row))


def _inner(ctx: RoutingContext) -> list:
    """The unresolved terminals inside the square, in id order (the order
    ``trails`` keeps)."""
    return [tid for tid, trail in ctx.trails.items() if trail.end in INNER_SQUARE]


def _first_free(ctx: RoutingContext, vertices) -> Vertex | None:
    """The first free boundary vertex among ``vertices``, in their order."""
    return next((v for v in vertices if ctx.is_free_vertex(v)), None)


def _joint_trails(ctx: RoutingContext, endpoint_pairs, allowed=None) -> list[Path] | None:
    """Edge-disjoint trails joining the endpoint pairs, in order, over the
    free edges (only those in ``allowed`` when given); None if none exist."""
    region = ctx.free if allowed is None else (set(allowed) & ctx.free)
    return memo_trails(region, endpoint_pairs)


def _must_trails(ctx: RoutingContext, endpoint_pairs, allowed, gap: str) -> list[Path]:
    """``_joint_trails`` for a step the case needs: no trails is the case gap
    ``gap`` describes."""
    trails = _joint_trails(ctx, endpoint_pairs, allowed)
    if trails is None:
        raise CaseGap(gap)
    return trails


def _pair_ends(ctx: RoutingContext, pair_idxs) -> list[tuple[Vertex, Vertex]]:
    return [(ctx.trails[("p", i, 0)].end, ctx.trails[("p", i, 1)].end) for i in pair_idxs]


def _col_budget(ctx: RoutingContext, staying) -> int | None:
    """Exits the family's contract still allows on the last-column stub once
    the ``staying`` terminals exit where they stand; None when unbounded."""
    bound = contract_for(family_of(ctx.cfg)).max_exits_in_restricted
    if bound is None:
        return None
    used = sum(1 for trail in ctx.escaped.values() if trail.end in COL_ONLY)
    return bound - used - sum(1 for tid in staying if ctx.trails[tid].end in COL_ONLY)


def _finish(ctx: RoutingContext, escape_tids=(), candidates=None, allowed=None, link=()) -> None:
    """Link the given pairs and escape the given terminals to free boundary
    vertices; every other terminal exits in place.

    Exit assignments are tried in candidate order (lexicographic by default),
    within the contract's remaining budget of last-column exits.  The pair
    and escape trails are packed in one search, so a linkage never strands
    an escaper; with nothing to link or escape no search is made, so on a
    closed context this does nothing.
    """
    escape_tids = sorted(escape_tids)
    members = {("p", i, k) for i in link for k in (0, 1)}
    rest = sorted(set(ctx.trails) - set(escape_tids) - members)
    for tid in rest:
        if ctx.trails[tid].end not in BOUNDARY:
            raise CaseGap(f"{ctx.label}: terminal {tid} stranded at {ctx.trails[tid].end}")
    if not escape_tids and not link:
        for tid in rest:
            ctx.finish_escape(tid)
        return
    if candidates is None:
        candidates = sorted(BOUNDARY)
    candidates = [v for v in candidates if ctx.is_free_vertex(v)]
    budget = _col_budget(ctx, rest)
    ends = _pair_ends(ctx, link)
    starts = [ctx.trails[t].end for t in escape_tids]
    for assignment in itertools.permutations(candidates, len(escape_tids)):
        if budget is not None:
            if sum(1 for x in assignment if x in COL_ONLY) > budget:
                continue
        trails = _joint_trails(ctx, ends + list(zip(starts, assignment)), allowed)
        if trails is None:
            continue
        for i, trail in zip(link, trails):
            ctx.finish_link(i, trail)
        for tid, trail in zip(escape_tids, trails[len(link) :]):
            ctx.escape_via(tid, trail)
        for tid in rest:
            ctx.finish_escape(tid)
        return
    raise CaseGap(f"{ctx.label}: no exit assignment for {escape_tids}")


@functools.lru_cache(maxsize=None)
def _clips_by_anchors() -> dict[frozenset, tuple[tuple[ClipSpec, frozenset[Vertex]], ...]]:
    """The catalogued clips by their unordered anchor pair, each pair's in
    name order, each with the vertices it covers; built from the catalog
    once per process."""
    index: dict[frozenset[Vertex], list] = {}
    catalog = clip_catalog()
    for name in sorted(catalog):
        clip = catalog[name]
        index.setdefault(frozenset((clip.u, clip.v)), []).append(
            (clip, frozenset(clip.covered()))
        )
    return {anchors: tuple(clips) for anchors, clips in index.items()}


def _mate_to_anchors(
    ctx: RoutingContext, tid_x, tid_y, anchors: tuple[Vertex, Vertex], link=()
) -> None:
    """Mate two terminals onto a pair of boundary anchors, linking the given
    pairs as well.

    Clips are the paper's named shortcut: catalogued clips with these
    anchors (looked up in ``_clips_by_anchors``) which cover both current
    positions and whose edges are free are tried first, in name order, with
    the linkages confined to the inner square off the clip.  An anchored
    direct search is the general rule: the linkages and both matings packed
    jointly in the free region, noted as ``clip:direct``.  A failed mating
    leaves the context untouched.
    """
    x, y = ctx.trails[tid_x].end, ctx.trails[tid_y].end
    ends = _pair_ends(ctx, link)
    for clip, covered in _clips_by_anchors().get(frozenset(anchors), ()):
        if x not in covered or y not in covered or not clip.edges <= ctx.free:
            continue
        cores = _joint_trails(ctx, ends, S_EDGES - clip.edges) if link else []
        if cores is None:
            continue
        mate_through_clip(ctx, clip, tid_x, tid_y)
        for i, core in zip(link, cores):
            ctx.finish_link(i, core)
        return
    u, v = anchors
    for mates in (((x, u), (y, v)), ((x, v), (y, u))):
        trails = _joint_trails(ctx, ends + list(mates))
        if trails is not None:
            for i, core in zip(link, trails):
                ctx.finish_link(i, core)
            ctx.move(tid_x, trails[-2])
            ctx.move(tid_y, trails[-1])
            ctx.notes.append("clip:direct")
            return
    raise CaseGap(f"{ctx.label}: cannot mate {x}, {y} onto {anchors}")


def _mate_to_first(ctx: RoutingContext, tid_x, tid_y, anchor_options) -> None:
    """Mate two terminals onto the first anchor pair, in order, that admits it."""
    for anchors in anchor_options:
        try:
            _mate_to_anchors(ctx, tid_x, tid_y, anchors)
            return
        except CaseGap:
            continue
    raise CaseGap(f"{ctx.label}: no anchor pair admits the mating")


def _row_anchor_pairs(ctx: RoutingContext, z: Vertex):
    """(u, z) for each free last-row vertex u, judged lazily as iterated."""
    return ((u, z) for u in sorted(LAST_ROW) if ctx.is_free_vertex(u))


def _both_col_stub_occupied(ctx: RoutingContext) -> bool:
    return all(ctx.terminals_at(v) for v in sorted(COL_ONLY))


def _both_col_stub_singles(ctx: RoutingContext) -> bool:
    return all(
        any(t[0] == "s" for t in ctx.terminals_at(v)) for v in sorted(COL_ONLY)
    )


def _cascade_shift_through_corner(ctx: RoutingContext) -> None:
    """When both last-column stub vertices hold terminals, move the one at
    (2,3) along the boundary through the corner to the first free vertex,
    conveyor-style: every terminal on the walk up to that vertex shifts one
    stop toward it."""
    if not _both_col_stub_occupied(ctx):
        return
    walk = ((2, 3), (3, 3), (3, 2), (3, 1))
    w = _first_free(ctx, walk[1:])
    if w is None:
        raise CaseGap(f"{ctx.label}: no free vertex to shift toward")
    for i in range(walk.index(w) - 1, -1, -1):
        if ctx.terminals_at(walk[i]):
            ctx.shift(walk[i], walk[i + 1])


def _clear_col_stub(ctx: RoutingContext, targets) -> None:
    """When both last-column stub vertices hold terminals, shift the one at
    (2,3) to the first free vertex of ``targets``."""
    if _both_col_stub_occupied(ctx):
        w = _first_free(ctx, targets)
        if w is None:
            raise CaseGap(f"{ctx.label}: no free vertex to clear the stub")
        ctx.shift((2, 3), w)


def _link_on_l(ctx: RoutingContext, pi: int) -> None:
    """Link pair ``pi``, both ends on the boundary, along the boundary."""
    ctx.finish_link(pi, Path(unique_l_path(*ctx.cfg.pairs[pi])))


def _link_many(ctx: RoutingContext, pair_idxs, allowed=None) -> None:
    """Link one or more pairs jointly (edge-disjoint) inside one region."""
    gap = f"{ctx.label}: no linkage for pairs {pair_idxs}"
    trails = _must_trails(ctx, _pair_ends(ctx, pair_idxs), allowed, gap)
    for i, trail in zip(pair_idxs, trails):
        ctx.finish_link(i, trail)


def _link_prescribed(ctx: RoutingContext, member, down: bool) -> None:
    """Link an inner member's pair along the prescribed L: straight down its
    column to the last row (``down``) or along its row to the last column,
    then along the boundary to the partner."""
    s = ctx.trails[member].end
    t = ctx.trails[partner(member)].end
    if down:
        walk = _col_walk(s, 3) + unique_l_path((3, s[1]), t)[1:]
    else:
        walk = _row_walk(s, 3) + unique_l_path((s[0], 3), t)[1:]
    ctx.finish_link(member[1], Path(walk))


# The one boundary step from each stub end onto the frames' cycles.
_ONTO_CYCLE = {(1, 3): (2, 3), (3, 1): (3, 2)}


def _link_through_frame(
    ctx: RoutingContext, cycle, anchor: Vertex, members, attach=None
) -> list[int]:
    """Link the pairs of two inner members through a frame on ``cycle``.

    Each member attaches to ``anchor`` along its path in ``attach``, by
    default its one step onto the anchor, or no step if it is the anchor;
    each partner lands on the cycle where it sits, or one boundary step onto
    it.  Returns the two pair indices in the members' order.  Members not of
    two different pairs, or a partner off the cycle, are a case gap raised
    before anything is consumed."""
    tids = [_tid_at(ctx, v) for v in members]
    if any(t[0] != "p" for t in tids) or tids[0][1] == tids[1][1]:
        raise CaseGap(f"{ctx.label}: frame members {members} are not of two pairs")
    mates = []
    for tid in tids:
        t_v = ctx.trails[partner(tid)].end
        if t_v in cycle:
            mates.append(path_of(t_v))
        elif _ONTO_CYCLE.get(t_v) in cycle:
            mates.append(path_of(t_v, _ONTO_CYCLE[t_v]))
        else:
            raise CaseGap(f"{ctx.label}: mate {t_v} off the cycle")
    if attach is None:
        attach = tuple(path_of(v) if v == anchor else path_of(v, anchor) for v in members)
    pis = [t[1] for t in tids]
    for pi, trail in zip(pis, complete_frame(ctx, cycle, anchor, attach, *mates)):
        ctx.finish_link(pi, trail)
    return pis


def _tid_at(ctx: RoutingContext, v: Vertex):
    tids = ctx.terminals_at(v)
    if not tids:
        raise CaseGap(f"{ctx.label}: no terminal at {v}")
    return tids[0]


def _singleton_tids(ctx: RoutingContext):
    return sorted(t for t in ctx.trails if t[0] == "s")


# Edges of the grid minus its last column (the region escape matings toward
# the last row are confined to in several cases).
QMB_EDGES = frozenset(
    e for e in GRID.edges if e[0] not in LAST_COL and e[1] not in LAST_COL
)
# Edges of the grid that avoid the corner (3,3).
_OFF_CORNER = frozenset(e for e in GRID.edges if CORNER not in e)


# ---------------------------------------------------------------------------
# Family with five terminals: one pair, three singletons.
# ---------------------------------------------------------------------------


def _heavy5_case(cfg: TerminalConfig):
    pair = set(cfg.pairs[0])
    sc = _s_count(cfg)
    if pair <= INNER_SQUARE:
        return _h5_case_a(cfg)
    if sc <= 1:
        return _h5_case_b(cfg)
    if pair <= LAST_ROW:
        return _h5_case_c(cfg)
    if pair <= LAST_COL:
        return _h5_case_d(cfg)
    return _h5_case_e(cfg)


def _h5_case_a(cfg: TerminalConfig):
    ctx = RoutingContext(cfg)
    sc = _s_count(cfg)
    if sc == 2:
        if _both_col_stub_singles(ctx):
            ctx.label = "L4/a/S2-shift-pair"
            w = _first_free(ctx, sorted(LAST_ROW))
            _finish(ctx, [_tid_at(ctx, (2, 3))], candidates=[w], link=[0])
            return ctx
        ctx.label = "L4/a/S2"
        _link_many(ctx, [0], allowed=S_EDGES)
        return ctx
    if sc == 3:
        ctx.label = "L4/a/S3"
        _clear_col_stub(ctx, [CORNER])
        w = _first_free(ctx, sorted(LAST_ROW))
        _finish(
            ctx,
            [t for t in _inner(ctx) if t[0] == "s"],
            candidates=[w],
            allowed=None if w == CORNER else _OFF_CORNER,
            link=[0],
        )
        return ctx
    # four terminals inside the square
    if (1, 1) not in cfg.pairs[0]:
        ctx.label = "L4/a/S4-corner-free"
        link_region = {edge((1, 2), (2, 2)), edge((2, 1), (2, 2))}
        exit_region = cycle_edges(CYCLE_8_NO_CORNER)
    else:
        ctx.label = "L4/a/S4-corner-in-pair"
        link_region, exit_region = S_EDGES, GRID.edges - S_EDGES
    _link_many(ctx, [0], allowed=link_region)
    _finish(ctx, _inner(ctx), candidates=[(3, 1), (3, 2), (1, 3)], allowed=exit_region)
    return ctx


def _h5_case_b(cfg: TerminalConfig):
    ctx = RoutingContext(cfg)
    pair = set(cfg.pairs[0])
    if pair <= BOUNDARY:
        ctx.label = "L4/b/pair-on-L"
        _link_on_l(ctx, 0)
        _cascade_shift_through_corner(ctx)
        candidates = [*cfg.pairs[0], *sorted(BOUNDARY)]
        _finish(ctx, _inner(ctx), candidates=candidates)
        return ctx
    s1, t1 = _split_pair(cfg, 0)
    if t1 in COL_ONLY:
        ctx.label = "L4/b/t1-in-col"
        _link_prescribed(ctx, _tid_at(ctx, s1), False)
        return ctx
    ctx.label = "L4/b/t1-in-row"
    _cascade_shift_through_corner(ctx)
    # link to the boundary member's current position (it may have shifted)
    t1_now = ctx.trails[partner(_tid_at(ctx, s1))].end
    trails = _must_trails(ctx, [(s1, t1_now)], None, f"{ctx.label}: no linkage path")
    ctx.finish_link(0, trails[0])
    return ctx


def _h5_case_c(cfg: TerminalConfig):
    ctx = RoutingContext(cfg)
    ctx.label = "L4/c"
    _link_on_l(ctx, 0)
    _finish(ctx, _inner(ctx), candidates=[*cfg.pairs[0], (1, 3)])
    return ctx


def _h5_case_d(cfg: TerminalConfig):
    ctx = RoutingContext(cfg)
    _link_on_l(ctx, 0)
    if _s_count(cfg) == 2:
        ctx.label = "L4/d/S2"
        row_single = [t.end for t in ctx.trails.values() if t.end in ROW_ONLY]
        if row_single:
            ctx.shift(row_single[0], CORNER)
        inner = _inner(ctx)
        _mate_to_anchors(ctx, inner[0], inner[1], ((3, 1), (3, 2)))
        return ctx
    ctx.label = "L4/d/S3"
    _finish(ctx, _inner(ctx), candidates=[(3, 1), (3, 2), (1, 3)])
    return ctx


def _h5_case_e(cfg: TerminalConfig):
    ctx = RoutingContext(cfg)
    pair = set(cfg.pairs[0])
    sc = _s_count(cfg)
    if pair <= BOUNDARY:
        _link_on_l(ctx, 0)
        inner = _inner(ctx)
        if sc == 3:
            ctx.label = "L4/e/S3-pair-on-L"
            candidates = [(3, 1), (3, 2), (1, 3), (3, 3), (2, 3)]
            _finish(ctx, inner, candidates=candidates)
            return ctx
        # two inner singletons, one on the boundary
        if next(v for v in cfg.singletons if v in BOUNDARY) not in ROW_ONLY:
            ctx.label, anchors = "L4/e/S2-aa", ((3, 1), (3, 2))
        else:
            a_end = next(v for v in pair if v in ROW_ONLY)
            b_end = next(v for v in pair if v in COL_ONLY)
            ctx.label, anchors = "L4/e/S2-ab", (a_end, b_end)
        _mate_to_anchors(ctx, inner[0], inner[1], anchors)
        return ctx
    s1, t1 = _split_pair(cfg, 0)
    if sc == 2:
        ctx.label = "L4/e/S2-member"
        s2 = _inner(ctx)[1]  # the inner singleton; the pair member comes first
        if _both_col_stub_singles(ctx):
            _cascade_shift_through_corner(ctx)
        ends = _pair_ends(ctx, [0])
        cands = [v for v in sorted(LAST_ROW) if ctx.is_free_vertex(v)] + [t1]
        if _col_budget(ctx, [t for t in _singleton_tids(ctx) if t != s2]) > 0:
            cands += [v for v in sorted(COL_ONLY) if ctx.is_free_vertex(v)]
        for w in cands:
            trails = _joint_trails(ctx, ends + [(ctx.trails[s2].end, w)])
            if trails is not None:
                ctx.finish_link(0, trails[0])
                ctx.move(s2, trails[1])
                return ctx
        raise CaseGap(f"{ctx.label}: no joint linkage")
    if sc == 4:
        ctx.label = "L4/e/S4-extension"
    else:  # three in the square: the pair member plus two singletons
        ctx.label = "L4/e/S3-t1-in-B" if t1 in LAST_COL else "L4/e/S3-t1-in-row"
    _link_prescribed(ctx, _tid_at(ctx, s1), t1 not in LAST_COL)
    inner = _inner(ctx)
    if sc == 4:
        _finish(ctx, inner)
    else:
        _mate_to_first(ctx, inner[0], inner[1], _free_anchor_pairs(ctx))
    return ctx


def _free_anchor_pairs(ctx: RoutingContext):
    """Anchor pairs for escaping two terminals: free or freed boundary
    vertices, preferring the last row, then one last-column anchor."""
    row_avail = [v for v in sorted(LAST_ROW) if ctx.is_free_vertex(v)]
    out = list(itertools.combinations(row_avail, 2))
    if _col_budget(ctx, ctx.trails) > 0:
        col_avail = [v for v in sorted(COL_ONLY) if ctx.is_free_vertex(v)]
        out += [(r, c) for r in row_avail for c in col_avail]
    return out


# ---------------------------------------------------------------------------
# Family with six terminals: two pairs, two singletons.
# ---------------------------------------------------------------------------


def _heavy6_case(cfg: TerminalConfig):
    sc = _s_count(cfg)
    if sc == 1:
        return _h6_case_a(cfg)
    in_s = _pairs_within(cfg, INNER_SQUARE)
    if in_s:
        return _h6_case_b(cfg, in_s[0])
    in_a = _pairs_within(cfg, LAST_ROW)
    if in_a:
        return _h6_case_c(cfg, in_a[0])
    in_b = _pairs_within(cfg, LAST_COL)
    if in_b:
        return _h6_case_d(cfg, in_b[0])
    if sc == 2:
        return _h6_end_s2(cfg)
    if sc == 3:
        return _h6_end_s3(cfg)
    return _h6_end_s4(cfg)


def _h6_case_a(cfg: TerminalConfig):
    ctx = RoutingContext(cfg)
    ctx.label = "L3/a/pair-on-L"
    on_l = _pairs_within(cfg, BOUNDARY)
    if not on_l:
        raise CaseGap(f"{ctx.label}: no pair on the boundary")
    pi = on_l[0]
    a, b = cfg.pairs[pi]
    _link_on_l(ctx, pi)
    s_tid = _inner(ctx)[0]
    gap = f"{ctx.label}: no path to the row corner"
    stage1 = _must_trails(ctx, [(ctx.trails[s_tid].end, (3, 1))], ctx.free - L_EDGES, gap)
    # on along the boundary to the linkage's end nearer the row corner
    full = stage1[0] + Path(unique_l_path((3, 1), max((a, b), key=L_ORDER.index)))
    ctx.escape_via(s_tid, full)
    if set(cfg.pairs[pi]) <= LAST_ROW and _both_col_stub_occupied(ctx):
        ctx.shift((2, 3), a if full.end == b else b)
    return ctx


def _h6_case_b(cfg: TerminalConfig, pi: int):
    ctx = RoutingContext(cfg)
    sc = _s_count(cfg)
    other = 1 - pi
    if sc == 2:
        ctx.label = "L3/b/S2"
        _link_many(ctx, [pi], allowed=S_EDGES)
        _clear_col_stub(ctx, ((3, 3), (3, 2), (3, 1)))
        return ctx
    if set(cfg.pairs[other]) <= BOUNDARY:
        ctx.label = "L3/b/other-pair-on-L"
        _link_on_l(ctx, other)
        singles = [t for t in _inner(ctx) if t[0] == "s"]
        _finish(ctx, singles, link=[pi])
        return ctx
    if sc == 3:
        ctx.label = "L3/b/S3"
        s2_tid = next(t for t in _inner(ctx) if t[:2] == ("p", other))
        if ctx.terminals_at((3, 1)):
            ctx.shift((3, 1), _first_free(ctx, ((3, 2), (3, 3), (2, 3), (1, 3))))
        ends = [cfg.pairs[pi], (ctx.trails[s2_tid].end, (3, 1))]
        trails = _joint_trails(ctx, ends, allowed=QMB_EDGES | S_EDGES)
        if trails is None:
            ctx.notes.append("retry:unrestricted")
            trails = _must_trails(ctx, ends, None, f"{ctx.label}: no joint linkage and escape")
        ctx.finish_link(pi, trails[0])
        ctx.escape_via(s2_tid, trails[1])
        _clear_col_stub(ctx, ((3, 2), (3, 3), (3, 1)))
        return ctx
    # everything inside the square
    col_count = len(_terminals_in(cfg, COL_ONLY))
    pq = [t for t in _inner(ctx) if t[:2] != ("p", pi)]
    if col_count == 2:
        ctx.label = "L3/b/S4-col2"
        ctx.shift((2, 3), CORNER)
        anchors = ((3, 1), (3, 2))
    elif col_count == 1:
        ctx.label = "L3/b/S4-col1"
        for v in ((3, 1), (3, 2)):
            if ctx.terminals_at(v) and ctx.is_free_vertex(CORNER):
                ctx.shift(v, CORNER)
        anchors = ((3, 1), (3, 2))
    else:
        ctx.label = "L3/b/S4-col0"
        if ctx.terminals_at((3, 1)):
            w = _first_free(ctx, ((3, 2), (3, 3)))
            if w is None:
                raise CaseGap(f"{ctx.label}: no free row vertex")
            ctx.shift((3, 1), w)
        anchors = ((3, 1), (1, 3))
    _mate_to_anchors(ctx, pq[0], pq[1], anchors, link=[pi])
    return ctx


def _h6_case_c(cfg: TerminalConfig, pi: int):
    ctx = RoutingContext(cfg)
    other = 1 - pi
    a, b = cfg.pairs[pi]
    # judged before the linkage frees the pair's ends
    w_in_row = _first_free(ctx, sorted(BOUNDARY)) in LAST_ROW
    _link_on_l(ctx, pi)
    if _s_count(cfg) == 2:
        inner = _inner(ctx)
        if w_in_row:
            ctx.label = "L3/c/S2-w-row"
            ctx.shift((2, 3), CORNER)
            _mate_to_anchors(ctx, inner[0], inner[1], ((3, 1), (3, 2)))
        else:
            ctx.label = "L3/c/S2-w-col"
            _mate_to_anchors(ctx, inner[0], inner[1], (a, b))
        return ctx
    s2, t2 = _split_pair(cfg, other)
    singles = _singleton_tids(ctx)
    if t2 in LAST_COL:
        ctx.label = "L3/c/S3-t2-in-B"
        _link_prescribed(ctx, _tid_at(ctx, s2), False)
        _mate_to_anchors(ctx, singles[0], singles[1], ((3, 1), (3, 2)))
        return ctx
    ctx.label = "L3/c/S3-t2-in-row"
    trails = _joint_trails(
        ctx, [(s2, t2)], allowed=col_edges(s2[1]) | row_edges(s2[0]) | {edge((3, 1), (3, 2))}
    )
    if trails is not None:
        ctx.finish_link(other, trails[0])
        _mate_to_first(ctx, singles[0], singles[1], _row_anchor_pairs(ctx, (1, 3)))
        return ctx
    # the prescribed lane is blocked: pack the linkage and matings jointly
    ctx.notes.append("retry:joint")
    _finish(ctx, singles, candidates=[(3, 1), (3, 2), (3, 3), (1, 3)], link=[other])
    return ctx


def _h6_case_d(cfg: TerminalConfig, pi: int):
    ctx = RoutingContext(cfg)
    other = 1 - pi
    pair = set(cfg.pairs[pi])
    _link_on_l(ctx, pi)
    if _s_count(cfg) == 2:
        inner = _inner(ctx)
        if not any(ctx.terminals_at(v) for v in LAST_COL - pair):
            ctx.label = "L3/d/S2-all-B-free"
            anchor_options = ((CORNER, (1, 3)), (CORNER, (2, 3)))
            _mate_to_first(ctx, inner[0], inner[1], anchor_options)
            return ctx
        w = _first_free(ctx, sorted(ROW_ONLY)) if CORNER in pair else None
        if w is not None:
            ctx.label = "L3/d/S2-corner-pair"
            _mate_to_anchors(ctx, inner[0], inner[1], (w, CORNER))
            return ctx
        ctx.label = "L3/d/S2-colpair"
        _finish(ctx, inner)
        return ctx
    ctx.label = "L3/d/S3"
    s2, t2 = _split_pair(cfg, other)
    singles = _singleton_tids(ctx)
    if t2 in ROW_ONLY:
        allowed = col_edges(s2[1]) | {edge((3, 1), (3, 2))}
    else:
        allowed = col_edges(s2[1]) | row_edges(2) | col_edges(3) | row_edges(s2[0])
    gap = f"{ctx.label}: no linkage for the second pair"
    ctx.finish_link(other, _must_trails(ctx, [(s2, t2)], allowed, gap)[0])
    z = (1, 3)
    if not ctx.is_free_vertex(z):
        raise CaseGap(f"{ctx.label}: the column anchor is occupied")
    _mate_to_first(ctx, singles[0], singles[1], _row_anchor_pairs(ctx, z))
    return ctx


def _h6_end_s2(cfg: TerminalConfig):
    ctx = RoutingContext(cfg)
    inner = _inner(ctx)
    singles = [t for t in inner if t[0] == "s"]
    members = [t for t in inner if t[0] == "p"]
    if len(singles) == 2:
        ctx.label = "L3/end/S2-two-singles"
        # each pair joins the last row to the stub, so (2,3) has a partner
        # on the last row, which sorts after it
        pi = _pair_index(cfg, (2, 3))
        t1 = cfg.pairs[pi][1]
        if t1 == (3, 2):
            walk = ((2, 3), (2, 2), (3, 2))
        else:
            walk = ((2, 3), (2, 2), (3, 2), (3, 1))
        ctx.finish_link(pi, Path(walk))
        _mate_to_anchors(ctx, singles[0], singles[1], (t1, CORNER))
        return ctx
    if len(members) == 2:
        # no singleton inside the square: both pairs link off the corner
        ctx.label = "L3/end/S2-two-members"
        corner_tids = ctx.terminals_at(CORNER)
        if corner_tids and corner_tids[0][0] == "p":
            ctx.shift(CORNER, (3, 2))
        _link_many(ctx, [0, 1], allowed=_OFF_CORNER)
        _clear_col_stub(ctx, [CORNER])
        return ctx
    # one pair member and one singleton inside the square
    member, single = members[0], singles[0]
    other = 1 - member[1]
    s2 = [v for v in cfg.pairs[other] if v in ROW_ONLY][0]
    t1 = ctx.trails[partner(member)].end
    w = _first_free(ctx, sorted(BOUNDARY))
    if w in ROW_ONLY:
        ctx.label = "L3/end/S2-w-row"
        _link_on_l(ctx, other)
        _mate_to_anchors(ctx, member, single, (s2, w))
        return ctx
    down = t1 in ROW_ONLY
    ctx.label = "L3/end/S2-t1-row" if down else "L3/end/S2-B"
    _link_prescribed(ctx, member, down)
    # the singleton escapes to the freed partner vertex outside the last
    # column, or else to the corner
    exit_v, region = (t1, QMB_EDGES) if down else (CORNER, None)
    gap = f"{ctx.label}: no escape path to {exit_v}"
    ctx.escape_via(single, _must_trails(ctx, [(ctx.trails[single].end, exit_v)], region, gap)[0])
    if down:
        _cascade_shift_through_corner(ctx)
    return ctx


def _h6_end_s3(cfg: TerminalConfig):
    """Three terminals inside the square: link one inner member's pair along
    its prescribed L, then mate the other two inner terminals onto the first
    anchor pair that admits it.  The last-column residents and the corner
    decide the member, the direction of its linkage and the anchors."""
    ctx = RoutingContext(cfg)
    members = [t for t in _inner(ctx) if t[0] == "p"]
    partner_at = {ctx.trails[partner(m)].end: m for m in members}
    col_res = _terminals_in(cfg, COL_ONLY)
    free_rows = [v for v in sorted(LAST_ROW) if ctx.is_free_vertex(v)]
    m = members[0]
    if not col_res:
        ctx.label, down = "L3/end/S3-col0", True
        # the row anchor is picked once the linkage has freed its partner
        anchors = _row_anchor_pairs(ctx, (1, 3))
    elif len(col_res) == 2:
        ctx.label, down = "L3/end/S3-col2", False
        m = next(x for x in members if ctx.trails[partner(x)].end in COL_ONLY)
        anchors = itertools.combinations(free_rows, 2)
    elif col_res[0] not in partner_at and ctx.is_free_vertex(CORNER):
        ctx.label, down = "L3/end/S3-corner-free", True
        anchors = [(CORNER, ctx.trails[partner(m)].end)]
    else:
        # the linked member's partner sits on the stub or the corner; it
        # pairs with the first free last-row vertex
        t_col = col_res[0] in partner_at
        ctx.label = "L3/end/S3-t-col" if t_col else "L3/end/S3-corner-taken"
        m = partner_at[col_res[0]] if t_col else partner_at.get(CORNER, m)
        down = False
        anchors = [(u, ctx.trails[partner(m)].end) for u in free_rows[:1]]
    _link_prescribed(ctx, m, down)
    rest = _inner(ctx)
    _mate_to_first(ctx, rest[0], rest[1], anchors)
    return ctx


# Regions of the diagonal splits: the inner columns with the last row, and
# the inner rows with the last column.
_COLS_AND_ROW = col_edges(1) | col_edges(2) | row_edges(3)
_ROWS_AND_COL = row_edges(1) | row_edges(2) | col_edges(3)


def _diagonal_split(ctx, pi, hub, region, link_to=None, mate_to=None):
    """Split the inner square along its diagonals: link pair ``pi`` from its
    inner member to ``hub`` and escape the member's diagonal mate to ``hub``
    as well, the two trails packed jointly in ``region``.  ``link_to`` or
    ``mate_to`` carries that trail one step on from the hub.  Returns the
    other diagonal, row 1 first."""
    r, c = _split_pair(ctx.cfg, pi)[0]
    mate = (3 - r, 3 - c)
    ends = [((r, c), hub), (mate, hub)]
    link, escape = _must_trails(ctx, ends, region, f"{ctx.label}: diagonal split failed")
    if link_to is not None:
        link = link + path_of(hub, link_to)
    if mate_to is not None:
        escape = escape + path_of(hub, mate_to)
    ctx.finish_link(pi, link)
    ctx.escape_via(_tid_at(ctx, mate), escape)
    return sorted({(r, 3 - c), (3 - r, c)})


def _h6_end_s4(cfg: TerminalConfig):
    ctx = RoutingContext(cfg)
    l_res = _terminals_in(cfg, BOUNDARY)
    col_res = [v for v in l_res if v in COL_ONLY]
    if len(col_res) == 0 and CORNER not in l_res:
        ctx.label = "L3/end/S4-rows"
        pi = next(i for i, p in enumerate(cfg.pairs) if set(p) & set(l_res))
        t1 = _split_pair(cfg, pi)[1]
        row1_v, row2_v = _diagonal_split(ctx, pi, t1, _COLS_AND_ROW)
        ctx.escape_via(_tid_at(ctx, row1_v), Path(_row_walk(row1_v, 3)))
        ctx.escape_via(_tid_at(ctx, row2_v), Path(_row_walk(row2_v, 3) + (CORNER,)))
        return ctx
    if len(col_res) == 2:
        ctx.label = "L3/end/S4-cols"
        pi = _pair_index(cfg, (2, 3))
        others = _diagonal_split(ctx, pi, (2, 3), _ROWS_AND_COL, mate_to=CORNER)
        escapers = [_tid_at(ctx, v) for v in others]
        _finish(ctx, escapers, candidates=[(3, 1), (3, 2)])
        return ctx
    if CORNER in l_res and len(col_res) == 0:
        ctx.label = "L3/end/S4-corner"
        pi = _pair_index(cfg, CORNER)
        others = _diagonal_split(ctx, pi, (2, 3), _ROWS_AND_COL, link_to=CORNER)
        candidates = [CORNER, (3, 1), (3, 2)]
    else:
        ctx.label = "L3/end/S4-mixed"
        t1 = col_res[0]
        pi = _pair_index(cfg, t1)
        others = _diagonal_split(ctx, pi, t1, _ROWS_AND_COL)
        candidates = sorted(LAST_ROW)
    _finish(
        ctx,
        [_tid_at(ctx, v) for v in others],
        candidates=candidates,
        allowed=_COLS_AND_ROW | S_EDGES,
    )
    return ctx


# ---------------------------------------------------------------------------
# Family with seven or eight terminals: 4 pairs, or 3 pairs + 1 singleton.
# ---------------------------------------------------------------------------


def _heavy78_case(cfg: TerminalConfig):
    sc = _s_count(cfg)
    if sc == 2:
        return _h78_case_a(cfg)
    if sc == 3:
        return _h78_case_b(cfg)
    return _h78_case_c(cfg)


def _h78_case_a(cfg: TerminalConfig):
    ctx = RoutingContext(cfg)
    in_s = _pairs_within(cfg, INNER_SQUARE)
    inner = _inner(ctx)
    if in_s:
        ctx.label = "L2/a/pair-in-S"
        _link_many(ctx, [in_s[0]], allowed=S_EDGES)
        _link_on_l(ctx, next(i for i in range(len(cfg.pairs)) if i != in_s[0]))
        return ctx
    if all(t[0] == "p" for t in inner):
        ctx.label = "L2/a/two-members"
        p1, p2 = inner[0][1], inner[1][1]
        _link_many(ctx, [p1, p2])
        return ctx
    ctx.label = "L2/a/member-and-singleton"
    h_edges = L_EDGES | {edge((2, 2), (2, 3)), edge((2, 2), (3, 2))}
    l_pairs = _pairs_within(cfg, BOUNDARY)
    if len(l_pairs) < 2:
        raise CaseGap(f"{ctx.label}: expected two boundary pairs")
    _link_many(ctx, l_pairs[:2], allowed=h_edges)
    _finish(ctx, inner)
    return ctx


def _h78_case_b(cfg: TerminalConfig):
    in_s = _pairs_within(cfg, INNER_SQUARE)
    if in_s:
        third = next(v for v in _terminals_in(cfg, INNER_SQUARE) if v not in cfg.pairs[in_s[0]])
        pj = _pair_index(cfg, third)
        if pj is None:
            return _h78_b2(cfg, in_s[0])
        ctx = RoutingContext(cfg)
        ctx.label = "L2/b/pair-plus-member"
        _link_many(ctx, [in_s[0], pj])
        return ctx
    members = [
        v for v in _terminals_in(cfg, INNER_SQUARE)
        if any(v in p for p in cfg.pairs)
    ]
    if len(members) == 3:
        return _h78_b3(cfg, escaping=None)
    return _h78_b4(cfg)


def _h78_b2(cfg: TerminalConfig, pi: int):
    ctx = RoutingContext(cfg)
    ctx.label = "L2/b/pair-plus-singleton"
    s0 = [v for v in cfg.singletons if v in INNER_SQUARE][0]
    s0_tid = _tid_at(ctx, s0)
    reduced = [e for e in S_EDGES if s0 not in e]
    _link_many(ctx, [pi], allowed=reduced)
    ctx.move(s0_tid, Path(_col_walk(s0, 3)))
    # the second linkage is the pair of a member the singleton lands on,
    # else the first pair on the boundary
    occupant = [t for t in ctx.terminals_at((3, s0[1])) if t != s0_tid]
    if not occupant:
        second = next(
            i for i, p in enumerate(cfg.pairs) if i != pi and set(p) <= BOUNDARY
        )
    elif occupant[0][0] == "p":
        second = occupant[0][1]
    else:
        raise CaseGap(f"{ctx.label}: landing vertex hosts an unlinked terminal")
    _link_on_l(ctx, second)
    ctx.finish_escape(s0_tid)
    return ctx


def _h78_b3(cfg: TerminalConfig, escaping):
    """Frame on the inner 4-cycle: the two members closest to the center
    attach there; the third inner terminal escapes along the outer lane."""
    ctx = RoutingContext(cfg)
    ctx.label = "L2/b/three-members" if escaping is None else "L2/b/members-and-singleton"
    inner = _terminals_in(cfg, INNER_SQUARE)
    if escaping is None:
        ranked = sorted(inner, key=lambda v: (abs(v[0] - 2) + abs(v[1] - 2), v))
        attach_vs = ranked[:2]
        escaper_v = ranked[2]
    else:
        attach_vs = sorted(v for v in inner if v != escaping)
        escaper_v = escaping
    _link_through_frame(ctx, INNER_CYCLE_4, (2, 2), attach_vs)
    esc_tid = _tid_at(ctx, escaper_v)
    _finish(ctx, [esc_tid], candidates=[(3, 1), (1, 3), (3, 2), (2, 3), (3, 3)])
    return ctx


def _h78_b4(cfg: TerminalConfig):
    s0 = [v for v in cfg.singletons if v in INNER_SQUARE][0]
    if s0 == (1, 1):
        return _h78_b3(cfg, escaping=s0)
    sub = cfg.reflected() if s0 == (2, 1) else cfg
    s0 = (1, 2) if s0 == (2, 1) else s0
    if s0 == (2, 2):
        members = {v for v in _terminals_in(sub, INNER_SQUARE) if v != s0}
        if (2, 1) not in members:
            # mirror so one member sits on the cycle below the top row
            sub = sub.reflected()
    return _h78_b4_column(sub)


def _h78_b4_column(cfg: TerminalConfig):
    """Singleton on the middle column: frame on the six-cycle below the top
    row, escape the singleton at the top-right stub."""
    ctx = RoutingContext(cfg)
    ctx.label = "L2/b/members-and-singleton"
    s0 = [v for v in cfg.singletons if v in INNER_SQUARE][0]
    members = sorted(v for v in _terminals_in(cfg, INNER_SQUARE) if v != s0)
    p0_walk = _col_walk(s0, 1) + tuple(_row_walk((1, s0[1]), 3)[1:])
    p0 = Path(p0_walk)
    cyc = CYCLE_6_NO_ROW1
    cyc_edges = cycle_edges(cyc)
    allowed = (S_EDGES - set(p0.edges())) - cyc_edges
    gap = f"{ctx.label}: no inner connector avoiding the cycle"
    p12 = _must_trails(ctx, [tuple(members)], allowed, gap)[0]
    y = next(v for v in p12.vertices if v in cyc)
    i_y = p12.vertices.index(y)
    # attach paths run member -> anchor along the two halves of the connector
    attach_a = Path(tuple(p12.vertices[: i_y + 1]))
    attach_b = Path(tuple(reversed(p12.vertices[i_y:])))
    pis = _link_through_frame(ctx, cyc, y, members, attach=(attach_a, attach_b))
    # resolve the top-right stub for the singleton's escape
    z = (1, 3)
    s0_tid = _tid_at(ctx, s0)
    third = next(
        i for i in range(len(cfg.pairs)) if i not in pis
    )
    occupants = ctx.terminals_at(z)
    if occupants:
        occ = occupants[0]
        if occ[0] == "p" and occ[1] == third:
            if (2, 3) in cfg.pairs[third]:
                ctx.finish_link(third, path_of((1, 3), (2, 3)))
            else:
                if not ctx.is_free_vertex((2, 3)):
                    raise CaseGap(f"{ctx.label}: cannot clear the stub")
                ctx.shift(z, (2, 3))
        else:
            raise CaseGap(f"{ctx.label}: unexpected occupant at the stub")
    ctx.escape_via(s0_tid, p0)
    return ctx


def _h78_case_c(cfg: TerminalConfig):
    in_s = _pairs_within(cfg, INNER_SQUARE)
    if len(in_s) >= 2:
        ctx = RoutingContext(cfg)
        ctx.label = "L2/c/two-pairs"
        _link_many(ctx, in_s[:2])
        return ctx
    if len(in_s) == 1:
        return _h78_c2(cfg, in_s[0])
    if _pair_index(cfg, (2, 2)) is not None:
        return _h78_c3_member(cfg)
    return _h78_c3_singleton(cfg)


def _h78_c2(cfg: TerminalConfig, pi: int):
    ctx = RoutingContext(cfg)
    ctx.label = "L2/c/pair-plus-two"
    others = sorted(
        v for v in _terminals_in(cfg, INNER_SQUARE) if v not in set(cfg.pairs[pi])
    )
    # linkage inside the square avoiding the far corner as an interior vertex
    pa, pb = cfg.pairs[pi]
    if adjacent(pa, pb):
        ctx.finish_link(pi, path_of(pa, pb))
    else:
        ctx.finish_link(pi, path_of(pa, (1, 2) if (1, 1) in (pa, pb) else (2, 2), pb))
    # the pair member links through its partner's vertex, where the other escapes
    first, second = others if _tid_at(ctx, others[0])[0] == "p" else others[::-1]
    first_tid = _tid_at(ctx, first)
    t2 = ctx.trails[partner(first_tid)].end
    ends = [(first, t2), (second, t2)]
    trails = _must_trails(ctx, ends, None, f"{ctx.label}: through-link failed")
    ctx.finish_link(first_tid[1], trails[0])
    ctx.escape_via(_tid_at(ctx, second), trails[1])
    return ctx


def _h78_c3_member(cfg: TerminalConfig):
    plan_cfg = cfg if _pair_index(cfg, (2, 1)) is not None else cfg.reflected()
    ctx = RoutingContext(plan_cfg)
    ctx.label = "L2/c/no-pair-center-member"
    _link_through_frame(ctx, INNER_CYCLE_4, (2, 2), ((2, 2), (2, 1)))
    _h78_c3_outer_escapes(ctx)
    return ctx


# (origin, stub, lane, stub edges, lane region) for each outer escape
_OUTER_STUBS = (
    (
        (1, 2), (1, 3), (2, 3), frozenset({edge((1, 2), (1, 3))}),
        cycle_edges(((1, 2), (1, 3), (2, 3), (2, 2))),
    ),
    (
        (1, 1), (3, 1), (3, 2), col_edges(1),
        col_edges(1) | cycle_edges(((2, 1), (2, 2), (3, 2), (3, 1))),
    ),
)


def _h78_c3_outer_escapes(ctx: RoutingContext) -> None:
    """Escape the terminals at (1,2) and (1,1) toward the two boundary
    stubs.  If such a terminal's own mate sits on the stub or just past it,
    the escape becomes a linkage; any other unresolved stub occupant shifts
    one stop along the boundary first."""
    for origin, stub, lane, stub_edges, lane_region in _OUTER_STUBS:
        tid = _tid_at(ctx, origin)
        mate = ctx.trails.get(partner(tid))  # None for a singleton or a resolved mate
        mate_pos = None if mate is None else mate.end
        if ctx.terminals_at(stub) and mate_pos != stub:
            if ctx.terminals_at(lane):
                if mate_pos != lane:
                    raise CaseGap(f"{ctx.label}: stub and lane both blocked at {stub}")
                gap = f"{ctx.label}: conflict linkage to {lane} blocked"
                ctx.finish_link(tid[1], _must_trails(ctx, [(origin, lane)], lane_region, gap)[0])
                continue
            ctx.shift(stub, lane)
        gap = f"{ctx.label}: lane to {stub} blocked"
        trail = _must_trails(ctx, [(origin, stub)], stub_edges, gap)[0]
        if mate_pos == stub:
            ctx.finish_link(tid[1], trail)
        else:
            ctx.escape_via(tid, trail)


def _h78_c3_singleton(cfg: TerminalConfig):
    # pairs are sorted tuples, so each pair tested here is written low end first
    if ((2, 1), (2, 3)) in cfg.pairs and (
        ((1, 2), (3, 2)) not in cfg.pairs or ((1, 1), (1, 3)) in cfg.pairs
    ):
        cfg = cfg.reflected()
    if ((2, 1), (2, 3)) not in cfg.pairs:
        return _h78_c3_singleton_frame(cfg)
    return _h78_c3_singleton_direct(cfg)


def _h78_c3_singleton_frame(cfg: TerminalConfig):
    ctx = RoutingContext(cfg)
    ctx.label = "L2/c/no-pair-center-singleton"
    _link_through_frame(ctx, CYCLE_6_NO_COL1, (1, 2), ((1, 1), (1, 2)))
    # escapes: the (2,1) member exits at (3,1), the singleton at (2,3)
    m21_tid = _tid_at(ctx, (2, 1))
    t21 = ctx.trails.get(partner(m21_tid))
    esc = path_of((2, 1), (3, 1))
    if t21 is not None and t21.end == (3, 1):
        ctx.finish_link(m21_tid[1], esc)
    else:
        ctx.escape_via(m21_tid, esc)
    if not ctx.is_free_vertex((2, 3)):
        raise CaseGap(f"{ctx.label}: stub exit blocked for the singleton")
    ctx.escape_via(_tid_at(ctx, (2, 2)), path_of((2, 2), (2, 3)))
    return ctx


def _h78_c3_singleton_direct(cfg: TerminalConfig):
    ctx = RoutingContext(cfg)
    ctx.label = "L2/c/no-pair-center-singleton-direct"
    ctx.finish_link(_pair_index(cfg, (1, 2)), path_of((1, 2), (2, 2), (3, 2)))
    ctx.finish_link(
        _pair_index(cfg, (2, 1)), path_of((2, 1), (3, 1), (3, 2), (3, 3), (2, 3))
    )
    m11_tid = _tid_at(ctx, (1, 1))
    ctx.escape_via(m11_tid, path_of((1, 1), (1, 2), (1, 3)))
    s0_tid = _tid_at(ctx, (2, 2))
    ctx.escape_via(s0_tid, path_of((2, 2), (2, 3)))
    return ctx


# ---------------------------------------------------------------------------
# Dispatch, validation, fallback.
# ---------------------------------------------------------------------------


def _route(cfg: TerminalConfig, lemma: LemmaId, case_fn):
    """Run the case handler, exit every terminal it left on the boundary in
    place, carry the plan back if the handler solved the diagonal reflection,
    and validate the plan returned: an invalid plan is a case gap."""
    ctx = case_fn(cfg)
    _finish(ctx)
    plan = ctx.plan()
    reflected = ctx.cfg != cfg
    if reflected:
        plan = reflected_plan(ctx.cfg, plan)
    verdict = validate_plan(GRID, cfg, plan, contract_for(lemma))
    if not verdict.ok:
        raise CaseGap(f"{ctx.label}: plan invalid: {verdict.violations[0].message}")
    return plan, CaseTrace(lemma, (ctx.label, *ctx.notes), symmetry_applied=reflected)


_CASES = {
    LemmaId.HEAVY78: _heavy78_case,
    LemmaId.HEAVY6: _heavy6_case,
    LemmaId.HEAVY5: _heavy5_case,
}


def route(cfg: TerminalConfig, strict: bool = False) -> tuple[EscapePlan, CaseTrace]:
    lemma = family_of(cfg)
    case_fn = _CASES.get(lemma)
    if case_fn is None:
        if len(cfg.pairs) == 3 and not cfg.singletons:
            raise UnsupportedFamily(
                "six terminals in three pairs: demote a pair to singletons first"
            )
        raise UnsupportedFamily(f"unsupported terminal family: {cfg}")
    try:
        return _route(cfg, lemma, case_fn)
    except (CaseGap, ToolkitError) as exc:
        if strict:
            raise CaseGap(f"{lemma.value}: {exc}") from exc
        plan = oracle_solve(GRID, cfg, contract_for(lemma))
        if plan is None:
            raise RouterError(f"no plan exists for {cfg}") from exc
        # the oracle validated its witness under the same grid and contract
        return plan, CaseTrace(lemma, ("fallback",), used_fallback=True)
