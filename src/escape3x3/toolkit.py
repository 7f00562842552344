"""Construction primitives for the constructive router.

A RoutingContext tracks the full grid's free edges and one trail per
terminal, grown by every shift, mating and escape and held in one place:
an unresolved terminal sits at its trail's end, an escaped one exits at
its trail's end, and a linked pair's two trails join into its linkage.
The primitives:

* shifting a terminal along the boundary path, consuming its edges;
* mating two terminals, named by their ids, from where they stand
  through a clip (a boundary-anchored subgraph in which any two covered
  vertices can be routed edge-disjointly to the two anchors);
* completing a frame (a cycle, an anchor on it and two attachment paths
  to the anchor), which links two pairs via opposite cycle arcs.

Clips are the paper's named shortcut for a mating, and an anchored direct
search in the free region is the general rule: the router tries the
catalogued clips first and searches directly when none fits.  Every clip in
the packaged catalog is machine-verified; nothing about a clip is trusted
from its drawing.

The paper reuses a few local constructions across many cases, and so does
the router: a strict sweep of the 9,765 configurations asks 11,896 kernel
searches, only 1,999 of them distinct.  So every routing search, the
router's own and a clip mating's, goes through one memo, ``memo_trails``:
keyed by the endpoint pairs and the full grid descriptor's mask of the
region searched, it makes each distinct search once per process and
answers a repeat with the trails found the first time.  A search is a pure
function of its key, so the answers are exact.  The oracle, the
weak-2-linkage sweep and the clip check (``verify_clip``) search afresh.
"""

from __future__ import annotations

import functools
import itertools
import json
import os

from . import kernel
from .grid import (
    BOUNDARY,
    LAST_ROW,
    Edge,
    Frozen,
    GridGraph,
    Record,
    Vertex,
    edge,
    full_grid,
    unique_l_path,
)
from .model import EscapePlan, Path, Verdict, Violation, Code
from .terminals import TerminalConfig


class ToolkitError(RuntimeError):
    pass


TermId = tuple
# ("p", pair_index, 0 | 1) for pair members, ("s", singleton_index) for
# singletons; ids sort deterministically.


# Every routing context routes on the full grid.
GRID = full_grid()
# Each vertex's zero-length trail, the full grid descriptor's shared path
# for it: every context starts each terminal on the one at its vertex.
_DESC = kernel.desc_for(GRID)
_START_TRAILS = {v: _DESC.path((i,)) for v, i in _DESC.vindex.items()}
# Every search the router has made in this process, keyed by its endpoint
# pairs and the full grid descriptor's mask of the region searched: its
# trails as a tuple, or None (``memo_trails``).  Routing asks only what
# the finite configuration space asks: 1,999 keys once every configuration
# of the three routed families is routed.
_SEARCHES: dict[tuple, tuple[Path, ...] | None] = {}


def memo_trails(free_edges, endpoint_pairs) -> list[Path] | None:
    """``kernel.solve_trails`` on the full grid, each distinct search made
    once per process: a request asked before is answered from ``_SEARCHES``,
    in a list of its own.  The search is a pure function of its key, so
    the answer is the one a fresh search would give, the same ``Path``
    objects included."""
    key = (tuple(endpoint_pairs), _DESC.edge_mask(free_edges))
    try:
        trails = _SEARCHES[key]
    except KeyError:
        found = kernel.solve_trails(GRID, free_edges, endpoint_pairs)
        trails = _SEARCHES[key] = None if found is None else tuple(found)
    return None if trails is None else list(trails)


def term_ids(cfg: TerminalConfig) -> dict[TermId, Vertex]:
    out: dict[TermId, Vertex] = {}
    for i, (a, b) in enumerate(cfg.pairs):
        out[("p", i, 0)] = a
        out[("p", i, 1)] = b
    for j, s in enumerate(cfg.singletons):
        out[("s", j)] = s
    return out


def partner(tid: TermId) -> TermId | None:
    if tid[0] == "p":
        return ("p", tid[1], 1 - tid[2])
    return None


class RoutingContext(Record):
    """Mutable bookkeeping for one routing job; single-owner.

    Every terminal owns one trail, which starts at the terminal and grows
    with each move (shift, mating, escape), and the trail lives in exactly
    one place.  An unresolved terminal's trail is ``trails[tid]``, in id
    order, and the terminal sits at its end; an escaped terminal's trail
    is ``escaped[tid]``, and it exits at its end; a linked pair's two
    trails are joined by a core into ``linked[pair_index]``.  A new
    context gives each terminal the full grid descriptor's zero-length
    trail at its vertex (``kernel.GraphDesc.path``), one frozen ``Path``
    per vertex that every context shares, looked up in a table filled once
    when the module loads; a join with a trail that has no edges returns
    the other trail, so a terminal that never moves costs no ``Path`` of
    its own.
    ``free`` holds the edges of the full grid that no trail or core has
    consumed.  ``label`` names the case the router's handler is building,
    and ``notes`` the clips and retries it used on the way; together they
    become the plan's ``CaseTrace``, and the router reads the label to name
    the case in its case-gap messages.
    ``linked``, ``escaped``, ``label`` and ``notes`` start empty.

    Only the mutation methods write this state, and each keeps those
    invariants as it goes: ``consume`` takes only free edges, all or none,
    ``Path`` joins refuse a shared edge, and each resolution moves a trail
    out of ``trails``.  Nothing re-checks them afterwards; ``route``
    validates the finished plan.  Two contexts are equal when all their
    state is.
    """

    __slots__ = _fields = ("cfg", "free", "trails", "linked", "escaped", "label", "notes")

    def __init__(self, cfg: TerminalConfig):
        self.cfg = cfg
        self.free: set[Edge] = set(GRID.edges)
        self.trails = {tid: _START_TRAILS[v] for tid, v in term_ids(cfg).items()}
        self.linked: dict[int, Path] = {}
        self.escaped: dict[TermId, Path] = {}
        self.label = ""
        self.notes: list[str] = []

    # -- queries ----------------------------------------------------------

    def terminals_at(self, v: Vertex) -> list[TermId]:
        """The unresolved terminals at v, in id order."""
        return [tid for tid, trail in self.trails.items() if trail.end == v]

    def is_free_vertex(self, v: Vertex) -> bool:
        """A boundary vertex hosting neither an unresolved terminal nor an
        exit: no trail in ``trails`` or ``escaped`` ends at it.  Each loop
        stops at the first trail that does, and nothing is copied."""
        if v not in BOUNDARY:
            return False
        for trail in self.trails.values():
            if trail.end == v:
                return False
        for trail in self.escaped.values():
            if trail.end == v:
                return False
        return True

    # -- mutations --------------------------------------------------------

    def consume(self, edges) -> None:
        """Take the edges out of ``free``; all or none."""
        if not self.free.issuperset(edges):
            taken = next(e for e in edges if e not in self.free)
            raise ToolkitError(f"edge {taken} is not free")
        self.free.difference_update(edges)

    def move(self, tid: TermId, path: Path) -> None:
        """Advance a terminal along a path, consuming its edges."""
        trail = self.trails.get(tid)
        at = None if trail is None else trail.end
        if at != path.start:
            raise ToolkitError(f"{tid} is at {at}, path starts at {path.start}")
        self.consume(path.edges())
        self.trails[tid] = trail + path

    def shift(self, u: Vertex, v: Vertex) -> None:
        """Shift the terminal at u along the boundary path to v."""
        if u not in BOUNDARY or v not in BOUNDARY:
            raise ToolkitError(f"shift endpoints must lie on the boundary: {u}, {v}")
        tids = self.terminals_at(u)
        if not tids:
            raise ToolkitError(f"no terminal at {u} to shift")
        self.move(tids[0], Path(unique_l_path(u, v)))

    def finish_escape(self, tid: TermId) -> None:
        """Resolve a terminal as escaping at its current position."""
        self.escaped[tid] = self.trails.pop(tid)

    def escape_via(self, tid: TermId, path: Path) -> None:
        self.move(tid, path)
        self.finish_escape(tid)

    def finish_link(self, pair_index: int, core: Path) -> None:
        """Link a pair with a core path joining the two current positions."""
        first, second = ("p", pair_index, 0), ("p", pair_index, 1)
        a, b = self.trails[first], self.trails[second]
        if {core.start, core.end} != {a.end, b.end}:
            raise ToolkitError(
                f"core {core.start}->{core.end} does not join pair {pair_index} at "
                f"{a.end}, {b.end}"
            )
        if core.start != a.end:
            core = core.reversed()
        self.consume(core.edges())
        self.linked[pair_index] = a + core + b.reversed()
        del self.trails[first], self.trails[second]

    def plan(self):
        escapes = [(t.start, t.end, t) for t in self.escaped.values()]
        return EscapePlan.build(dict(self.linked), escapes)


# -- clips ----------------------------------------------------------------


class ClipSpec(Frozen):
    """A named boundary-anchored subgraph with the two-anchor mating
    property; ``kind`` is "AA" or "AB"."""

    __slots__ = _fields = ("name", "u", "v", "kind", "edges")

    def __init__(self, name: str, u: Vertex, v: Vertex, kind: str, edges: frozenset[Edge]):
        self._set_fields(name, u, v, kind, edges)

    def covered(self) -> tuple[Vertex, ...]:
        return tuple(sorted({w for e in self.edges for w in e}))

    def expected_kind(self) -> str:
        return "AA" if self.u in LAST_ROW and self.v in LAST_ROW else "AB"


def verify_clip(g: GridGraph, clip: ClipSpec) -> Verdict:
    """Check the clip property by brute force.

    For every unordered pair of distinct covered vertices there must exist
    two edge-disjoint trails inside the clip, one to each anchor (either
    assignment of the pair to the anchors may be used).
    """
    violations = []
    if not clip.edges <= g.edges:
        violations.append(
            Violation(Code.NOT_A_PATH, f"clip {clip.name} uses edges outside the graph")
        )
        return Verdict.from_violations(violations)
    if clip.u not in BOUNDARY or clip.v not in BOUNDARY:
        violations.append(
            Violation(Code.BAD_ENDPOINT, f"clip {clip.name} anchors off the boundary")
        )
    if clip.kind != clip.expected_kind():
        violations.append(
            Violation(Code.BAD_ENDPOINT, f"clip {clip.name} kind mismatch")
        )
    solve = functools.partial(kernel.solve_trails, g)
    for x, y in itertools.combinations(clip.covered(), 2):
        if _mating_paths(clip, x, y, solve) is None:
            violations.append(
                Violation(
                    Code.NOT_A_PATH, f"clip {clip.name} cannot mate {x}, {y} to {clip.u}, {clip.v}"
                )
            )
    return Verdict.from_violations(violations)


def _mating_paths(clip: ClipSpec, x: Vertex, y: Vertex, solve) -> tuple[Path, Path] | None:
    """Edge-disjoint trails from {x, y} onto {u, v} within the clip, found by
    ``solve(free_edges, endpoint_pairs)``."""
    for a, b in ((x, y), (y, x)):
        trails = solve(clip.edges, [(a, clip.u), (b, clip.v)])
        if trails is not None:
            first, second = trails
            return (first, second) if a == x else (second, first)
    return None


def mate_through_clip(ctx: RoutingContext, clip: ClipSpec, tid_x: TermId, tid_y: TermId) -> None:
    """Mate the unresolved terminals ``tid_x`` and ``tid_y``, from where
    they stand, onto the clip anchors.

    The caller offers only a clip whose edges are all free: the two moves
    consume separately, so on a clip that is not, the first may stand when
    the second raises."""
    x, y = ctx.trails[tid_x].end, ctx.trails[tid_y].end
    paths = _mating_paths(clip, x, y, memo_trails)
    if paths is None:
        raise ToolkitError(f"clip {clip.name} cannot mate {x}, {y}")
    ctx.move(tid_x, paths[0])
    ctx.move(tid_y, paths[1])
    ctx.notes.append(f"clip:{clip.name}")


# -- frames ---------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _arc(cycle: tuple[Vertex, ...], frm: Vertex, to: Vertex, direction: int) -> Path:
    """The walk along ``cycle`` from ``frm`` to ``to``, stepping by
    ``direction`` (1 or -1) through the cycle's vertex order.

    Built once per process for each (cycle, from, to, direction): the
    router's frames use a few dozen arcs over and over, and a ``Path`` is
    frozen, so every frame shares the one checked walk."""
    n = len(cycle)
    i = cycle.index(frm)
    out = [frm]
    while out[-1] != to:
        i = (i + direction) % n
        out.append(cycle[i])
        if len(out) > n + 1:
            raise ToolkitError("arc walk failed to close")
    return Path(tuple(out))


def complete_frame(
    ctx: RoutingContext,
    cycle: tuple[Vertex, ...],
    anchor: Vertex,
    attach: tuple[Path, Path],
    mate1: Path,
    mate2: Path,
) -> tuple[Path, Path]:
    """Assemble the two linkage trails a frame provides.

    The frame is ``cycle``, a closed walk whose first vertex is not
    repeated, with ``anchor`` on it; ``attach[i]`` carries one member of
    pair i to the anchor, and mate_i carries the other member onto the
    cycle.  The trail for pair i is attach_i + (cycle arc from the anchor
    to mate_i's landing) + reversed mate_i; the two arcs are chosen with
    opposite orientations so they share no edge.  All six pieces must be
    edge-disjoint and free; consumption happens when the caller records the
    two trails as linkages.

    The orientations are tried in a fixed order, and the first whose six
    pieces pass wins.  The four fixed pieces' edges are gathered once; each
    try adds its two arcs' edges and builds one set from them.
    """
    landings = (mate1.end, mate2.end)
    fixed = attach[0]._edges + attach[1]._edges + mate1._edges + mate2._edges
    for d1, d2 in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
        arc1 = _arc(cycle, anchor, landings[0], d1)
        arc2 = _arc(cycle, anchor, landings[1], d2)
        all_edges = fixed + arc1._edges + arc2._edges
        distinct = set(all_edges)
        if len(distinct) != len(all_edges) or not distinct <= ctx.free:
            continue
        trail1 = attach[0] + arc1 + mate1.reversed()
        trail2 = attach[1] + arc2 + mate2.reversed()
        return trail1, trail2
    raise ToolkitError("no arc orientation avoids edge reuse")


# -- clip catalog ---------------------------------------------------------


def _parse_clip(rec: dict) -> ClipSpec:
    edges = frozenset(edge(tuple(a), tuple(b)) for a, b in rec["edges"])
    return ClipSpec(
        name=rec["name"],
        u=tuple(rec["u"]),
        v=tuple(rec["v"]),
        kind=rec["kind"],
        edges=edges,
    )


@functools.lru_cache(maxsize=None)
def clip_catalog() -> dict[str, ClipSpec]:
    """The packaged clip catalog by name, read once per process from
    ``data/clips.json`` beside this module."""
    path = os.path.join(os.path.dirname(__file__), "data", "clips.json")
    with open(path, encoding="utf-8") as f:
        records = json.load(f)
    catalog = {}
    for rec in records:
        clip = _parse_clip(rec)
        if clip.name in catalog:
            raise ValueError(f"duplicate clip name {clip.name}")
        catalog[clip.name] = clip
    return catalog
