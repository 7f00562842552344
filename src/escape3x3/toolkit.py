"""Construction primitives for the constructive router.

A RoutingContext tracks the free edges and one trail per terminal, grown
by every shift, mating and escape; an unresolved terminal sits at its
trail's end.  The primitives:

* shifting a terminal along the boundary path, consuming its edges;
* mating two terminals through a clip (a boundary-anchored subgraph in
  which any two covered vertices can be routed edge-disjointly to the two
  anchors);
* completing a frame (a cycle plus two attachment paths to an anchor),
  which links two pairs via opposite cycle arcs.

Clips are the paper's named shortcut for a mating, and an anchored direct
search in the free region is the general rule: the router tries the
catalogued clips first and searches directly when none fits.  Every clip in
the packaged catalog is machine-verified; nothing about a clip is trusted
from its drawing.
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
    cycle_edges,
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

    Every terminal owns one trail, ``trails[tid]``, which starts at the
    terminal and grows with each move (shift, mating, escape).  ``fresh``
    gives each terminal the grid descriptor's zero-length trail at its
    vertex (``kernel.GraphDesc.path``), one frozen ``Path`` per vertex that
    every context shares, and a join with a trail that has no edges returns
    the other trail, so a terminal that never moves costs no ``Path`` of
    its own.  An unresolved terminal sits in ``positions`` at its trail's
    end; an escaped one exits at its trail's end; a linked pair's linkage
    is its two trails joined by a core.
    ``free`` holds the edges no trail or core has consumed.

    Only the mutation methods write this state, and each keeps those
    invariants as it goes: ``consume`` takes only free edges, all or none,
    ``Path`` joins refuse a shared edge, and ``move`` leaves the terminal at
    its trail's end.  Nothing re-checks them afterwards; ``route`` validates
    the finished plan.  Two contexts are equal when all their state is.
    """

    _fields = ("grid", "cfg", "free", "positions", "trails", "linked", "escaped", "notes")

    def __init__(
        self,
        grid: GridGraph,
        cfg: TerminalConfig,
        free: set[Edge],
        positions: dict[TermId, Vertex],
        trails: dict[TermId, Path],
        linked: dict[int, Path] | None = None,
        escaped: set[TermId] | None = None,
        notes: list[str] | None = None,
    ):
        self.grid = grid
        self.cfg = cfg
        self.free = free
        self.positions = positions
        self.trails = trails
        self.linked = {} if linked is None else linked
        self.escaped = set() if escaped is None else escaped
        self.notes = [] if notes is None else notes

    @staticmethod
    def fresh(cfg: TerminalConfig) -> "RoutingContext":
        grid = full_grid()
        ids = term_ids(cfg)
        desc = kernel.desc_for(grid)
        path, vindex = desc.path, desc.vindex
        return RoutingContext(
            grid=grid,
            cfg=cfg,
            free=set(grid.edges),
            positions=dict(ids),
            trails={tid: path((vindex[v],)) for tid, v in ids.items()},
        )

    # -- queries ----------------------------------------------------------

    def terminals_at(self, v: Vertex) -> list[TermId]:
        return sorted(tid for tid, pos in self.positions.items() if pos == v)

    def is_free_vertex(self, v: Vertex) -> bool:
        """A boundary vertex hosting neither an unresolved terminal nor an exit."""
        return (
            v in BOUNDARY
            and v not in self.positions.values()
            and all(self.trails[tid].end != v for tid in self.escaped)
        )

    # -- mutations --------------------------------------------------------

    def consume(self, edges) -> None:
        """Take the edges out of ``free``; all or none."""
        if not self.free.issuperset(edges):
            taken = next(e for e in edges if e not in self.free)
            raise ToolkitError(f"edge {taken} is not free")
        self.free.difference_update(edges)

    def move(self, tid: TermId, path: Path) -> None:
        """Advance a terminal along a path, consuming its edges."""
        if self.positions.get(tid) != path.start:
            raise ToolkitError(
                f"{tid} is at {self.positions.get(tid)}, path starts at {path.start}"
            )
        self.consume(path.edges())
        self.trails[tid] = self.trails[tid] + path
        self.positions[tid] = path.end

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
        self.escaped.add(tid)
        del self.positions[tid]

    def escape_via(self, tid: TermId, path: Path) -> None:
        self.move(tid, path)
        self.finish_escape(tid)

    def finish_link(self, pair_index: int, core: Path) -> None:
        """Link a pair with a core path joining the two current positions."""
        a, b = ("p", pair_index, 0), ("p", pair_index, 1)
        if {core.start, core.end} != {self.positions[a], self.positions[b]}:
            raise ToolkitError(
                f"core {core.start}->{core.end} does not join pair {pair_index} at "
                f"{self.positions[a]}, {self.positions[b]}"
            )
        if core.start != self.positions[a]:
            core = core.reversed()
        self.consume(core.edges())
        self.linked[pair_index] = self.trails[a] + core + self.trails[b].reversed()
        del self.positions[a]
        del self.positions[b]

    def plan(self):
        escapes = [self.trails[tid] for tid in self.escaped]
        return EscapePlan.build(dict(self.linked), [(t.start, t.end, t) for t in escapes])


# -- clips ----------------------------------------------------------------


class ClipSpec(Frozen):
    """A named boundary-anchored subgraph with the two-anchor mating
    property; ``kind`` is "AA" or "AB"."""

    _fields = ("name", "u", "v", "kind", "edges")

    def __init__(self, name: str, u: Vertex, v: Vertex, kind: str, edges: frozenset[Edge]):
        fields = self.__dict__
        fields["name"] = name
        fields["u"] = u
        fields["v"] = v
        fields["kind"] = kind
        fields["edges"] = edges

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
    for x, y in itertools.combinations(clip.covered(), 2):
        if _mating_paths(g, clip, x, y) is None:
            violations.append(
                Violation(
                    Code.NOT_A_PATH,
                    f"clip {clip.name} cannot mate {x}, {y} to {clip.u}, {clip.v}",
                    (x, y),
                )
            )
    return Verdict.from_violations(violations)


def _mating_paths(
    g: GridGraph, clip: ClipSpec, x: Vertex, y: Vertex
) -> tuple[Path, Path] | None:
    """Edge-disjoint trails from {x, y} onto {u, v} within the clip."""
    for a, b in ((x, y), (y, x)):
        trails = kernel.solve_trails(g, clip.edges, [(a, clip.u), (b, clip.v)])
        if trails is not None:
            first, second = trails
            return (first, second) if a == x else (second, first)
    return None


def mate_through_clip(ctx: RoutingContext, clip: ClipSpec, x: Vertex, y: Vertex) -> None:
    """Mate the terminals currently at x and y onto the clip anchors.

    The caller offers only a clip whose edges are all free: the two moves
    consume separately, so on a clip that is not, the first may stand when
    the second raises."""
    paths = _mating_paths(ctx.grid, clip, x, y)
    if paths is None:
        raise ToolkitError(f"clip {clip.name} cannot mate {x}, {y}")
    px, py = paths
    tx = ctx.terminals_at(x)
    ty = [t for t in ctx.terminals_at(y) if not tx or t != tx[0]]
    if not tx or not ty:
        raise ToolkitError(f"no unresolved terminals at {x} and {y}")
    ctx.move(tx[0], px)
    ctx.move(ty[0], py)
    ctx.notes.append(f"clip:{clip.name}")


# -- frames ---------------------------------------------------------------


class FrameSpec(Frozen):
    """A cycle with an anchor and one attachment path per pair.  The cycle
    is a closed walk whose first vertex is not repeated, and each
    attachment path ends at the anchor."""

    _fields = ("cycle", "anchor", "attach")

    def __init__(self, cycle: tuple[Vertex, ...], anchor: Vertex, attach: tuple[Path, Path]):
        if anchor not in cycle:
            raise ToolkitError("anchor must lie on the cycle")
        for p in attach:
            if p.end != anchor:
                raise ToolkitError("attachment paths must end at the anchor")
            if set(p.edges()) & cycle_edges(cycle):
                raise ToolkitError("attachment paths may not use cycle edges")
        if set(attach[0].edges()) & set(attach[1].edges()):
            raise ToolkitError("attachment paths must be edge-disjoint")
        fields = self.__dict__
        fields["cycle"] = cycle
        fields["anchor"] = anchor
        fields["attach"] = attach


def _arc(cycle: tuple[Vertex, ...], frm: Vertex, to: Vertex, direction: int) -> Path:
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
    ctx: RoutingContext, frame: FrameSpec, mate1: Path, mate2: Path
) -> tuple[Path, Path]:
    """Assemble the two linkage trails a frame provides.

    mate_i carries pair i's other member onto some cycle vertex.  The trail
    for pair i is attach_i + (cycle arc from the anchor to mate_i's landing)
    + reversed mate_i; the two arcs are chosen with opposite orientations so
    they share no edge.  All edges must be free; consumption happens when
    the caller records the two trails as linkages.
    """
    landings = (mate1.end, mate2.end)
    for p, what in ((mate1, "mate1"), (mate2, "mate2")):
        if p.end not in frame.cycle:
            raise ToolkitError(f"{what} does not land on the cycle")
    for d1, d2 in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
        arc1 = _arc(frame.cycle, frame.anchor, landings[0], d1)
        arc2 = _arc(frame.cycle, frame.anchor, landings[1], d2)
        pieces = [frame.attach[0], frame.attach[1], arc1, arc2, mate1, mate2]
        all_edges: list[Edge] = []
        for piece in pieces:
            all_edges.extend(piece.edges())
        if len(set(all_edges)) != len(all_edges):
            continue
        if not set(all_edges) <= ctx.free:
            continue
        trail1 = frame.attach[0] + arc1 + mate1.reversed()
        trail2 = frame.attach[1] + arc2 + mate2.reversed()
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
