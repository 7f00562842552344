"""Paths, escape plans, per-family contracts, and plan validation.

Paths are edge-simple trails: consecutive vertices are grid-adjacent, no
edge is traversed twice, but vertices may repeat (assembled routes may cross
at a vertex).  A zero-length path is a single vertex.

Validation is implemented twice, in different styles and with no shared
helper: the router accepts only plans ``validate_plan`` passes, and a
campaign re-checks each of them with ``validate_plan_recheck``.  Each
validator gathers what it needs in one pass over the plan's linkages and
escapes, then tests each clause once, building that clause's violations only
when the test fails.
"""

from __future__ import annotations

import enum
from collections import Counter

from .grid import (
    BOUNDARY,
    COL_ONLY,
    Edge,
    Frozen,
    GridGraph,
    Vertex,
    adjacent,
    edge,
    full_grid,
    reflect_vertex,
)
from .terminals import LemmaId, TerminalConfig


class PathError(ValueError):
    """Raised when a vertex sequence is not an edge-simple grid trail."""


# Each step of the corner grid, either way, to its one canonical edge tuple:
# a Path keeps its edges, and a shared tuple costs it only a reference.
_STEP_EDGE = {(a, b): edge(a, b) for e in full_grid().edges for a, b in (e, e[::-1])}

# Each edge a reflected path has stepped along, to its mirror image, filled
# as paths are reflected: a plan keeps its reflected paths, and a shared
# mirror costs each of them only a reference.
_MIRROR: dict[Edge, Edge] = {}


class Path(Frozen):
    """A trail given by its vertex sequence.

    The constructor checks the walk once and keeps the canonical edges it
    steps along, in walk order; ``edges()`` hands those back.  Slots, in
    place of an instance dict, pay for the memory the kept edges take.

    ``_trusted`` builds a path from its vertices and edges with no walk
    check.  It is the only unchecked way in, and only callers that already
    hold the edges use it:

    * ``kernel.GraphDesc.path``: the search stepped along graph edges, each
      once, and the descriptor maps each step to its canonical edge; both
      kernel wrappers take their trails from it, and
      ``RoutingContext.fresh`` takes each terminal's zero-length start
      trail from it;
    * ``reversed`` and ``reflected``: the mirror of a checked trail's edges;
    * ``__add__``: two trails that meet at the seam and share no edge.

    Every other caller, the router's fixed walks included, goes through the
    checked constructor, which checks and sets both slots in
    ``__post_init__``.  Paths compare, order and hash by their vertices
    alone.
    """

    __slots__ = ("vertices", "_edges")
    _fields = ("vertices",)

    def __init__(self, vertices: tuple[Vertex, ...]):
        self.__post_init__(vertices)

    def __post_init__(self, vertices):
        if not vertices:
            raise PathError("a path needs at least one vertex")
        edges: list[Edge] = []
        seen: set[Edge] = set()
        for a, b in zip(vertices, vertices[1:]):
            e = _STEP_EDGE.get((a, b))
            if e is None:  # a step off the corner grid, in a path built beyond it
                if not adjacent(a, b):
                    raise PathError(f"{a} -> {b} is not a grid step")
                e = (a, b) if a < b else (b, a)
            if e in seen:
                raise PathError(f"edge {e} traversed twice")
            seen.add(e)
            edges.append(e)
        _set_vertices(self, vertices)
        _set_edges(self, tuple(edges))

    @staticmethod
    def _trusted(vertices: tuple[Vertex, ...], edges: tuple[Edge, ...]) -> "Path":
        """The path with these vertices and these canonical edges in walk
        order, taken as given (see the class docstring for who may)."""
        path = object.__new__(Path)
        _set_vertices(path, vertices)
        _set_edges(path, edges)
        return path

    def __lt__(self, other):
        if other.__class__ is not Path:
            return NotImplemented
        return self.vertices < other.vertices

    def __le__(self, other):
        if other.__class__ is not Path:
            return NotImplemented
        return self.vertices <= other.vertices

    @property
    def start(self) -> Vertex:
        return self.vertices[0]

    @property
    def end(self) -> Vertex:
        return self.vertices[-1]

    def edges(self) -> list[Edge]:
        return list(self._edges)

    def reversed(self) -> "Path":
        if not self._edges:
            return self
        # the same canonical edges, walked the other way
        return Path._trusted(self.vertices[::-1], self._edges[::-1])

    def reflected(self) -> "Path":
        edges = []
        for e in self._edges:
            mirror = _MIRROR.get(e)
            if mirror is None:
                # the ends differ in one coordinate, the first end smaller
                # there; swapping coordinates keeps it first, so the mirror
                # is canonical as it stands
                (a, b), (c, d) = e
                mirror = _MIRROR[e] = ((b, a), (d, c))
            edges.append(mirror)
        return Path._trusted(tuple([(c, r) for r, c in self.vertices]), tuple(edges))

    def __add__(self, other: "Path") -> "Path":
        """Join two trails end to start.  Each half is already a checked
        trail, so only the seam and the halves' disjointness are checked;
        the joined path keeps both edge tuples without walking them again,
        and a half with no edges leaves the other as it is."""
        if self.end != other.start:
            raise PathError(f"cannot join {self.end} to {other.start}")
        if not other._edges:
            return self
        if not self._edges:
            return other
        shared = set(self._edges).intersection(other._edges)
        if shared:
            raise PathError(f"edge {min(shared)} traversed twice")
        return Path._trusted(self.vertices + other.vertices[1:], self._edges + other._edges)


# the slot setters, which a frozen record's __setattr__ would refuse
_set_vertices = Path.__dict__["vertices"].__set__
_set_edges = Path.__dict__["_edges"].__set__


def path_of(*vertices: Vertex) -> Path:
    return Path(tuple(vertices))


class EscapeContract(Frozen):
    """Obligations a plan must meet for one escape family.
    ``max_exits_in_restricted`` None means unbounded."""

    _fields = (
        "min_linked_pairs",
        "exit_target",
        "max_exits_in_restricted",
        "restricted_zone",
    )

    def __init__(
        self,
        min_linked_pairs: int,
        exit_target: frozenset[Vertex],
        max_exits_in_restricted: int | None,
        restricted_zone: frozenset[Vertex] = COL_ONLY,
    ):
        fields = self.__dict__
        fields["min_linked_pairs"] = min_linked_pairs
        fields["exit_target"] = exit_target
        fields["max_exits_in_restricted"] = max_exits_in_restricted
        fields["restricted_zone"] = restricted_zone


# One frozen contract per family, shared by every caller.
_CONTRACTS = {
    LemmaId.HEAVY78: EscapeContract(2, BOUNDARY, None),
    LemmaId.HEAVY6: EscapeContract(1, BOUNDARY, 1),
    LemmaId.HEAVY5: EscapeContract(1, BOUNDARY, 1),
}


def contract_for(lemma: LemmaId) -> EscapeContract:
    contract = _CONTRACTS.get(lemma)
    if contract is None:
        raise ValueError(f"{lemma} has no escape contract")
    return contract


class Code(str, enum.Enum):
    EDGE_REUSE = "EDGE_REUSE"
    EXIT_COLLISION = "EXIT_COLLISION"
    B_EXIT_BOUND = "B_EXIT_BOUND"
    BAD_ENDPOINT = "BAD_ENDPOINT"
    NOT_A_PATH = "NOT_A_PATH"
    UNRESOLVED_TERMINAL = "UNRESOLVED_TERMINAL"
    LINK_COUNT = "LINK_COUNT"


class Violation(Frozen):
    _fields = ("code", "message", "subject")

    def __init__(self, code: Code, message: str, subject: object = None):
        fields = self.__dict__
        fields["code"] = code
        fields["message"] = message
        fields["subject"] = subject


class Verdict(Frozen):
    _fields = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[Violation, ...] = ()):
        fields = self.__dict__
        fields["ok"] = ok
        fields["violations"] = violations

    @staticmethod
    def from_violations(violations) -> "Verdict":
        """The failing verdict naming these violations, or the shared
        ``VALID`` when there are none."""
        vs = tuple(violations)
        return Verdict(ok=False, violations=vs) if vs else VALID


# The verdict for a plan, or a clip, that breaks nothing: one shared object.
VALID = Verdict(True)


class EscapePlan(Frozen):
    """``linkages`` holds (pair index, trail) sorted by index, ``escapes``
    (terminal, exit, trail)."""

    _fields = ("linkages", "escapes")

    def __init__(
        self,
        linkages: tuple[tuple[int, Path], ...],
        escapes: tuple[tuple[Vertex, Vertex, Path], ...],
    ):
        fields = self.__dict__
        fields["linkages"] = linkages
        fields["escapes"] = escapes

    @staticmethod
    def build(linkages: dict[int, Path], escapes) -> "EscapePlan":
        return EscapePlan(
            linkages=tuple(sorted(linkages.items())),
            escapes=tuple(sorted(escapes)),
        )

    def all_paths(self) -> list[Path]:
        return [p for _, p in self.linkages] + [p for _, _, p in self.escapes]


def plan_to_json(plan: EscapePlan) -> dict:
    return {
        "linkages": [
            {"pair": i, "path": [list(v) for v in p.vertices]} for i, p in plan.linkages
        ],
        "escapes": [
            {
                "terminal": list(t),
                "exit": list(x),
                "path": [list(v) for v in p.vertices],
            }
            for t, x, p in plan.escapes
        ],
    }


def validate_plan(
    g: GridGraph, cfg: TerminalConfig, plan: EscapePlan, contract: EscapeContract
) -> Verdict:
    """Primary validator, reading each path's stored edges.

    One pass over the linkages and one over the escapes gather the linked
    terminals, the escaping terminals, the exits (those in the restricted
    zone once per escape) and the walked edges, and explain each entry whose
    ends are wrong.  The clauses then follow in
    order, each one set test that builds its violations only when it fails.
    """
    pairs = cfg.pairs
    linkmap = dict(plan.linkages)  # a pair listed twice keeps its last trail
    walked: list[Edge] = []
    for _, path in plan.linkages:
        walked += path._edges
    linked: set[Vertex] = set()
    misjoined: list[Violation] = []
    for i, path in sorted(linkmap.items()):
        if not 0 <= i < len(pairs):
            misjoined.append(Violation(Code.BAD_ENDPOINT, f"linkage references pair {i}", i))
            continue
        a, b = pair = pairs[i]
        vs = path.vertices
        if not (vs[0] == a and vs[-1] == b or vs[0] == b and vs[-1] == a):
            misjoined.append(
                Violation(
                    Code.BAD_ENDPOINT,
                    f"linkage {i} joins {vs[0]}-{vs[-1]}, pair is {sorted(pair)}",
                    i,
                )
            )
        linked.add(a)
        linked.add(b)
    target = contract.exit_target
    zone = contract.restricted_zone
    escaping: set[Vertex] = set()
    exits: set[Vertex] = set()
    in_zone: list[Vertex] = []  # a repeated exit counts once per escape
    misrouted: list[Violation] = []
    for t, x, path in plan.escapes:
        escaping.add(t)
        exits.add(x)
        if x in zone:
            in_zone.append(x)
        walked += path._edges
        if x not in target:
            misrouted.append(Violation(Code.BAD_ENDPOINT, f"exit {x} outside the boundary", x))
        vs = path.vertices
        if vs[0] != t or vs[-1] != x:
            misrouted.append(
                Violation(
                    Code.BAD_ENDPOINT,
                    f"escape path runs {vs[0]}->{vs[-1]}, expected {t}->{x}",
                    t,
                )
            )

    violations: list[Violation] = []
    if len(linkmap) < contract.min_linked_pairs:
        violations.append(
            Violation(
                Code.LINK_COUNT,
                f"{len(linkmap)} linked pairs, contract requires "
                f">= {contract.min_linked_pairs}",
                len(linkmap),
            )
        )
    if len(linkmap) != len(plan.linkages):
        listed = Counter(i for i, _ in plan.linkages)
        violations += [
            Violation(Code.BAD_ENDPOINT, f"pair {i} linked {listed[i]} times", i)
            for i in sorted(listed)
            if listed[i] > 1
        ]
    violations += misjoined

    if len(escaping) != len(plan.escapes):
        listed = Counter(t for t, _, _ in plan.escapes)
        dup = sorted(t for t, n in listed.items() if n > 1)
        violations.append(
            Violation(Code.UNRESOLVED_TERMINAL, f"terminal escapes twice: {dup}", dup)
        )
    unlinked = set(cfg.terminals) - linked
    if escaping != unlinked:
        unresolved = sorted(unlinked - escaping)
        if unresolved:
            violations.append(
                Violation(
                    Code.UNRESOLVED_TERMINAL,
                    f"terminals neither linked nor escaped: {unresolved}",
                    unresolved,
                )
            )
        stray = sorted(escaping - unlinked)
        if stray:
            violations.append(
                Violation(
                    Code.UNRESOLVED_TERMINAL,
                    f"escape entries for non-escaping vertices: {stray}",
                    stray,
                )
            )

    if len(exits) != len(plan.escapes):
        listed = Counter(x for _, x, _ in plan.escapes)
        collisions = sorted(x for x, n in listed.items() if n > 1)
        violations.append(
            Violation(Code.EXIT_COLLISION, f"exit used twice: {collisions}", collisions)
        )
    violations += misrouted
    bound = contract.max_exits_in_restricted
    if bound is not None and len(in_zone) > bound:
        violations.append(
            Violation(
                Code.B_EXIT_BOUND,
                f"{len(in_zone)} exits in {sorted(zone)}, allowed {bound}",
                sorted(in_zone),
            )
        )

    distinct = set(walked)
    if len(distinct) != len(walked) or not g.edges.issuperset(distinct):
        used: set[Edge] = set()
        for e in walked:
            if e not in g.edges:
                violations.append(Violation(Code.NOT_A_PATH, f"edge {e} is not in the graph", e))
            if e in used:
                violations.append(Violation(Code.EDGE_REUSE, f"edge {e} used by two paths", e))
            used.add(e)

    return Verdict.from_violations(violations)


def validate_plan_recheck(
    g: GridGraph, cfg: TerminalConfig, plan: EscapePlan, contract: EscapeContract
) -> Verdict:
    """Independent re-check, deriving every edge from the vertices.

    One pass over every path derives its steps with a unit-step test,
    explaining each non-step; one over the linkages and one over the
    escapes list the terminals each entry resolves and the exits, count the
    restricted exits, and explain each entry whose ends are wrong.  The clauses then follow in
    order, each one test over those lists that builds its violations only
    when it fails.  Only the overall verdict shape is meant to match the
    primary validator, not its messages."""
    pairs = cfg.pairs
    bad: list[Violation] = []
    steps: list[Edge] = []
    for p in [p for _, p in plan.linkages] + [p for _, _, p in plan.escapes]:
        vs = p.vertices
        for a, b in zip(vs, vs[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1:
                steps.append((a, b) if a < b else (b, a))
            else:
                bad.append(Violation(Code.NOT_A_PATH, f"non-step {a}->{b}"))
    linkmap = dict(plan.linkages)  # a pair listed twice keeps its last trail
    ends: list[Vertex] = []
    misjoined: list[Violation] = []
    for i in sorted(linkmap):
        vs = linkmap[i].vertices
        if 0 <= i < len(pairs):
            ends += pairs[i]
            if {vs[0], vs[-1]} == set(pairs[i]):
                continue
        misjoined.append(Violation(Code.BAD_ENDPOINT, f"linkage {i}"))
    exits: list[Vertex] = []
    restricted = 0
    misrouted: list[Violation] = []
    for t, x, p in plan.escapes:
        vs = p.vertices
        ends.append(t)
        exits.append(x)
        restricted += x in contract.restricted_zone
        if vs[0] != t or vs[-1] != x or x not in contract.exit_target:
            misrouted.append(Violation(Code.BAD_ENDPOINT, f"escape {t}->{x}"))

    # Clause: global edge multiset must be a set, and a subset of g's edges.
    walked = set(steps)
    if len(walked) != len(steps) or not g.edges.issuperset(walked):
        multiset = Counter(steps)
        for e in sorted(e for e, n in multiset.items() if n > 1 or e not in g.edges):
            if multiset[e] > 1:
                bad.append(Violation(Code.EDGE_REUSE, f"{e} x{multiset[e]}"))
            if e not in g.edges:
                bad.append(Violation(Code.NOT_A_PATH, f"{e} absent"))

    # Clause: linkage count and endpoints.
    if len(linkmap) < contract.min_linked_pairs:
        bad.append(Violation(Code.LINK_COUNT, "too few linkages"))
    if len(linkmap) != len(plan.linkages):
        listed = Counter(i for i, _ in plan.linkages)
        bad += [
            Violation(Code.BAD_ENDPOINT, f"linkage {i} listed x{listed[i]}")
            for i in sorted(listed)
            if listed[i] > 1
        ]
    bad += misjoined

    # Clause: every terminal resolved exactly once.
    terminals = set(cfg.terminals)
    resolved = set(ends)
    if len(resolved) != len(ends) or resolved != terminals:
        counts = Counter(ends)
        bad += [
            Violation(Code.UNRESOLVED_TERMINAL, f"{t} resolved x{counts[t]}")
            for t in cfg.terminals
            if counts[t] != 1
        ]
        bad += [
            Violation(Code.UNRESOLVED_TERMINAL, f"{t} is not a terminal")
            for t in counts
            if t not in terminals
        ]

    # Clause: exits.
    if len(set(exits)) != len(exits):
        bad.append(Violation(Code.EXIT_COLLISION, "exit collision"))
    bad += misrouted
    bound = contract.max_exits_in_restricted
    if bound is not None and restricted > bound:
        bad.append(Violation(Code.B_EXIT_BOUND, f"{restricted} restricted exits"))

    return Verdict.from_violations(bad)


def reflected_plan(cfg, plan: EscapePlan) -> EscapePlan:
    """Reflect a plan for ``cfg`` across the diagonal, re-keying pair indices
    to the canonical ordering of the reflected configuration."""
    target = cfg.reflected()
    linkages = {}
    for i, p in plan.linkages:
        image = tuple(sorted(reflect_vertex(v) for v in cfg.pairs[i]))
        linkages[target.pairs.index(image)] = p.reflected()
    escapes = [
        (reflect_vertex(t), reflect_vertex(x), p.reflected()) for t, x, p in plan.escapes
    ]
    return EscapePlan.build(linkages, escapes)

