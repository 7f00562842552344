"""Paths, escape plans, per-family contracts, and plan validation.

Paths are edge-simple trails: consecutive vertices are grid-adjacent, no
edge is traversed twice, but vertices may repeat (assembled routes may cross
at a vertex).  A zero-length path is a single vertex.

Validation is implemented twice, in different styles, and the two verdicts
are compared over every campaign plan.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

from .grid import (
    BOUNDARY,
    COL_ONLY,
    Edge,
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


@dataclass(frozen=True, order=True, slots=True)
class Path:
    """A trail given by its vertex sequence.

    The constructor checks the walk once and keeps the canonical edges it
    steps along, in walk order; ``edges()`` hands those back.  Slots, in
    place of an instance dict, pay for the memory the kept edges take.

    ``_trusted`` builds a path from its vertices and edges with no walk
    check.  It is the only unchecked way in, and only callers that already
    hold the edges use it:

    * ``kernel.solve_trails``: the search stepped along graph edges, each
      once, and the descriptor maps each step to its canonical edge;
    * ``reversed`` and ``reflected``: the mirror of a checked trail's edges;
    * ``__add__``: two trails that meet at the seam and share no edge;
    * ``RoutingContext.fresh``: a terminal's zero-length start trail.

    Every other caller, the router's fixed walks included, goes through the
    checked constructor.
    """

    vertices: tuple[Vertex, ...]
    _edges: tuple[Edge, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.vertices:
            raise PathError("a path needs at least one vertex")
        edges: list[Edge] = []
        seen: set[Edge] = set()
        for a, b in zip(self.vertices, self.vertices[1:]):
            e = _STEP_EDGE.get((a, b))
            if e is None:  # a step off the corner grid (other kernel graphs)
                if not adjacent(a, b):
                    raise PathError(f"{a} -> {b} is not a grid step")
                e = (a, b) if a < b else (b, a)
            if e in seen:
                raise PathError(f"edge {e} traversed twice")
            seen.add(e)
            edges.append(e)
        _set_edges(self, tuple(edges))

    @staticmethod
    def _trusted(vertices: tuple[Vertex, ...], edges: tuple[Edge, ...]) -> "Path":
        """The path with these vertices and these canonical edges in walk
        order, taken as given (see the class docstring for who may)."""
        path = object.__new__(Path)
        _set_vertices(path, vertices)
        _set_edges(path, edges)
        return path

    @property
    def start(self) -> Vertex:
        return self.vertices[0]

    @property
    def end(self) -> Vertex:
        return self.vertices[-1]

    def edges(self) -> list[Edge]:
        return list(self._edges)

    def is_zero_length(self) -> bool:
        return len(self.vertices) == 1

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


# the slot setters, which a frozen dataclass's __setattr__ would refuse
_set_vertices = Path.__dict__["vertices"].__set__
_set_edges = Path.__dict__["_edges"].__set__


def path_of(*vertices: Vertex) -> Path:
    return Path(tuple(vertices))


@dataclass(frozen=True)
class EscapeContract:
    """Obligations a plan must meet for one escape family."""

    min_linked_pairs: int
    exit_target: frozenset[Vertex]
    max_exits_in_restricted: int | None  # None means unbounded
    restricted_zone: frozenset[Vertex] = COL_ONLY


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


@dataclass(frozen=True)
class Violation:
    code: Code
    message: str
    subject: object = None


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[Violation, ...] = ()

    @staticmethod
    def from_violations(violations) -> "Verdict":
        vs = tuple(violations)
        return Verdict(ok=not vs, violations=vs)


@dataclass(frozen=True)
class EscapePlan:
    linkages: tuple[tuple[int, Path], ...]  # (pair index, trail), sorted by index
    escapes: tuple[tuple[Vertex, Vertex, Path], ...]  # (terminal, exit, trail)

    @staticmethod
    def build(linkages: dict[int, Path], escapes) -> "EscapePlan":
        return EscapePlan(
            linkages=tuple(sorted(linkages.items())),
            escapes=tuple(sorted(escapes)),
        )

    def linkage_map(self) -> dict[int, Path]:
        return dict(self.linkages)

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
    """Primary validator: walks the plan once, accumulating violations."""
    violations: list[Violation] = []
    linkmap = plan.linkage_map()

    if len(linkmap) < contract.min_linked_pairs:
        violations.append(
            Violation(
                Code.LINK_COUNT,
                f"{len(linkmap)} linked pairs, contract requires "
                f">= {contract.min_linked_pairs}",
                len(linkmap),
            )
        )

    linked_terminals: set[Vertex] = set()
    for i, path in sorted(linkmap.items()):
        if not 0 <= i < len(cfg.pairs):
            violations.append(
                Violation(Code.BAD_ENDPOINT, f"linkage references pair {i}", i)
            )
            continue
        pair = set(cfg.pairs[i])
        if {path.start, path.end} != pair:
            violations.append(
                Violation(
                    Code.BAD_ENDPOINT,
                    f"linkage {i} joins {path.start}-{path.end}, pair is {sorted(pair)}",
                    i,
                )
            )
        linked_terminals |= pair

    all_terminals = set(cfg.terminals)
    escaping = [t for t, _, _ in plan.escapes]
    escape_set = set(escaping)
    if len(escaping) != len(escape_set):
        dup = sorted(t for t, n in Counter(escaping).items() if n > 1)
        violations.append(
            Violation(Code.UNRESOLVED_TERMINAL, f"terminal escapes twice: {dup}", dup)
        )
    unresolved = all_terminals - linked_terminals - escape_set
    if unresolved:
        violations.append(
            Violation(
                Code.UNRESOLVED_TERMINAL,
                f"terminals neither linked nor escaped: {sorted(unresolved)}",
                sorted(unresolved),
            )
        )
    stray = escape_set - (all_terminals - linked_terminals)
    if stray:
        violations.append(
            Violation(
                Code.UNRESOLVED_TERMINAL,
                f"escape entries for non-escaping vertices: {sorted(stray)}",
                sorted(stray),
            )
        )

    exits = [x for _, x, _ in plan.escapes]
    if len(set(exits)) != len(exits):
        collisions = sorted(x for x, n in Counter(exits).items() if n > 1)
        violations.append(
            Violation(Code.EXIT_COLLISION, f"exit used twice: {collisions}", collisions)
        )
    for t, x, path in plan.escapes:
        if x not in contract.exit_target:
            violations.append(
                Violation(Code.BAD_ENDPOINT, f"exit {x} outside the boundary", x)
            )
        if path.start != t or path.end != x:
            violations.append(
                Violation(
                    Code.BAD_ENDPOINT,
                    f"escape path runs {path.start}->{path.end}, expected {t}->{x}",
                    t,
                )
            )

    if contract.max_exits_in_restricted is not None:
        in_zone = sorted(x for x in exits if x in contract.restricted_zone)
        if len(in_zone) > contract.max_exits_in_restricted:
            violations.append(
                Violation(
                    Code.B_EXIT_BOUND,
                    f"{len(in_zone)} exits in {sorted(contract.restricted_zone)}, "
                    f"allowed {contract.max_exits_in_restricted}",
                    in_zone,
                )
            )

    walked = [e for path in plan.all_paths() for e in path._edges]
    distinct = set(walked)
    if len(distinct) != len(walked) or not g.edges.issuperset(distinct):
        used: set[Edge] = set()
        for e in walked:
            if e not in g.edges:
                violations.append(
                    Violation(Code.NOT_A_PATH, f"edge {e} is not in the graph", e)
                )
            if e in used:
                violations.append(
                    Violation(Code.EDGE_REUSE, f"edge {e} used by two paths", e)
                )
            used.add(e)

    return Verdict.from_violations(violations)


def validate_plan_recheck(
    g: GridGraph, cfg: TerminalConfig, plan: EscapePlan, contract: EscapeContract
) -> Verdict:
    """Independent re-check: multiset the traversed edges, then test every
    clause with separate passes.  Returns only the overall verdict shape;
    messages are not meant to match the primary validator."""
    bad: list[Violation] = []

    # Clause: global edge multiset must be a set, and a subset of g's edges.
    steps: list[Edge] = []
    for path in plan.all_paths():
        vs = path.vertices
        for a, b in zip(vs, vs[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                bad.append(Violation(Code.NOT_A_PATH, f"non-step {a}->{b}"))
                continue
            steps.append((a, b) if a < b else (b, a))
    multiset = Counter(steps)
    if len(multiset) != len(steps) or not g.edges.issuperset(multiset):
        for e in sorted(e for e, n in multiset.items() if n > 1 or e not in g.edges):
            if multiset[e] > 1:
                bad.append(Violation(Code.EDGE_REUSE, f"{e} x{multiset[e]}"))
            if e not in g.edges:
                bad.append(Violation(Code.NOT_A_PATH, f"{e} absent"))

    # Clause: linkage count and endpoints.
    linkmap = plan.linkage_map()
    if len(linkmap) < contract.min_linked_pairs:
        bad.append(Violation(Code.LINK_COUNT, "too few linkages"))
    for i in sorted(linkmap):
        p = linkmap[i]
        if i < 0 or i >= len(cfg.pairs) or {p.start, p.end} != set(cfg.pairs[i]):
            bad.append(Violation(Code.BAD_ENDPOINT, f"linkage {i}"))

    # Clause: every terminal resolved exactly once.
    ends = [v for i in linkmap if 0 <= i < len(cfg.pairs) for v in cfg.pairs[i]]
    ends += [t for t, _, _ in plan.escapes]
    resolved = Counter(ends)
    terminals = set(cfg.terminals)
    if len(resolved) != len(ends) or resolved.keys() != terminals:
        for t in cfg.terminals:
            if resolved[t] != 1:
                bad.append(Violation(Code.UNRESOLVED_TERMINAL, f"{t} resolved x{resolved[t]}"))
        for t in resolved:
            if t not in terminals:
                bad.append(Violation(Code.UNRESOLVED_TERMINAL, f"{t} is not a terminal"))

    # Clause: exits.
    exits = [x for _, x, _ in plan.escapes]
    if len(set(exits)) != len(exits):
        bad.append(Violation(Code.EXIT_COLLISION, "exit collision"))
    for t, x, p in plan.escapes:
        if x not in contract.exit_target or p.start != t or p.end != x:
            bad.append(Violation(Code.BAD_ENDPOINT, f"escape {t}->{x}"))
    if contract.max_exits_in_restricted is not None:
        count = sum(1 for x in exits if x in contract.restricted_zone)
        if count > contract.max_exits_in_restricted:
            bad.append(Violation(Code.B_EXIT_BOUND, f"{count} restricted exits"))

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


def reflected_contract(contract: EscapeContract) -> EscapeContract:
    """The contract a reflected plan satisfies: the restricted zone flips
    from the last-column stub to the last-row stub."""
    zone = contract.restricted_zone
    flipped = frozenset(reflect_vertex(v) for v in zone)
    return EscapeContract(
        min_linked_pairs=contract.min_linked_pairs,
        exit_target=frozenset(reflect_vertex(v) for v in contract.exit_target),
        max_exits_in_restricted=contract.max_exits_in_restricted,
        restricted_zone=flipped,
    )
