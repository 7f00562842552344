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
    steps along, in walk order; ``edges()`` hands those back.  Its slots
    are its vertices, its two ends and those kept edges: ``start`` is the
    first vertex and ``end`` the last, set by every constructor, since
    routing reads a path's ends far more often than it builds paths.  The
    vertices come as a tuple, and a vertex is a tuple of two ints, each
    vertex's shape checked before any step is looked up: the corner grid's
    step table cannot vouch for it, since a bool or a float equal to an
    int finds that int's step.

    ``_trusted`` builds a path from its vertices and edges with no walk
    check.  It is the only unchecked way in, and only callers that already
    hold the edges use it:

    * ``kernel.GraphDesc.path``: the search stepped along graph edges, each
      once, and the descriptor maps each step to its canonical edge; both
      kernel wrappers take their trails from it, and the routing
      context's table of zero-length start trails is filled from it;
    * ``reversed`` and ``reflected``: the mirror of a checked trail's edges;
    * ``__add__``: two trails that meet at the seam and share no edge.

    Every other caller, the router's fixed walks included, goes through the
    checked constructor, which checks the walk and sets every slot in
    ``__post_init__``.  Paths compare and hash by their vertices alone, and
    have no order.
    """

    __slots__ = ("vertices", "start", "end", "_edges")
    _fields = ("vertices",)

    def __init__(self, vertices: tuple[Vertex, ...]):
        self.__post_init__(vertices)

    def __post_init__(self, vertices):
        if type(vertices) is not tuple:
            raise PathError(f"{vertices!r} is not a tuple of vertices")
        if not vertices:
            raise PathError("a path needs at least one vertex")
        # every vertex, since the step table would take True or 1.0 for 1
        for v in vertices:
            if not (type(v) is tuple and len(v) == 2 and type(v[0]) is int and type(v[1]) is int):
                raise PathError(f"{v!r} is not a vertex")
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
        _set_start(self, vertices[0])
        _set_end(self, vertices[-1])
        _set_edges(self, tuple(edges))

    @staticmethod
    def _trusted(vertices: tuple[Vertex, ...], edges: tuple[Edge, ...]) -> "Path":
        """The path with these vertices and these canonical edges in walk
        order, taken as given (see the class docstring for who may)."""
        path = object.__new__(Path)
        _set_vertices(path, vertices)
        _set_start(path, vertices[0])
        _set_end(path, vertices[-1])
        _set_edges(path, edges)
        return path

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


# the slot setters, by name for the path constructors' hot paths
_set_vertices, _set_start, _set_end, _set_edges = Path._setters


def path_of(*vertices: Vertex) -> Path:
    return Path(tuple(vertices))


class EscapeContract(Frozen):
    """Obligations a plan must meet for one escape family.
    ``max_exits_in_restricted`` None means unbounded."""

    __slots__ = _fields = (
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
        self._set_fields(
            min_linked_pairs, exit_target, max_exits_in_restricted, restricted_zone
        )


# One frozen contract per family, shared by every caller.
_CONTRACTS = {
    LemmaId.HEAVY78: EscapeContract(2, BOUNDARY, None),
    LemmaId.HEAVY6: EscapeContract(1, BOUNDARY, 1),
    LemmaId.HEAVY5: EscapeContract(1, BOUNDARY, 1),
}


def contract_for(lemma: LemmaId) -> EscapeContract:
    if not isinstance(lemma, LemmaId):
        raise ValueError(f"expected a LemmaId, got {lemma!r}")
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
    __slots__ = _fields = ("code", "message")

    def __init__(self, code: Code, message: str):
        self._set_fields(code, message)


class Verdict(Frozen):
    """A validator's verdict: the violations it found, in clause order.
    ``ok`` is worked out from them, so a verdict passes exactly when it
    names no violation."""

    __slots__ = _fields = ("violations",)

    def __init__(self, violations: tuple[Violation, ...] = ()):
        self._set_fields(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    @staticmethod
    def from_violations(violations) -> "Verdict":
        """The failing verdict naming these violations, or the shared
        ``VALID`` when there are none."""
        vs = tuple(violations)
        return Verdict(vs) if vs else VALID


# The verdict for a plan, or a clip, that breaks nothing: one shared object.
VALID = Verdict()


class EscapePlan(Frozen):
    """``linkages`` holds (pair index, trail) sorted by index, ``escapes``
    (terminal, exit, trail)."""

    __slots__ = _fields = ("linkages", "escapes")

    def __init__(
        self,
        linkages: tuple[tuple[int, Path], ...],
        escapes: tuple[tuple[Vertex, Vertex, Path], ...],
    ):
        self._set_fields(linkages, escapes)

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
    An argument of the wrong type is refused with a ``ValueError`` that
    names it, and so is a plan whose linkages or escapes are not the
    records it reads: what reading them raises is caught around the
    passes and the clauses, so a well-formed plan pays nothing for it.
    """
    if not (
        isinstance(g, GridGraph)
        and isinstance(cfg, TerminalConfig)
        and isinstance(plan, EscapePlan)
        and isinstance(contract, EscapeContract)
    ):
        kinds = (
            ("g", g, GridGraph),
            ("cfg", cfg, TerminalConfig),
            ("plan", plan, EscapePlan),
            ("contract", contract, EscapeContract),
        )
        for name, value, kind in kinds:
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
    try:
        pairs = cfg.pairs
        linkmap = dict(plan.linkages)  # a pair listed twice keeps its last trail
        walked: list[Edge] = []
        for _, path in plan.linkages:
            walked += path._edges
        linked: set[Vertex] = set()
        misjoined: list[Violation] = []
        for i, path in sorted(linkmap.items()):
            if not 0 <= i < len(pairs):
                misjoined.append(Violation(Code.BAD_ENDPOINT, f"linkage references pair {i}"))
                continue
            a, b = pair = pairs[i]
            vs = path.vertices
            if not (vs[0] == a and vs[-1] == b or vs[0] == b and vs[-1] == a):
                misjoined.append(
                    Violation(
                        Code.BAD_ENDPOINT,
                        f"linkage {i} joins {vs[0]}-{vs[-1]}, pair is {sorted(pair)}",
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
                misrouted.append(Violation(Code.BAD_ENDPOINT, f"exit {x} outside the boundary"))
            vs = path.vertices
            if vs[0] != t or vs[-1] != x:
                misrouted.append(
                    Violation(
                        Code.BAD_ENDPOINT, f"escape path runs {vs[0]}->{vs[-1]}, expected {t}->{x}"
                    )
                )

        violations: list[Violation] = []
        if len(linkmap) < contract.min_linked_pairs:
            violations.append(
                Violation(
                    Code.LINK_COUNT,
                    f"{len(linkmap)} linked pairs, "
                    f"contract requires >= {contract.min_linked_pairs}",
                )
            )
        if len(linkmap) != len(plan.linkages):
            listed = Counter(i for i, _ in plan.linkages)
            violations += [
                Violation(Code.BAD_ENDPOINT, f"pair {i} linked {listed[i]} times")
                for i in sorted(listed)
                if listed[i] > 1
            ]
        violations += misjoined

        if len(escaping) != len(plan.escapes):
            listed = Counter(t for t, _, _ in plan.escapes)
            dup = sorted(t for t, n in listed.items() if n > 1)
            violations.append(Violation(Code.UNRESOLVED_TERMINAL, f"terminal escapes twice: {dup}"))
        unlinked = set(cfg.terminals) - linked
        if escaping != unlinked:
            unresolved = sorted(unlinked - escaping)
            if unresolved:
                violations.append(
                    Violation(
                        Code.UNRESOLVED_TERMINAL,
                        f"terminals neither linked nor escaped: {unresolved}",
                    )
                )
            stray = sorted(escaping - unlinked)
            if stray:
                violations.append(
                    Violation(
                        Code.UNRESOLVED_TERMINAL,
                        f"escape entries for non-escaping vertices: {stray}",
                    )
                )

        if len(exits) != len(plan.escapes):
            listed = Counter(x for _, x, _ in plan.escapes)
            collisions = sorted(x for x, n in listed.items() if n > 1)
            violations.append(Violation(Code.EXIT_COLLISION, f"exit used twice: {collisions}"))
        violations += misrouted
        bound = contract.max_exits_in_restricted
        if bound is not None and len(in_zone) > bound:
            violations.append(
                Violation(
                    Code.B_EXIT_BOUND, f"{len(in_zone)} exits in {sorted(zone)}, allowed {bound}"
                )
            )

        distinct = set(walked)
        if len(distinct) != len(walked) or not g.edges.issuperset(distinct):
            used: set[Edge] = set()
            for e in walked:
                if e not in g.edges:
                    violations.append(Violation(Code.NOT_A_PATH, f"edge {e} is not in the graph"))
                if e in used:
                    violations.append(Violation(Code.EDGE_REUSE, f"edge {e} used by two paths"))
                used.add(e)

        return Verdict.from_violations(violations)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        # the other arguments are checked above, so only the plan's contents
        raise ValueError(f"plan holds malformed linkages or escapes: {exc!r}") from exc


def validate_plan_recheck(
    g: GridGraph, cfg: TerminalConfig, plan: EscapePlan, contract: EscapeContract
) -> Verdict:
    """Independent re-check, deriving every edge from the vertices.

    One pass over every path derives its steps with a unit-step test,
    explaining each non-step; one over the linkages and one over the
    escapes list the terminals each entry resolves and the exits, count the
    restricted exits, and explain each entry whose ends are wrong.  The
    clauses then follow in order, each one test over those lists that
    builds its violations only when it fails.  Only the overall verdict
    shape is meant to match the primary validator, not its messages.  The
    graph, the configuration and the contract are read first; a plan
    whose linkages or escapes cannot be read as such is refused with a
    ``ValueError`` that names the plan."""
    pairs, terminals, edges = cfg.pairs, set(cfg.terminals), g.edges
    zone, target = contract.restricted_zone, contract.exit_target
    min_linked, bound = contract.min_linked_pairs, contract.max_exits_in_restricted
    try:
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
            restricted += x in zone
            if vs[0] != t or vs[-1] != x or x not in target:
                misrouted.append(Violation(Code.BAD_ENDPOINT, f"escape {t}->{x}"))

        # Clause: global edge multiset must be a set, and a subset of g's edges.
        walked = set(steps)
        if len(walked) != len(steps) or not edges.issuperset(walked):
            multiset = Counter(steps)
            for e in sorted(e for e, n in multiset.items() if n > 1 or e not in edges):
                if multiset[e] > 1:
                    bad.append(Violation(Code.EDGE_REUSE, f"{e} x{multiset[e]}"))
                if e not in edges:
                    bad.append(Violation(Code.NOT_A_PATH, f"{e} absent"))

        # Clause: linkage count and endpoints.
        if len(linkmap) < min_linked:
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
        if bound is not None and restricted > bound:
            bad.append(Violation(Code.B_EXIT_BOUND, f"{restricted} restricted exits"))

        return Verdict.from_violations(bad)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        # the other arguments were read above, so only the plan's contents
        raise ValueError(f"plan cannot be re-checked: {exc!r}") from exc


def reflected_plan(cfg, plan: EscapePlan) -> EscapePlan:
    """Reflect a plan for ``cfg`` across the diagonal, re-keying pair indices
    to the canonical ordering of the reflected configuration.

    Each pair's index in the reflected configuration is looked up in one
    map from its pairs, built once per call; the image of a pair, put low
    end first, is how the reflected configuration holds it."""
    target = cfg.reflected()
    index = {pair: j for j, pair in enumerate(target.pairs)}
    linkages = {}
    for i, p in plan.linkages:
        a, b = cfg.pairs[i]
        a, b = reflect_vertex(a), reflect_vertex(b)
        linkages[index[(a, b) if a < b else (b, a)]] = p.reflected()
    escapes = [
        (reflect_vertex(t), reflect_vertex(x), p.reflected()) for t, x, p in plan.escapes
    ]
    return EscapePlan.build(linkages, escapes)

