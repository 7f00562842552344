"""The 3x3 corner grid, its boundary structure, and the diagonal symmetry.

Vertices are (row, col) pairs, 1-indexed, matching a matrix layout: row 3 is
the last row, column 3 the last column.  The grid is the corner of a quarter
plane, so escape exits live on the union of the last row and last column.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

Vertex = tuple[int, int]
Edge = tuple[Vertex, Vertex]

GRID_SIZE = 3
ALL_VERTICES: tuple[Vertex, ...] = tuple(
    (r, c) for r in range(1, GRID_SIZE + 1) for c in range(1, GRID_SIZE + 1)
)

CORNER: Vertex = (3, 3)

# Boundary path in walking order: down the last column, then along the last
# row toward column 1.  unique_l_path and shifts follow this order.
L_ORDER: tuple[Vertex, ...] = ((1, 3), (2, 3), (3, 3), (3, 2), (3, 1))

LAST_ROW: frozenset[Vertex] = frozenset({(3, 1), (3, 2), (3, 3)})
LAST_COL: frozenset[Vertex] = frozenset({(1, 3), (2, 3), (3, 3)})
BOUNDARY: frozenset[Vertex] = LAST_ROW | LAST_COL
INNER_SQUARE: frozenset[Vertex] = frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
COL_ONLY: frozenset[Vertex] = LAST_COL - LAST_ROW  # {(1,3), (2,3)}
ROW_ONLY: frozenset[Vertex] = LAST_ROW - LAST_COL  # {(3,1), (3,2)}


class GridError(ValueError):
    """Raised for structurally invalid grid inputs."""


def is_vertex(v: object) -> bool:
    return (
        isinstance(v, tuple)
        and len(v) == 2
        # exact int: bool is an int subclass, and JSON true is no coordinate
        and all(type(x) is int and 1 <= x <= GRID_SIZE for x in v)
    )


def adjacent(u: Vertex, v: Vertex) -> bool:
    return abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1


def edge(u: Vertex, v: Vertex) -> Edge:
    """Canonical edge: lexicographically smaller endpoint first."""
    if not adjacent(u, v):
        raise GridError(f"{u} and {v} are not grid-adjacent")
    return (u, v) if u < v else (v, u)


class Record:
    """Base of the package's records.  A record class lists its compared
    fields, in order, in ``_fields``, and keeps them, with any state it owns
    beyond them, in its ``__slots__``: no record has an instance dict.  Two
    records are equal when they are of the same class and their compared
    fields are equal as one tuple; a record of another class gives
    ``NotImplemented``.  The repr names the compared fields in order.  A
    record defines ``__eq__``, so it has no hash: the mutable records stay
    unhashable, and ``Frozen`` adds one."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("_fields")
        if fields:
            get = attrgetter(*fields)
            # a single field still reads as a one-tuple, which hashes as the key
            cls._key_of = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))
        # each slot's own setter, in slot order: a frozen record's
        # __setattr__ refuses, the slot's descriptor does not
        slots = cls.__dict__.get("__slots__", ())
        cls._setters = tuple(cls.__dict__[name].__set__ for name in slots)

    def _set_fields(self, *values):
        """Set the class's slots, in order, to ``values``; slots past the
        last value stay empty."""
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key_of
        return key(self) == key(other)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"


class Frozen(Record):
    """Base of the package's immutable records: no attribute can be
    assigned or deleted, and a record hashes as the tuple of its compared
    fields.  A record's constructor sets its slots once, through
    ``_set_fields``, which writes each through its slot's descriptor and so
    bypasses the refusal below; ``Path`` keeps its four slot setters as
    module names for the constructors on its hot paths."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key_of(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GridGraph(Frozen):
    """A subgraph of the corner grid: its vertices and its edges.  Equal
    graphs hash alike: a graph keys the kernel's descriptor caches."""

    __slots__ = _fields = ("vertices", "edges")

    def __init__(self, vertices: frozenset[Vertex], edges: frozenset[Edge]):
        self._set_fields(vertices, edges)

    def sorted_vertices(self) -> tuple[Vertex, ...]:
        return tuple(sorted(self.vertices))

    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))


def build_corner_grid(deleted: frozenset[Vertex] = frozenset()) -> GridGraph:
    """The corner grid minus a set of deleted vertices and incident edges;
    one graph per vertex set, built on first use."""
    try:
        deleted = frozenset(deleted)
    except TypeError:
        raise GridError(f"deleted vertices {deleted!r} are not a set of vertices") from None
    return _corner_grid(deleted)


@lru_cache(maxsize=None)
def _corner_grid(deleted: frozenset[Vertex]) -> GridGraph:
    for v in deleted:
        if not is_vertex(v):
            raise GridError(f"deleted vertex {v} outside the corner grid")
    vertices = frozenset(ALL_VERTICES) - deleted
    all_edges = set()
    for r, c in vertices:
        for w in ((r, c + 1), (r + 1, c)):
            if w in vertices:
                all_edges.add(edge((r, c), w))
    return GridGraph(vertices=vertices, edges=frozenset(all_edges))


def full_grid() -> GridGraph:
    return build_corner_grid(frozenset())


def grid_without_corner() -> GridGraph:
    return build_corner_grid(frozenset({CORNER}))


def reflect_vertex(v: Vertex) -> Vertex:
    return (v[1], v[0])


def unique_l_path(u: Vertex, v: Vertex) -> tuple[Vertex, ...]:
    """The unique walk between two boundary vertices inside the boundary path.

    Returns the vertex sequence; zero-length (a single vertex) when u == v.
    """
    try:
        on_boundary = u in BOUNDARY and v in BOUNDARY
    except TypeError:  # an unhashable vertex
        on_boundary = False
    if not on_boundary:
        raise GridError(f"unique_l_path requires boundary vertices, got {u}, {v}")
    i, j = L_ORDER.index(u), L_ORDER.index(v)
    if i <= j:
        return L_ORDER[i : j + 1]
    return tuple(reversed(L_ORDER[j : i + 1]))


# Edge-set helpers used by the constructive router.

def row_edges(i: int) -> frozenset[Edge]:
    return frozenset(edge((i, c), (i, c + 1)) for c in range(1, GRID_SIZE))


def col_edges(j: int) -> frozenset[Edge]:
    return frozenset(edge((r, j), (r + 1, j)) for r in range(1, GRID_SIZE))


L_EDGES: frozenset[Edge] = frozenset(edge(a, b) for a, b in zip(L_ORDER, L_ORDER[1:]))
S_EDGES: frozenset[Edge] = frozenset(
    {edge((1, 1), (1, 2)), edge((1, 2), (2, 2)), edge((2, 1), (2, 2)), edge((1, 1), (2, 1))}
)

INNER_CYCLE_4: tuple[Vertex, ...] = ((2, 2), (2, 3), (3, 3), (3, 2))
# Six-cycle on Q minus the first row.
CYCLE_6_NO_ROW1: tuple[Vertex, ...] = ((2, 1), (2, 2), (2, 3), (3, 3), (3, 2), (3, 1))
# Six-cycle on Q minus the first column.
CYCLE_6_NO_COL1: tuple[Vertex, ...] = ((1, 2), (1, 3), (2, 3), (3, 3), (3, 2), (2, 2))
# Eight-cycle on Q minus the corner (3,3).
CYCLE_8_NO_CORNER: tuple[Vertex, ...] = (
    (1, 1), (1, 2), (1, 3), (2, 3), (2, 2), (3, 2), (3, 1), (2, 1),
)


def cycle_edges(cycle: tuple[Vertex, ...]) -> frozenset[Edge]:
    return frozenset(
        edge(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    )
