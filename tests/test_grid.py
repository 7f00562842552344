import pytest

from escape3x3.grid import (
    BOUNDARY,
    COL_ONLY,
    CYCLE_6_NO_COL1,
    CYCLE_6_NO_ROW1,
    CYCLE_8_NO_CORNER,
    INNER_CYCLE_4,
    INNER_SQUARE,
    LAST_COL,
    LAST_ROW,
    GRID_EDGES,
    GridError,
    GridGraph,
    build_corner_grid,
    cycle_edges,
    edge,
    full_grid,
    reflect_vertex,
    unique_l_path,
)
from escape3x3.model import path_of


def test_full_grid_counts():
    g = full_grid()
    assert len(g.vertices) == 9
    assert len(g.edges) == 12


def test_corner_deletion_counts():
    g = build_corner_grid(frozenset({(3, 3)}))
    assert len(g.vertices) == 8
    assert len(g.edges) == 10


def test_center_deletion_counts():
    g = build_corner_grid(frozenset({(2, 2)}))
    assert len(g.vertices) == 8
    assert len(g.edges) == 8


def test_deletion_outside_grid_rejected():
    with pytest.raises(GridError):
        build_corner_grid(frozenset({(0, 1)}))


def test_grid_graph_refuses_input_off_the_corner_grid():
    """A ``GridGraph`` is a subgraph of the corner grid: a vertex off it, an
    edge that is not one of its edges, an edge with an end the graph lacks,
    a coordinate that only equals an int, and sets that are not frozensets
    are each a ``GridError``; any subgraph is accepted."""
    row = [(1, c) for c in range(1, 34)]  # a 33-vertex row path
    two = frozenset({(1, 1), (1, 2)})
    for vertices, edges in (
        (frozenset(row), frozenset(edge(a, b) for a, b in zip(row, row[1:]))),
        (frozenset({(0, 1)}), frozenset()),
        (frozenset({(1, 1.0)}), frozenset()),
        (frozenset({(True, 1), (1, 2)}), frozenset()),
        (two, frozenset({((1, 1), (2, 2))})),
        (two, frozenset({((1, 2), (1, 1))})),
        (two, frozenset({((1, 2), (1, 3))})),
        (two, frozenset({((True, 1), (1, 2))})),
        (two, frozenset({"ab"})),
        (set(two), frozenset()),
        (two, [((1, 1), (1, 2))]),
    ):
        with pytest.raises(GridError):
            GridGraph(vertices, edges)
    g = full_grid()
    assert g.edges == GRID_EDGES
    assert GridGraph(g.vertices, frozenset()).edges == frozenset()
    sub = GridGraph(two, frozenset({((1, 1), (1, 2))}))
    assert sub == GridGraph(vertices=two, edges=frozenset({edge((1, 2), (1, 1))}))


def test_boundary_partition():
    assert LAST_ROW == {(3, 1), (3, 2), (3, 3)}
    assert LAST_COL == {(1, 3), (2, 3), (3, 3)}
    assert LAST_ROW & LAST_COL == {(3, 3)}
    assert BOUNDARY == LAST_ROW | LAST_COL
    assert len(BOUNDARY) == 5
    assert len(INNER_SQUARE) == 4
    assert BOUNDARY | INNER_SQUARE == full_grid().vertices
    assert not BOUNDARY & INNER_SQUARE


def test_four_bridging_edges():
    g = full_grid()
    bridges = [
        e for e in g.edges if (e[0] in INNER_SQUARE) != (e[1] in INNER_SQUARE)
    ]
    assert len(bridges) == 4


def test_edge_canonical_order():
    assert edge((2, 1), (1, 1)) == ((1, 1), (2, 1))
    with pytest.raises(GridError):
        edge((1, 1), (2, 2))


def test_reflect_examples():
    assert reflect_vertex((1, 2)) == (2, 1)
    assert reflect_vertex((3, 3)) == (3, 3)
    assert path_of((1, 2), (2, 2)).reflected() == path_of((2, 1), (2, 2))


def test_reflect_is_involution_on_vertices():
    for v in sorted(full_grid().vertices):
        assert reflect_vertex(reflect_vertex(v)) == v


def test_reflect_is_automorphism():
    g = full_grid()
    reflected = {edge(reflect_vertex(a), reflect_vertex(b)) for a, b in g.edges}
    assert reflected == g.edges
    assert {reflect_vertex(v) for v in BOUNDARY} == BOUNDARY
    assert {reflect_vertex(v) for v in INNER_SQUARE} == INNER_SQUARE


def test_unique_l_path_examples():
    assert unique_l_path((1, 3), (3, 1)) == ((1, 3), (2, 3), (3, 3), (3, 2), (3, 1))
    assert unique_l_path((2, 3), (2, 3)) == ((2, 3),)
    assert unique_l_path((2, 3), (3, 2)) == ((2, 3), (3, 3), (3, 2))
    with pytest.raises(GridError):
        unique_l_path((1, 1), (3, 1))


def test_unique_l_path_stays_on_boundary():
    for u in sorted(BOUNDARY):
        for v in sorted(BOUNDARY):
            walk = unique_l_path(u, v)
            assert set(walk) <= BOUNDARY
            assert walk[0] == u and walk[-1] == v


def test_named_cycles_are_cycles():
    g = full_grid()
    for cyc in (INNER_CYCLE_4, CYCLE_6_NO_ROW1, CYCLE_6_NO_COL1, CYCLE_8_NO_CORNER):
        assert len(cycle_edges(cyc)) == len(cyc)
        assert cycle_edges(cyc) <= g.edges


def test_col_only_is_column_stub():
    assert COL_ONLY == {(1, 3), (2, 3)}
