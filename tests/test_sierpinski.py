"""Generator structure: counts, identities, contraction behaviour."""

import pytest

from sierpack.graph_core import all_pairs_distances, diameter, format_graph_text
from sierpack.sierpinski import (
    DimensionOutOfRange,
    InvalidBaseGraph,
    UnknownName,
    base_graph_library,
    block_vertices,
    extreme_vertices,
    gen_generalized,
    gen_sierpinski,
    gen_triangle,
    gen_triangle_recursive,
    linking_partner,
)

LIBRARY = ["K4", "C4", "P4", "K13", "K4E", "PAW"]


def test_library_edge_sets():
    assert base_graph_library("C4").edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert base_graph_library("P4").edges == ((0, 1), (1, 2), (2, 3))
    k13 = base_graph_library("K13")
    assert k13.edges == ((0, 1), (1, 2), (1, 3))  # center 1
    k4e = base_graph_library("K4E")
    assert len(k4e.edges) == 5 and (0, 2) not in k4e.edges
    paw = base_graph_library("PAW")
    assert paw.edges == ((0, 1), (1, 2), (1, 3), (2, 3))
    assert set(paw.edges) <= set(k4e.edges)
    assert base_graph_library("K4").edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    with pytest.raises(UnknownName):
        base_graph_library("Q3")
    with pytest.raises(UnknownName):
        base_graph_library("K11")


def test_base_graph_invariants_rejected():
    from sierpack.sierpinski import BaseGraph
    with pytest.raises(InvalidBaseGraph):
        BaseGraph("bad", 3, ((0, 1),))  # vertex 2 isolated
    with pytest.raises(InvalidBaseGraph):
        BaseGraph("bad", 4, ((0, 1), (2, 3)))  # disconnected
    with pytest.raises(InvalidBaseGraph):
        BaseGraph("bad", 1, ())


def test_sierpinski_equals_generalized_complete_serialization():
    for k in range(2, 6):
        for n in range(1, 5 if k > 3 else 6):
            a = gen_sierpinski(n, k)
            b = gen_generalized(n, base_graph_library(f"K{k}"))
            assert format_graph_text(a) == format_graph_text(b)


def test_vertex_and_edge_counts():
    for name in LIBRARY:
        g = base_graph_library(name)
        for n in range(1, 6):
            sg = gen_generalized(n, g)
            assert sg.n == g.k ** n
            assert sg.edge_count == len(g.edges) * (g.k ** n - 1) // (g.k - 1)


def test_known_small_cases():
    assert gen_generalized(2, base_graph_library("C4")).edge_count == 20
    s = gen_sierpinski(2, 3)
    assert s.n == 9 and s.edge_count == 12
    k13_2 = gen_generalized(2, base_graph_library("K13"))
    assert k13_2.has_edge("01", "10") and not k13_2.has_edge("02", "20")


def test_edge_set_monotonicity_under_base_subgraphs():
    pairs = [("P4", "C4"), ("PAW", "K4E")]
    for small, big in pairs:
        for n in range(1, 5):
            h = gen_generalized(n, base_graph_library(small))
            g = gen_generalized(n, base_graph_library(big))
            assert set(h.edges()) <= set(g.edges())


def test_diameter_of_sierpinski_graphs():
    for k in (3, 4, 5):
        for n in range(1, 5):
            assert diameter(gen_sierpinski(n, k)) == 2 ** n - 1


def test_block_isometry_on_library_bases():
    # distances inside a depth-1 block equal distances in the whole graph
    for name in LIBRARY:
        g = base_graph_library(name)
        for n in (2, 3):
            whole = gen_generalized(n, g)
            dw = all_pairs_distances(whole)
            block = sorted(block_vertices("0", n, g.k))
            sub_index = {lab: i for i, lab in enumerate(block)}
            from sierpack.graph_core import induced_subgraph
            db = all_pairs_distances(induced_subgraph(whole, set(block)))
            for a in block:
                for b in block:
                    assert db.distance(a, b) == dw.distance(a, b), (name, n, a, b)


def test_triangle_counts_and_degrees():
    for n in range(0, 6):
        t = gen_triangle(n)
        assert t.n == (3 ** (n + 1) + 3) // 2
        assert t.edge_count == 3 ** (n + 1)
        if n >= 1:
            degs = sorted(t.degree(lab) for lab in t.labels)
            assert degs.count(2) == 3
            assert all(d in (2, 4) for d in degs)
            corners = [lab for lab in t.labels if t.degree(lab) == 2]
            assert sorted(corners) == extreme_vertices("triangle", n)


def test_triangle_diameter_is_power_of_two():
    for n in range(0, 6):
        assert diameter(gen_triangle(n)) == 2 ** n


def test_triangle_equals_recursive_construction():
    for n in range(0, 6):
        a, b = gen_triangle(n), gen_triangle_recursive(n)
        assert format_graph_text(a) == format_graph_text(b)


def test_linking_partner_involution():
    assert linking_partner("122") == "211"
    assert linking_partner("012") == "021"
    assert linking_partner("000") is None
    for w in ("10", "0121", "2001", "22210"):
        p = linking_partner(w)
        assert p is not None and linking_partner(p) == w


def test_linking_edges_lie_in_no_triangle():
    # in S^{n+1}_3 an edge is a linking edge iff it has no common neighbor
    for npow in (2, 3, 4):
        g = gen_sierpinski(npow, 3)
        for a, b in g.edges():
            na, nb = set(g.neighbors(a)), set(g.neighbors(b))
            in_triangle = bool(na & nb)
            is_link = a[:-1] != b[:-1]
            assert in_triangle != is_link, (a, b)


def test_extreme_vertices_families():
    assert extreme_vertices("generalized", 3, base_graph_library("C4")) == \
        ["000", "111", "222", "333"]
    assert extreme_vertices("generalized", 2, base_graph_library("K3")) == ["00", "11", "22"]
    assert extreme_vertices("triangle", 2) == ["000", "111", "222"]
    assert extreme_vertices("triangle", 0) == ["0", "1", "2"]
    for family in ("mystery", "sierpinski"):
        with pytest.raises(UnknownName):
            extreme_vertices(family, 1, base_graph_library("K3"))
    with pytest.raises(UnknownName):
        extreme_vertices("generalized", 1)  # base graph missing


def test_block_vertices():
    assert block_vertices("3", 3, 4) == {f"3{a}{b}" for a in "0123" for b in "0123"}
    assert block_vertices("03", 3, 4) == {"030", "031", "032", "033"}
    assert block_vertices("", 2, 3) == {a + b for a in "012" for b in "012"}
    with pytest.raises(DimensionOutOfRange):
        block_vertices("000", 2, 3)


def test_dimension_guards():
    with pytest.raises(DimensionOutOfRange):
        gen_generalized(0, base_graph_library("C4"))
    with pytest.raises(DimensionOutOfRange):
        gen_generalized(13, base_graph_library("C4"))
    with pytest.raises(DimensionOutOfRange):
        gen_triangle(-1)
    with pytest.raises(DimensionOutOfRange):
        gen_triangle(10)
    # within the dimension cap, the vertex guard still refuses 10^8 vertices
    with pytest.raises(DimensionOutOfRange, match="guard"):
        gen_sierpinski(8, 10)
