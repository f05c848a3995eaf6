"""Distance and embedding layer, checked against naive oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sierpack import graph_core
from sierpack._naive import _fw_distances, naive_all_pairs_distances, naive_bfs_distances
from sierpack.graph_core import (
    _BATCH,
    UNREACHABLE,
    DisconnectedGraph,
    DuplicateLabel,
    EmbeddingMap,
    FormatError,
    IncompleteMap,
    SelfLoop,
    TooLarge,
    UnknownLabel,
    all_pairs_distances,
    bfs_distances,
    build_graph,
    diameter,
    format_graph_text,
    induced_subgraph,
    parse_graph_text,
    parse_map_text,
    verify_subgraph_embedding,
)
from sierpack.sierpinski import base_graph_library, gen_generalized, gen_sierpinski, gen_triangle


def random_graph(rng, n_max=12, p=None):
    n = rng.randint(1, n_max)
    p = rng.random() if p is None else p
    labels = [f"v{i}" for i in range(n)]
    edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return build_graph(labels, edges)


def test_all_pairs_matches_floyd_warshall_on_random_graphs():
    rng = random.Random(20260823)
    for _ in range(120):
        g = random_graph(rng)
        dm = all_pairs_distances(g)
        oracle = _fw_distances(g)
        for i, a in enumerate(g.labels):
            for j, b in enumerate(g.labels):
                got = dm.distance(a, b)
                want = oracle[i][j]
                if want == float("inf"):
                    assert got == UNREACHABLE
                else:
                    assert got == want


def numbered_graph(n, edges):
    return build_graph([f"v{i}" for i in range(n)], [(f"v{a}", f"v{b}") for a, b in edges])


def sparse_graph(n, seed):
    """A sparse G(n, p): often disconnected, with isolated vertices (columns
    of pad entries only) anywhere, the last ones included."""
    rng = random.Random(seed)
    p = rng.uniform(0, 3 / n)
    return numbered_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                              if rng.random() < p])


# the kernel's trap cases, each a reason for one of its lines
KERNEL_CASES = {
    "one-vertex": numbered_graph(1, []),
    "edgeless": numbered_graph(5, []),  # width 0: each level ORs no slot at all
    # degree-0 vertices, last and inside: every slot of theirs is the pad row
    "last-isolated": numbered_graph(4, [(0, 2), (1, 2)]),
    "isolated-inside": numbered_graph(7, [(0, 4), (1, 4), (4, 2), (5, 6)]),
    "two-components": numbered_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
    "path-70": numbered_graph(71, [(i, i + 1) for i in range(69)]),  # > 64 sources, one isolated
    "sparse-600": sparse_graph(600, 600),  # three batches of sources
    # too uneven to pad to the maximum degree: the slots stop at the median
    # degree and the neighbors past it come from the CSR tail
    "star-300": numbered_graph(300, [(0, i) for i in range(1, 300)]
                               + [(1, 2), (5, 9), (100, 200), (298, 299)]),
    "hub-among-isolated": numbered_graph(300, [(0, i) for i in range(1, 7)]),  # tail only
    "hubs-and-path": numbered_graph(240, [(i, i + 1) for i in range(219)]
                                    + [(220, i) for i in range(50)]
                                    + [(221, i) for i in range(100, 220, 4)]
                                    + [(222, i) for i in (220, 221, *range(223, 240))]),
    # distances up to 279 fill nine bit planes, an eight-plane (uint8) counter
    # wraps; the unreached cells cross every plane, and there are two batches
    "paths-279-and-20": numbered_graph(302, [(i, i + 1) for i in range(279)]
                                       + [(i, i + 1) for i in range(280, 300)]),
}


def test_uneven_trap_cases_take_the_tail():
    for name, width in (("star-300", 1), ("hub-among-isolated", 0), ("hubs-and-path", 2)):
        g = KERNEL_CASES[name]
        assert g._ell.shape == (width, g.n)
        rows, starts, nbrs = g._tail
        degrees = np.array([len(g.neighbor_indices(i)) for i in range(g.n)])
        assert rows.tolist() == np.flatnonzero(degrees > width).tolist()
        assert len(nbrs) == int((degrees[rows] - width).sum())
    assert KERNEL_CASES["path-70"]._ell.shape == (2, 71)
    assert KERNEL_CASES["path-70"]._tail is None


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_matches_per_source_oracle_on_trap_cases(name):
    g = KERNEL_CASES[name]
    got = all_pairs_distances(g).matrix
    assert np.array_equal(got, naive_all_pairs_distances(g).matrix)
    if g.n <= 300:
        fw = np.array(_fw_distances(g))
        assert np.array_equal(got, np.where(np.isinf(fw), UNREACHABLE, fw))
    for src in g.labels[:3] + g.labels[-3:]:
        for limit in (None, 0, 1, 2):
            assert bfs_distances(g, src, limit) == naive_bfs_distances(g, src, limit)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_kernel_all_pairs_matches_per_source_oracle(seed):
    # up to 300 vertices: more than 64 sources a word, more than one batch
    g = sparse_graph(random.Random(seed).randint(1, 300), seed)
    assert np.array_equal(all_pairs_distances(g).matrix,
                          naive_all_pairs_distances(g).matrix)


@pytest.fixture
def sweep_widths(monkeypatch):
    """The number of sources of every `_sweep` call, in call order."""
    widths = []
    real = graph_core._sweep

    def counted(g, sources, depth_limit=None):
        widths.append(len(sources))
        return real(g, sources, depth_limit)

    monkeypatch.setattr(graph_core, "_sweep", counted)
    return widths


def test_diameter_sweeps_a_fringe_level_larger_than_one_batch(sweep_widths):
    # C4 blown up to groups of 130: from any root, level 2 holds 259
    # vertices, and iFUB must sweep it (2 * 2 > the double-sweep bound 2)
    s = 130
    g = numbered_graph(4 * s, [(a * s + i, (a + 1) % 4 * s + j)
                               for a in range(4) for i in range(s) for j in range(s)])
    assert diameter(g) == int(naive_all_pairs_distances(g).matrix.max()) == 2
    # the double sweep and the root, then the 259-vertex fringe in two batches
    assert sweep_widths == [1, 1, 1, 1, _BATCH, 259 - _BATCH]


def test_diameter_sweeps_the_fringe_in_full_batches_across_levels(sweep_widths):
    # ST^7: the fringe levels hold 4 to 20 vertices each; batched across
    # level boundaries they fill four full sweeps and one of 69
    assert diameter(gen_triangle(7)) == 128
    assert sweep_widths == [1, 1, 1, 1, 256, 256, 256, 256, 69]


def random_tree(n, seed):
    rng = random.Random(seed)
    return numbered_graph(n, [(rng.randrange(i), i) for i in range(1, n)])


@pytest.mark.parametrize("g", [gen_triangle(5), gen_sierpinski(4, 5), random_tree(600, 600),
                               numbered_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                                  (1, 5)])],
                         ids=["ST5", "S4_5", "tree-600", "C5-pendant"])
def test_diameter_matches_the_all_pairs_oracle(g):
    # ST^5 sweeps 16 fringe levels in one batch, S^4_5 two batches of
    # several levels; in a tree the root is the center and ends the scan.
    # On the 5-cycle v0..v4 with v5 hung on v1, the double sweep and the
    # midpoint root v1 give 2; only sweeping the level-2 fringe {v3, v4}
    # finds the diameter 3, from v5
    assert diameter(g) == int(naive_all_pairs_distances(g).matrix.max())


def test_all_pairs_matches_floyd_warshall_on_generated_graphs():
    small = [gen_sierpinski(2, 3), gen_generalized(1, base_graph_library("C4")),
             gen_generalized(1, base_graph_library("K13"))]
    for g in small:
        assert g.n <= 12
        dm = all_pairs_distances(g)
        oracle = _fw_distances(g)
        for i, a in enumerate(g.labels):
            for j, b in enumerate(g.labels):
                assert dm.distance(a, b) == oracle[i][j]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.random_module())
def test_depth_limited_bfs_is_restriction_of_full_bfs(n, rnd):
    rng = random.Random(rnd.seed)
    g = random_graph(rng, n_max=n)
    src = g.labels[rng.randrange(g.n)]
    full = bfs_distances(g, src)
    for limit in range(0, n + 1):
        limited = bfs_distances(g, src, depth_limit=limit)
        assert limited == {v: d for v, d in full.items() if d <= limit}


def test_bfs_distance_examples():
    path = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert bfs_distances(path, "a", depth_limit=1) == {"a": 0, "b": 1}
    # extreme-to-extreme distance realizes the diameter 2^n - 1
    s23 = gen_sierpinski(2, 3)
    assert bfs_distances(s23, "00")["11"] == 3


def test_triangle_and_k4_all_pairs_are_all_ones():
    for g in (gen_sierpinski(1, 3), gen_sierpinski(1, 4)):
        dm = all_pairs_distances(g)
        off = dm.matrix[~np.eye(g.n, dtype=bool)]
        assert (off == 1).all()


def test_diameter_matches_all_pairs_max_on_random_connected_graphs():
    rng = random.Random(7)
    done = 0
    while done < 60:
        g = random_graph(rng, n_max=20, p=rng.uniform(0.15, 0.9))
        dm = all_pairs_distances(g)
        if not dm.connected():
            with pytest.raises(DisconnectedGraph):
                diameter(g)
            continue
        assert diameter(g) == int(dm.matrix.max()) == max(map(max, _fw_distances(g)))
        done += 1


def test_diameter_of_s3_4_is_7():
    assert diameter(gen_sierpinski(3, 4)) == 7
    assert int(all_pairs_distances(gen_sierpinski(3, 4)).matrix.max()) == 7


def test_construction_errors():
    with pytest.raises(DuplicateLabel):
        build_graph(["a", "a"], [])
    with pytest.raises(SelfLoop):
        build_graph(["a"], [("a", "a")])
    with pytest.raises(UnknownLabel):
        build_graph(["a"], [("a", "b")])
    # duplicate edges collapse silently
    g = build_graph(["a", "b"], [("a", "b"), ("b", "a")])
    assert g.edge_count == 1


def test_all_pairs_size_guard():
    g = numbered_graph(5_001, [(i, i + 1) for i in range(5_000)])
    with pytest.raises(TooLarge):
        all_pairs_distances(g)


def test_induced_subgraph_examples():
    k4 = gen_sierpinski(1, 4)
    sub = induced_subgraph(k4, {"0", "1"})
    assert sub.labels == ("0", "1") and sub.edges() == [("0", "1")]
    assert induced_subgraph(k4, set()).n == 0
    with pytest.raises(UnknownLabel):
        induced_subgraph(k4, {"9"})


def test_embedding_of_edge_deleted_subgraph_succeeds():
    # deleting base edges gives nested generalized graphs on identical labels
    for small, big in (("P4", "C4"), ("PAW", "K4E"), ("C4", "K4")):
        h = gen_generalized(3, base_graph_library(small))
        g = gen_generalized(3, base_graph_library(big))
        ident = EmbeddingMap({lab: lab for lab in h.labels})
        assert verify_subgraph_embedding(h, g, ident).ok


def test_embedding_failure_reports_first_bad_edge():
    h = build_graph(["x", "y"], [("x", "y")])
    g = build_graph(["a", "b", "c"], [("a", "b")])
    bad = verify_subgraph_embedding(h, g, EmbeddingMap({"x": "a", "y": "c"}))
    assert not bad.ok
    assert bad.failed_edge == ("x", "y") and bad.failed_image == ("a", "c")


def test_embedding_usage_errors():
    h = build_graph(["x", "y"], [("x", "y")])
    g = build_graph(["a", "b"], [("a", "b")])
    with pytest.raises(IncompleteMap):
        verify_subgraph_embedding(h, g, EmbeddingMap({"x": "a"}))
    with pytest.raises(UnknownLabel):
        verify_subgraph_embedding(h, g, EmbeddingMap({"x": "a", "y": "z"}))
    with pytest.raises(DuplicateLabel):
        EmbeddingMap({"x": "a", "y": "a"})


def test_graph_text_roundtrip_and_ordering():
    g = gen_sierpinski(2, 3)
    text = format_graph_text(g)
    lines = text.strip().splitlines()
    vlines = [l for l in lines if l.startswith("v ")]
    elines = [l for l in lines if l.startswith("e ")]
    assert vlines == sorted(vlines) and elines == sorted(elines)
    assert parse_graph_text(text) == g
    assert parse_graph_text("# comment\nv a\n\nv b\ne a b\n").edge_count == 1
    with pytest.raises(FormatError):
        parse_graph_text("v a\nq bogus\n")


def test_map_text_roundtrip():
    m = parse_map_text("# comment\nx 00\n\ny 11\n")
    assert m == EmbeddingMap({"x": "00", "y": "11"})
    with pytest.raises(FormatError):
        parse_map_text("a\n")
    with pytest.raises(DuplicateLabel):
        parse_map_text("a 0\na 1\n")
