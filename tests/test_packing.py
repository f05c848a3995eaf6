"""Solver layer: oracle agreement, pruning machinery, verification."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sierpack import packing
from sierpack._data import load_graph
from sierpack._naive import (
    _fw_distances,
    naive_chi_rho,
    naive_is_k_colorable,
    random_connected_graphs,
)
from sierpack.graph_core import (
    DisconnectedGraph,
    UnknownLabel,
    all_pairs_distances,
    build_graph,
)
from sierpack.packing import (
    BOUNDS,
    EXACT,
    SAT,
    TIMEOUT,
    UNSAT,
    ColorConstraints,
    InfeasibleConstraints,
    SolveTimeout,
    TooLarge,
    _max_clique_size,
    chi_rho,
    counting_lower_bound,
    format_coloring_text,
    greedy_packing_coloring,
    is_packing_k_colorable,
    max_color,
    max_i_packing_size,
    parse_coloring_text,
    verify_packing_coloring,
)
from sierpack.sierpinski import (
    base_graph_library,
    gen_generalized,
    gen_sierpinski,
    gen_triangle,
)


def brute_max_clique(masks):
    n = len(masks)
    best = 0
    for r in range(n, 0, -1):
        if r <= best:
            break
        for sub in itertools.combinations(range(n), r):
            if all(masks[a] >> b & 1 for a, b in itertools.combinations(sub, 2)):
                best = max(best, r)
                break
    return best


def test_max_clique_matches_brute_force_on_random_masks():
    rng = random.Random(99)
    for _ in range(80):
        n = rng.randint(1, 12)
        masks = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < rng.choice([0.2, 0.5, 0.8]):
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        assert _max_clique_size(masks) == brute_max_clique(masks)


def test_max_packing_examples():
    k4 = gen_sierpinski(1, 4)
    assert max_i_packing_size(k4, 1) == 1
    st2 = gen_triangle(2)
    assert max_i_packing_size(st2, 2) == 3
    for i in (4, 5, 6):
        assert max_i_packing_size(st2, i) == 1
    # distance power caps used in hand counting arguments
    s2k4e = gen_generalized(2, base_graph_library("K4E"))
    assert [max_i_packing_size(s2k4e, i) for i in (1, 2, 3, 4, 5)] == [8, 4, 2, 2, 2]


def test_max_packing_guards():
    path = build_graph([f"p{i}" for i in range(61)],
                       [(f"p{i}", f"p{i+1}") for i in range(60)])
    with pytest.raises(TooLarge):
        max_i_packing_size(path, 2)


def test_counting_lower_bound_examples():
    assert counting_lower_bound(gen_sierpinski(1, 4)) == 4
    assert counting_lower_bound(gen_triangle(1)) == 4
    assert counting_lower_bound(build_graph(["a", "b"], [("a", "b")])) == 2


def test_verify_reports_all_violations_and_uncolored():
    k2 = build_graph(["a", "b"], [("a", "b")])
    rep = verify_packing_coloring(k2, {"a": 1, "b": 1})
    assert not rep.ok and rep.violations == [(1, "a", "b", 1)]
    rep2 = verify_packing_coloring(k2, {"a": 1})
    assert not rep2.ok and rep2.uncolored == ["b"]
    assert verify_packing_coloring(k2, {"a": 1, "b": 2}).ok
    with pytest.raises(UnknownLabel):
        verify_packing_coloring(k2, {"z": 1})
    path = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    rep3 = verify_packing_coloring(path, {"a": 2, "b": 1, "c": 2})
    assert rep3.violations == [(2, "a", "c", 2)]


def test_solver_matches_naive_oracle_on_small_suite():
    for g in random_connected_graphs(25, seed=424242, n_max=7):
        res = chi_rho(g, budget=60.0)
        assert res.status == EXACT
        assert res.lower == res.upper == naive_chi_rho(g)
        assert verify_packing_coloring(g, res.witness).ok
        assert max_color(res.witness) == res.upper


def random_graphs_with_isolated_parts(count, seed, n_max=7):
    """Seeded G(n, p) graphs that are not connected: isolated vertices,
    or several components."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, n_max)
        p = rng.uniform(0.1, 0.6)
        labels = [f"v{i}" for i in range(n)]
        edges = [(labels[i], labels[j]) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < p]
        g = build_graph(labels, edges)
        if any(d == float("inf") for row in _fw_distances(g) for d in row):
            out.append(g)
    return out


def brute_max_packing(g, i):
    d = _fw_distances(g)
    return max(r for r in range(1, g.n + 1)
               for sub in itertools.combinations(range(g.n), r)
               if all(d[a][b] > i for a, b in itertools.combinations(sub, 2)))


def test_decide_and_max_packing_match_oracles_on_connected_and_split_graphs():
    graphs = (random_connected_graphs(30, seed=2718, n_max=8)
              + random_graphs_with_isolated_parts(40, seed=2718, n_max=8))
    for g in graphs:
        for k in range(1, g.n + 1):
            want = SAT if naive_is_k_colorable(g, k) else UNSAT
            assert is_packing_k_colorable(g, k).status == want, (g.edges(), k)
        for i in (1, 2, 3, 4):
            assert max_i_packing_size(g, i) == brute_max_packing(g, i), (g.edges(), i)


@pytest.mark.parametrize("run, status, nodes", [
    (lambda: chi_rho(gen_triangle(2)), EXACT, 79_488),
    (lambda: chi_rho(gen_generalized(2, base_graph_library("K4E"))), EXACT, 15_784),
    (lambda: is_packing_k_colorable(gen_triangle(2), 7), UNSAT, 63_288),
    (lambda: is_packing_k_colorable(load_graph("h.graph"), 4), UNSAT, 1_405),
], ids=["chi-ST2", "chi-S2K4E", "decide-ST2-k7", "decide-H-k4"])
def test_search_tree_is_pinned(run, status, nodes):
    # exact node counts: any change to the branch order, the balls or the
    # capacities changes the tree, and must show up here
    res = run()
    assert (res.status, res.nodes_explored) == (status, nodes)


def test_chi_rho_builds_one_distance_matrix(monkeypatch):
    sizes = []
    real = packing.all_pairs_distances

    def counted(g, *args, **kwargs):
        sizes.append(g.n)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(packing, "all_pairs_distances", counted)
    res = chi_rho(gen_triangle(2))
    assert res.status == EXACT and res.upper == 8
    assert sizes == [15]


def test_decision_solver_basics():
    k3 = gen_sierpinski(1, 3)
    res = is_packing_k_colorable(k3, 3)
    assert res.status == SAT and sorted(res.witness.values()) == [1, 2, 3]
    assert is_packing_k_colorable(k3, 2).status == UNSAT
    empty = build_graph([], [])
    assert is_packing_k_colorable(empty, 1).status == SAT


def test_decision_solver_respects_constraints():
    k3 = gen_sierpinski(1, 3)
    cons = ColorConstraints(forbidden={"0": frozenset({1})}, required={"1": 2})
    res = is_packing_k_colorable(k3, 3, cons)
    assert res.status == SAT
    assert res.witness["0"] != 1 and res.witness["1"] == 2
    assert verify_packing_coloring(k3, res.witness).ok
    # forbidding every color at one vertex is exhaustively infeasible
    res2 = is_packing_k_colorable(k3, 3, ColorConstraints(
        forbidden={"0": frozenset({1, 2, 3})}))
    assert res2.status == UNSAT
    with pytest.raises(InfeasibleConstraints):
        ColorConstraints(forbidden={"0": frozenset({2})}, required={"0": 2})
    with pytest.raises(UnknownLabel):
        is_packing_k_colorable(k3, 3, ColorConstraints(required={"zz": 1}))


def test_solver_timeout_states():
    g = gen_triangle(2)
    res = is_packing_k_colorable(g, 7, budget=0.0)
    assert res.status == TIMEOUT
    sr = chi_rho(g, budget=0.0)
    assert sr.status in (BOUNDS, TIMEOUT)
    assert sr.lower <= sr.upper


def test_chi_rho_known_values_small():
    assert chi_rho(gen_sierpinski(1, 4)).upper == 4
    assert chi_rho(gen_triangle(0)).upper == 3
    assert chi_rho(gen_triangle(1)).upper == 4
    with pytest.raises(DisconnectedGraph):
        chi_rho(build_graph(["a", "b"], []))


def test_chi_rho_deterministic_witness():
    g = gen_triangle(1)
    a = chi_rho(g)
    b = chi_rho(g)
    assert a.witness == b.witness and a.nodes_explored == b.nodes_explored


def test_greedy_is_always_valid():
    for g in random_connected_graphs(15, seed=7, n_max=8):
        for order, seed in (("degree_desc", 0), ("degree_desc", 3), ("label", 0)):
            c = greedy_packing_coloring(g, order=order, seed=seed)
            assert verify_packing_coloring(g, c).ok
    g = gen_triangle(1)
    explicit = greedy_packing_coloring(g, order=sorted(g.labels))
    assert verify_packing_coloring(g, explicit).ok
    with pytest.raises(ValueError):
        greedy_packing_coloring(g, order=["0"])


def test_greedy_on_triangle_block_reaches_chi():
    c = greedy_packing_coloring(gen_triangle(2))
    assert verify_packing_coloring(gen_triangle(2), c).ok
    assert max_color(c) >= 8


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_restriction_of_valid_coloring_stays_valid(seed):
    # distances only grow in induced subgraphs
    rng = random.Random(seed)
    (g,) = random_connected_graphs(1, seed=seed, n_max=8)
    c = greedy_packing_coloring(g, seed=seed % 17)
    keep = {lab for lab in g.labels if rng.random() < 0.6}
    from sierpack.graph_core import induced_subgraph
    h = induced_subgraph(g, keep)
    restricted = {lab: col for lab, col in c.items() if lab in keep}
    rep = verify_packing_coloring(h, restricted)
    assert not rep.violations


def test_chi_lower_at_least_counting_bound():
    for g in random_connected_graphs(10, seed=12, n_max=7):
        res = chi_rho(g)
        assert res.lower >= counting_lower_bound(g) or res.status != EXACT


def test_coloring_text_roundtrip():
    c = {"00": 1, "01": 2, "10": 3}
    text = format_coloring_text(c)
    assert text.splitlines() == ["00 1", "01 2", "10 3"]
    assert parse_coloring_text("# note\n00 1\n\n01 2\n10 3\n") == c
    from sierpack.graph_core import DuplicateLabel, FormatError
    with pytest.raises(FormatError):
        parse_coloring_text("00 zero\n")
    with pytest.raises(FormatError):
        parse_coloring_text("00 0\n")
    # non-ASCII digits: '²' used to escape as a bare ValueError from int(),
    # and '٣' used to be read as color 3
    with pytest.raises(FormatError, match="line 2"):
        parse_coloring_text("01 1\n00 \u00b2\n")
    with pytest.raises(FormatError, match="line 1"):
        parse_coloring_text("00 \u0663\n")
    with pytest.raises(DuplicateLabel):
        parse_coloring_text("00 1\n00 2\n")
