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
    naive_all_pairs_distances,
    naive_chi_rho,
    naive_is_k_colorable,
    naive_verify_packing_coloring,
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
    _Metric,
    chi_rho,
    format_coloring_text,
    greedy_packing_coloring,
    is_packing_k_colorable,
    max_color,
    max_i_packing_size,
    parse_coloring_text,
    verify_packing_coloring,
)
from sierpack.reproduce import _dim3_union, _family_graph
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


def test_counting_bound_examples():
    assert _Metric(gen_sierpinski(1, 4)).counting_bound() == 4
    assert _Metric(gen_triangle(1)).counting_bound() == 4
    assert _Metric(build_graph(["a", "b"], [("a", "b")])).counting_bound() == 2


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


def sparse_labelled_graph(rng, n):
    p = rng.uniform(0, 3 / n)
    labels = [f"v{i}" for i in range(n)]
    return build_graph(labels, [(labels[i], labels[j]) for i in range(n)
                                for j in range(i + 1, n) if rng.random() < p])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_verify_matches_label_level_oracle(seed):
    # up to 600 vertices and 1..3 colors: classes of more than 64 members and
    # of more than one batch; disconnected graphs, isolated vertices, the
    # edgeless graph and n = 1 all occur, and some vertices stay uncolored
    rng = random.Random(seed)
    g = sparse_labelled_graph(rng, rng.choice([1, 2, 5, 40, 150, 600]))
    top = rng.randint(1, 3)
    coloring = {lab: rng.randint(1, top) for lab in g.labels if rng.random() < 0.9}
    assert verify_packing_coloring(g, coloring) == naive_verify_packing_coloring(g, coloring)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_verify_matches_label_level_oracle_with_one_member_classes(seed):
    # colors from 1..n: most classes have one member, which verify skips,
    # next to a few pairs that share a color; some vertices stay uncolored
    rng = random.Random(seed)
    g = sparse_labelled_graph(rng, rng.choice([1, 2, 5, 40, 150]))
    coloring = {lab: rng.randint(1, g.n) for lab in g.labels if rng.random() < 0.9}
    assert verify_packing_coloring(g, coloring) == naive_verify_packing_coloring(g, coloring)


def test_verify_matches_label_level_oracle_on_trap_cases():
    # a degree-0 last vertex after a degree-2 one; a class of isolated
    # vertices; the edgeless graph; n = 1
    graphs = [build_graph("abcd", [("a", "c"), ("b", "c")]),
              build_graph("abcde", [("a", "b"), ("b", "c")]),
              build_graph("abc", []), build_graph("a", [])]
    for g in graphs:
        for colors in itertools.product((1, 2), repeat=g.n):
            coloring = dict(zip(g.labels, colors))
            assert (verify_packing_coloring(g, coloring)
                    == naive_verify_packing_coloring(g, coloring)), (g.edges(), coloring)


def first_fit(g, seq, d=None):
    """Greedy by definition: each vertex in turn takes the smallest color c
    with no vertex of color c within distance c.  `d` is the distance table,
    Floyd-Warshall's by default."""
    d = _fw_distances(g) if d is None else d
    colors = {}
    for lab in seq:
        i, c = g.index(lab), 1
        while any(col == c and d[i][g.index(u)] <= c for u, col in colors.items()):
            c += 1
        colors[lab] = c
    return colors


def test_greedy_is_first_fit_in_its_order():
    rng = random.Random(11)
    graphs = ([sparse_labelled_graph(rng, n) for n in (1, 3, 8, 20, 40, 70)]
              + random_connected_graphs(10, seed=11, n_max=9) + [gen_triangle(2)])
    for g in graphs:
        for order, seed in ((None, 0), (None, 3), (sorted(g.labels), 0)):
            c = greedy_packing_coloring(g, order=order, seed=seed)
            assert list(c.items()) == list(first_fit(g, list(c)).items())
        seq = rng.sample(g.labels, g.n)
        assert list(greedy_packing_coloring(g, order=seq).items()) == list(
            first_fit(g, seq).items())


@pytest.mark.parametrize("g", [gen_triangle(5), sparse_labelled_graph(random.Random(600), 600)],
                         ids=["ST5", "sparse-600"])
def test_greedy_is_first_fit_beyond_one_batch(g):
    # more sources than one sweep takes; on the disconnected graph an
    # unreachable vertex must never block a color
    d = naive_all_pairs_distances(g).matrix.tolist()
    c = greedy_packing_coloring(g)
    assert list(c.items()) == list(first_fit(g, list(c), d).items())


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


def test_constrained_decisions_match_oracle():
    # random forbidden/required sets: a required vertex has a one-color
    # domain, or an empty one when its color exceeds k
    rng = random.Random(1618)
    for g in random_connected_graphs(40, seed=1618, n_max=8):
        required = {lab: rng.randint(1, g.n + 1)
                    for lab in rng.sample(g.labels, rng.randint(0, 2))}
        forbidden = {}
        for lab in rng.sample(g.labels, rng.randint(0, min(3, g.n))):
            cols = frozenset(rng.sample(range(1, g.n + 1), rng.randint(1, 2)))
            forbidden[lab] = cols - {required.get(lab)}
        cons = ColorConstraints(forbidden=forbidden, required=required)
        for k in range(1, g.n + 1):
            want = SAT if naive_is_k_colorable(g, k, forbidden, required) else UNSAT
            res = is_packing_k_colorable(g, k, cons)
            assert res.status == want, (g.edges(), k, forbidden, required)
            if res.status == SAT:
                w = res.witness
                assert verify_packing_coloring(g, w).ok and max_color(w) <= k
                assert all(w[lab] == col for lab, col in required.items())
                assert all(w[lab] not in cols for lab, cols in forbidden.items())


@pytest.mark.parametrize("run, status, nodes", [
    (lambda: chi_rho(gen_triangle(2)), EXACT, 31_598),
    (lambda: chi_rho(gen_generalized(2, base_graph_library("K4E"))), EXACT, 399),
    (lambda: is_packing_k_colorable(gen_triangle(2), 7), UNSAT, 29_572),
    (lambda: is_packing_k_colorable(load_graph("h.graph"), 4), UNSAT, 96),
    (lambda: is_packing_k_colorable(_family_graph("side3"), 6), UNSAT, 3_637),
    (lambda: is_packing_k_colorable(_dim3_union(), 7), UNSAT, 76_451),
], ids=["chi-ST2", "chi-S2K4E", "decide-ST2-k7", "decide-H-k4", "decide-side3-k6",
        "decide-union48-k7"])
def test_search_tree_is_pinned(run, status, nodes):
    # exact node counts: any change to the branching rule, the balls or the
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
        for order, seed in ((None, 0), (None, 3), (sorted(g.labels), 0)):
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
        assert res.lower >= _Metric(g).counting_bound() or res.status != EXACT


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
