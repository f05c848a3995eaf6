"""Search layer: penalty exactness, initializers, annealing outcomes."""

import random

import numpy as np
import pytest

from sierpack import search
from sierpack._data import load_coloring
from sierpack._deficit import _Context, _move, _weights
from sierpack._naive import naive_recolor_costs, naive_search_eval
from sierpack.certify import (
    CERTIFIED,
    certify_generalized_tiling,
    certify_triangle_tiling,
    tile_coloring,
)
from sierpack.packing import max_color, verify_packing_coloring
from sierpack.search import (
    SearchConfig,
    SearchMoves,
    _peel_initial,
    _triangle_independent_core,
    penalty,
    search_certified_coloring,
)
from sierpack.sierpinski import (
    DimensionOutOfRange,
    UnknownName,
    base_graph_library,
    gen_generalized,
    gen_triangle,
)


# ---------------------------------------------------------------- penalty

def test_penalty_zero_on_certified_blocks():
    c4 = base_graph_library("C4")
    assert penalty("generalized", 3, load_coloring("fig5_s3c4.coloring"), c4) == 0
    k13 = base_graph_library("K13")
    assert penalty("generalized", 2, load_coloring("fig7_s2k13.coloring"), k13) == 0


def test_penalty_positive_on_refuted_blocks():
    assert penalty("triangle", 2, load_coloring("fig14_st2.coloring")) > 0
    assert penalty("triangle", 1, load_coloring("fig13_st1.coloring")) > 0


def test_penalty_zero_matches_certifier_verdict():
    block = load_coloring("fig7_s2k13.coloring")
    k13 = base_graph_library("K13")
    assert penalty("generalized", 2, block, k13) == 0
    assert certify_generalized_tiling(k13, 2, block).status == CERTIFIED


def test_penalty_counts_corner_mismatch():
    g = gen_triangle(1)
    block = {lab: i + 1 for i, lab in enumerate(g.labels)}
    # corners all differ: three unequal pairs add three deficit units
    base = penalty("triangle", 1, block)
    aligned = dict(block)
    for corner in ("00", "11", "22"):
        aligned[corner] = 1
    assert base >= penalty("triangle", 1, aligned) + 2


def test_penalty_requires_total_coloring():
    block = load_coloring("fig14_st2.coloring")
    partial = dict(block)
    partial.popitem()
    with pytest.raises(ValueError):
        penalty("triangle", 2, partial)


def test_penalty_rejects_nonpositive_colors():
    block = dict(load_coloring("fig13_st1.coloring"))
    block["01"] = 0
    with pytest.raises(ValueError):
        penalty("triangle", 1, block)


def test_penalty_guards():
    with pytest.raises(DimensionOutOfRange):
        penalty("triangle", 0, {})
    with pytest.raises(UnknownName):
        penalty("hexagon", 2, {})
    with pytest.raises(UnknownName):
        penalty("generalized", 2, {})  # no base graph given


def test_penalty_matches_vectorized_total_and_deltas():
    ctx = _Context("triangle", 2, None)
    rng = random.Random(7)
    for trial in range(25):
        colors = {lab: rng.randint(1, 6) for lab in ctx.labels}
        for corner in ("000", "111", "222"):
            colors[corner] = 1
        if trial == 0:  # beyond the int16 arithmetic of `column`
            colors[ctx.labels[4]] = 40_000
        arr = np.array([colors[lab] for lab in ctx.labels], dtype=np.int64)
        total, heat = ctx.full_eval(arr)
        naive_total, naive_heat = naive_search_eval(ctx, arr)
        assert total == naive_total and heat.tolist() == naive_heat.tolist()
        assert penalty("triangle", 2, colors) == total
        if trial == 0:
            continue
        own = ctx.own_table(arr, 7)
        costs = own + ctx.singles(7)
        v = rng.randrange(ctx.n)
        new = rng.randint(1, 6)
        moved = arr.copy()
        moved[v] = new
        after, _ = ctx.full_eval(moved)
        assert after - total == int(costs[v, new] - costs[v, arr[v]])


# ------------------------------------------------- the own-color table

TABLE_CASES = ([("triangle", m, None) for m in (1, 2, 3)]
               + [("generalized", 2, base_graph_library(name))
                  for name in ("K4E", "C4", "K13", "PAW")])


def _check_table(ctx, colors, own, max_color):
    width = max_color + 1
    singles = ctx.singles(width)
    for v in range(ctx.n):
        assert (own[v] + singles[v]).tolist() == naive_recolor_costs(
            ctx, v, colors, max_color).tolist()
    assert np.array_equal(own, ctx.own_table(colors, width))
    total, heat = naive_search_eval(ctx, colors)
    for got, got_heat in (ctx.full_eval(colors), ctx.full_eval(colors, own)):
        assert got == total
        assert got_heat.tolist() == heat.tolist()
    return total


@pytest.mark.parametrize("family, m, base", TABLE_CASES,
                         ids=["ST1", "ST2", "ST3", "S2K4E", "S2C4", "S2K13", "S2PAW"])
def test_own_table_follows_moves_against_the_oracle(family, m, base):
    ctx = _Context(family, m, base)
    max_color = min(ctx.n, 7)
    width = max_color + 1
    weights = _weights(width)
    rng = random.Random(f"{family}-{m}-{base and base.name}")
    # a third of the block starts in the color-0 pool, as inside the
    # recreate routine, and a few colors start empty
    used = rng.sample(range(1, width), max(1, max_color - 2))
    colors = np.array([0 if rng.random() < 0.33 else rng.choice(used)
                       for _ in range(ctx.n)], dtype=np.int64)
    own = ctx.own_table(colors, width)
    total = _check_table(ctx, colors, own, max_color)
    for _ in range(40):
        if rng.random() < 0.6:
            v = rng.randrange(ctx.n)
            old, new = int(colors[v]), rng.randint(1, max_color)
            if new == old:
                continue
            costs = own[v] + ctx.singles(width)[v]
            delta = int(costs[new] - costs[old])
            _move(ctx, own, v, old, new)
            colors[v] = new
        else:
            a, b = rng.sample(range(1, width), 2)
            class_a = np.flatnonzero(colors == a).tolist()
            class_b = np.flatnonzero(colors == b).tolist()
            delta = ctx.swap_delta(weights, class_a, a, class_b, b)
            colors[class_a] = b
            colors[class_b] = a
            own[:, a] = ctx.column(class_b, a)
            own[:, b] = ctx.column(class_a, b)
        after = _check_table(ctx, colors, own, max_color)
        assert after - total == delta
        total = after


def test_resync_catches_a_drifting_table(monkeypatch):
    def skip_the_old_column(ctx, own, v, old, new):
        own[:, new] += ctx.pull(v, new)

    monkeypatch.setattr(search, "_move", skip_the_old_column)
    cfg = SearchConfig(family="triangle", m=3, max_color=10, seed=4,
                       iterations=300)
    with pytest.raises(AssertionError, match="own-color table drifted"):
        search_certified_coloring(cfg)


# ----------------------------------------------------- initial structures

def test_independent_core_sizes_follow_recursion():
    sizes = [len(_triangle_independent_core(m)) for m in range(1, 6)]
    assert sizes == [3, 6, 15, 42, 123]


def test_independent_core_is_independent_and_keeps_corners():
    for m in (2, 3, 4):
        ctx = _Context("triangle", m, None)
        core = _triangle_independent_core(m)
        idx = [i for i, lab in enumerate(ctx.labels) if lab in core]
        sub = ctx.pair_d[np.ix_(idx, idx)]
        off = sub[~np.eye(len(idx), dtype=bool)]
        assert off.min() >= 2
        assert {"0" * (m + 1), "1" * (m + 1), "2" * (m + 1)} <= core


def test_independent_core_matches_brute_force_maximum():
    for m in (1, 2):
        g = gen_triangle(m)
        ctx = _Context("triangle", m, None)
        adj = ctx.pair_d == 1
        n = g.n
        best = 0
        for mask in range(1 << n):
            members = [v for v in range(n) if mask >> v & 1]
            if all(not adj[a, b] for i, a in enumerate(members)
                   for b in members[i + 1:]):
                best = max(best, len(members))
        assert best == len(_triangle_independent_core(m))


def test_peel_initial_is_total_and_capped():
    ctx = _Context("triangle", 3, None)
    colors = _peel_initial(ctx, 7, random.Random(0))
    assert colors.min() >= 1
    assert colors.max() <= 7


# ------------------------------------------------------------- searching

def test_search_rediscovers_three_color_star_block():
    k13 = base_graph_library("K13")
    cfg = SearchConfig(family="generalized", m=2, max_color=3, base=k13,
                       seed=0, iterations=20_000)
    out = search_certified_coloring(cfg)
    assert out.certified_bound == 3
    assert out.penalty == 0
    report = certify_generalized_tiling(k13, 2, out.best)
    assert report.status == CERTIFIED


def test_search_outcome_tiles_and_verifies():
    k13 = base_graph_library("K13")
    cfg = SearchConfig(family="generalized", m=2, max_color=3, base=k13,
                       seed=1, iterations=20_000)
    out = search_certified_coloring(cfg)
    for n in (3, 4):
        tiled = tile_coloring("generalized", 2, out.best, n, base=k13)
        from sierpack.sierpinski import gen_generalized
        g = gen_generalized(n, k13)
        report = verify_packing_coloring(g, tiled)
        assert report.ok
        assert max_color(tiled) == out.certified_bound


def test_search_with_one_color_reports_positive_penalty():
    k13 = base_graph_library("K13")
    cfg = SearchConfig(family="generalized", m=1, max_color=1, base=k13,
                       seed=0, iterations=2_000)
    out = search_certified_coloring(cfg)
    assert out.certified_bound is None
    assert out.penalty > 0


def test_search_is_deterministic_given_seed():
    k13 = base_graph_library("K13")
    cfg = SearchConfig(family="generalized", m=2, max_color=2, base=k13,
                       seed=3, iterations=4_000)
    a = search_certified_coloring(cfg)
    b = search_certified_coloring(cfg)
    assert a.best == b.best
    assert a.penalty == b.penalty
    assert a.history == b.history
    assert a.seed == b.seed


def test_search_restart_aggregation_orders_by_bound_penalty_seed():
    k13 = base_graph_library("K13")
    cfg = SearchConfig(family="generalized", m=2, max_color=3, base=k13,
                       seed=0, iterations=20_000, restarts=3)
    out = search_certified_coloring(cfg)
    assert out.certified_bound == 3
    assert out.seed in (0, 1, 2)
    single = search_certified_coloring(
        SearchConfig(family="generalized", m=2, max_color=3, base=k13,
                     seed=out.seed, iterations=20_000))
    assert single.best == out.best


def test_search_parallel_restarts_match_sequential():
    k13 = base_graph_library("K13")
    cfg = SearchConfig(family="generalized", m=2, max_color=3, base=k13,
                       seed=0, iterations=10_000, restarts=2)
    seq = search_certified_coloring(cfg, threads=1)
    par = search_certified_coloring(cfg, threads=2)
    assert seq.best == par.best
    assert seq.penalty == par.penalty


def test_search_moves_survive_the_process_pool():
    k13 = base_graph_library("K13")
    cfg = SearchConfig(family="generalized", m=2, max_color=2, base=k13,
                       seed=0, iterations=1_000, restarts=2)
    seq = search_certified_coloring(cfg, threads=1)
    par = search_certified_coloring(cfg, threads=2)
    assert par.moves == seq.moves
    # every iteration proposes one move; a resync every 256 of them
    assert seq.moves.recolors + seq.moves.swaps == 1_000
    assert seq.moves.resyncs == 3
    assert seq.moves.noops > 0


def test_search_rejects_more_colors_than_block_vertices():
    with pytest.raises(ValueError, match="max_color 16 exceeds the block's 15"):
        search_certified_coloring(
            SearchConfig(family="triangle", m=2, max_color=16, iterations=10))
    out = search_certified_coloring(
        SearchConfig(family="triangle", m=2, max_color=15, iterations=10))
    assert max(out.best.values()) <= 15


def test_search_history_penalties_never_increase():
    k13 = base_graph_library("K13")
    cfg = SearchConfig(family="generalized", m=2, max_color=2, base=k13,
                       seed=0, iterations=4_000)
    out = search_certified_coloring(cfg)
    pens = [p for _, p in out.history]
    assert pens == sorted(pens, reverse=True)
    assert out.history[0][0] == 0


def test_search_triangle_block_certifies_and_lifts():
    cfg = SearchConfig(family="triangle", m=5, max_color=33,
                       seed=5, iterations=60_000)
    out = search_certified_coloring(cfg)
    assert out.certified_bound is not None
    assert out.penalty == 0
    report = certify_triangle_tiling(5, out.best)
    assert report.status == CERTIFIED
    tiled = tile_coloring("triangle", 5, out.best, 6)
    g6 = gen_triangle(6)
    assert verify_packing_coloring(g6, tiled).ok


@pytest.mark.parametrize("cfg, history, pen, bound, moves", [
    (SearchConfig(family="generalized", m=2, max_color=3,
                  base=base_graph_library("K13"), seed=0, iterations=20_000),
     ((0, 0),), 0, 3, SearchMoves(0, 0, 0, 0, 0, 0, 0)),
    (SearchConfig(family="triangle", m=3, max_color=10, seed=4,
                  iterations=17_000),
     ((0, 19), (4, 18), (20, 17), (1498, 16), (3223, 15), (15992, 14),
      (16041, 13)), 13, None,
     SearchMoves(recolors=15_337, swaps=1_663, noops=12_905,
                 recolors_accepted=1_347, swaps_accepted=150, resyncs=66,
                 regrows=1)),
    (SearchConfig(family="generalized", m=3, max_color=8,
                  base=base_graph_library("K4E"), seed=7, iterations=14_000),
     ((0, 10), (17, 9), (139, 8), (13090, 7), (13324, 6)), 6, None,
     SearchMoves(recolors=12_646, swaps=1_354, noops=10_727,
                 recolors_accepted=1_167, swaps_accepted=77, resyncs=54,
                 regrows=1)),
], ids=["K13-m2-c3", "ST3-c10", "S3K4E-c8"])
def test_search_trajectory_is_pinned(cfg, history, pen, bound, moves):
    # exact trajectories: K13 certifies straight from the initial peel; the
    # other two runs regrow at moves 15,992 and 13,054 and improve after it,
    # so any change to the moves, the peel or the regrow shows up here
    out = search_certified_coloring(cfg)
    assert (out.history, out.penalty, out.certified_bound) == (history, pen, bound)
    assert out.moves == moves


def test_search_rejects_bad_dimension():
    with pytest.raises(DimensionOutOfRange):
        search_certified_coloring(
            SearchConfig(family="triangle", m=0, max_color=3))
