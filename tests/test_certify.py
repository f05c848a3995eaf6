"""Tests for lift certificates and the lower-bound sequence machinery."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sierpack._data import MissingData, load_coloring, load_graph, load_map
from sierpack._naive import boundary_profile, naive_lift_margins
from sierpack.certify import (
    CERTIFIED,
    NO_BOUND,
    REFUTED,
    BaseTooSmall,
    BoundSequence,
    CornerColorMismatch,
    InvalidBlockColoring,
    _margins,
    build_k4e_eleven_coloring,
    certify_generalized_tiling,
    certify_triangle_tiling,
    condition_table,
    lower_bound_closed_form,
    lower_bound_sequence,
    monotonicity_check,
    tile_coloring,
)
from sierpack.graph_core import (
    all_pairs_distances,
    bfs_distances,
    verify_subgraph_embedding,
)
from sierpack.packing import greedy_packing_coloring, max_color, verify_packing_coloring
from sierpack.sierpinski import (
    BaseGraph,
    UnknownName,
    base_graph_library,
    extreme_vertices,
    gen_generalized,
    gen_sierpinski,
    gen_triangle,
    triangle_canonical,
)

C4 = base_graph_library("C4")
K13 = base_graph_library("K13")
K4E = base_graph_library("K4E")


# ------------------------------------------------------------------ profiles


def test_boundary_profile_matches_bfs():
    g = gen_generalized(2, C4)
    dm = all_pairs_distances(g)
    prof = boundary_profile(dm, extreme_vertices("generalized", 2, C4))
    for lab in g.labels:
        for e, got in zip(prof.extremes, prof.to_extreme[lab]):
            assert got == bfs_distances(g, e)[lab]
    assert prof.d_min > 0
    assert prof.d_min == min(prof.between.values())


def test_triangle_profile_corner_distances():
    # corners of the dimension-m triangle block are pairwise 2^m apart
    for m in (1, 2, 3):
        dm = all_pairs_distances(gen_triangle(m))
        prof = boundary_profile(dm, extreme_vertices("triangle", m))
        assert set(prof.between.values()) == {2 ** m}


# ------------------------------------------------------------------- tiling


def test_tiled_c4_block_verifies_one_dimension_up():
    block = load_coloring("fig5_s3c4.coloring")
    tiled = tile_coloring("generalized", 3, block, 4, base=C4)
    g = gen_generalized(4, C4)
    assert verify_packing_coloring(g, tiled).ok
    assert max_color(tiled) == 5


def test_tiled_k13_block_verifies_two_dimensions_up():
    block = load_coloring("fig7_s2k13.coloring")
    tiled = tile_coloring("generalized", 2, block, 4, base=K13)
    g = gen_generalized(4, K13)
    assert verify_packing_coloring(g, tiled).ok
    assert max_color(tiled) == 3


def test_tile_restricts_to_block_on_every_copy():
    block = load_coloring("fig7_s2k13.coloring")
    tiled = tile_coloring("generalized", 2, block, 3, base=K13)
    for prefix in "0123":
        for word, color in block.items():
            assert tiled[prefix + word] == color


def test_triangle_tile_unequal_corners_rejected():
    block = {"00": 1, "01": 2, "02": 3, "11": 1, "12": 4, "22": 2}
    with pytest.raises(CornerColorMismatch):
        tile_coloring("triangle", 1, block, 2)


def test_triangle_tile_colors_identified_corners_once():
    block = load_coloring("fig13_st1.coloring")
    tiled = tile_coloring("triangle", 1, block, 2)
    g = gen_triangle(2)
    assert set(tiled) == set(g.labels)
    # junction 011 is corner 11 of block 0 and corner 00 of block 1; both
    # block corners carry color 1, so the identified vertex gets it too
    assert tiled["011"] == 1


def test_tile_rejects_partial_and_invalid_blocks():
    block = load_coloring("fig7_s2k13.coloring")
    partial = dict(block)
    del partial["00"]
    with pytest.raises(InvalidBlockColoring):
        tile_coloring("generalized", 2, partial, 3, base=K13)
    clashing = dict(block)
    clashing["00"] = 3  # second 3 within the block, too close to 11
    with pytest.raises(InvalidBlockColoring):
        tile_coloring("generalized", 2, clashing, 3, base=K13)


def test_tile_usage_errors():
    block = load_coloring("fig13_st1.coloring")
    with pytest.raises(ValueError):
        tile_coloring("triangle", 1, block, 0)
    with pytest.raises(UnknownName):
        tile_coloring("ring", 1, block, 2)
    with pytest.raises(UnknownName):
        tile_coloring("generalized", 1, block, 2)  # base graph missing


# ------------------------------------------------------------- certificates


def test_refined_certificate_c4_block():
    report = certify_generalized_tiling(C4, 3, load_coloring("fig5_s3c4.coloring"))
    assert report.status == CERTIFIED
    assert report.max_dimension == 5
    assert all(report.margin(c) >= 1 for c in report.margins)


def test_refined_certificate_k13_block():
    report = certify_generalized_tiling(K13, 2, load_coloring("fig7_s2k13.coloring"))
    assert report.status == CERTIFIED
    # color 3 is tight: nearest 3 sits one step from each hub extreme
    assert report.margin(3) == 1


def test_certificate_without_backstop_keeps_structural_result():
    report = certify_generalized_tiling(
        C4, 3, load_coloring("fig5_s3c4.coloring"), empirical_depth=0)
    assert report.status == CERTIFIED
    assert report.max_dimension == 3


def test_triangle_block_with_center_eight_is_refuted():
    block = load_coloring("fig14_st2.coloring")
    report = certify_triangle_tiling(2, block)
    assert report.status == REFUTED
    # the center cannot support 8: both corner distances are 2, 2+2 < 9
    assert report.margins[8]["single"] < 1
    # the reported violation really happens on the tiled graph
    n = report.refuted_dimension
    color, u, v, dist = report.violation
    tiled = tile_coloring("triangle", 2, block, n)
    assert tiled[u] == tiled[v] == color
    assert bfs_distances(gen_triangle(n), u)[v] == dist <= color


def test_small_triangle_block_is_refuted_when_tiled():
    report = certify_triangle_tiling(1, load_coloring("fig13_st1.coloring"))
    assert report.status == REFUTED
    assert report.refuted_dimension == 2
    assert report.max_dimension == 1


def test_triangle_corner_mismatch_raised_before_validity():
    block = {"00": 1, "01": 2, "02": 4, "11": 1, "12": 3, "22": 2}
    with pytest.raises(CornerColorMismatch):
        certify_triangle_tiling(1, block)


def test_certificate_report_text_shape():
    report = certify_generalized_tiling(K13, 2, load_coloring("fig7_s2k13.coloring"))
    lines = report.text_report().splitlines()
    assert lines[0].startswith("status CERTIFIED")
    assert lines[1:] == [f"color {c} margin {report.margin(c)}"
                        for c in sorted(report.margins)]


LIBRARY_BASES = ("K3", "K4", "K5", "C4", "P4", "K13", "K4E", "PAW")
CLEAN = {"within": 0, "pair": 0, "single": 0}


def _unsound_pairs(table, big, dist, canon):
    """Pairs of the tiled dimension-n graph whose true distance falls below
    the table's bound: `pair_d` within a block (corners skipped: they sit
    under either block's prefix), `pair_b` across blocks for distinct
    positions, `single_b` across blocks for two copies of one position."""
    where = {lab: i for i, lab in enumerate(table.labels)}
    cut = len(big.labels[0]) - len(table.labels[0])
    pos = np.array([where[canon(lab[cut:])] for lab in big.labels])
    blk = np.unique([lab[:cut] for lab in big.labels], return_inverse=True)[1]
    bad = {"within": 0, "pair": 0, "single": 0}
    for r in range(0, big.n, 512):  # row slices keep every array small
        rows = slice(r, r + 512)
        d, p, b = dist[rows].astype(np.int32), pos[rows, None], blk[rows, None]
        same_blk, same_pos = b == blk[None, :], p == pos[None, :]
        unpinned = ~table.pinned[p] & ~table.pinned[pos][None, :]
        within = same_blk & unpinned & ~same_pos
        bad["within"] += int((table.pair_d[p, pos[None, :]] > d)[within].sum())
        bound = table.pair_b[p, pos[None, :]]
        pair = ~same_blk & ~same_pos & (bound < NO_BOUND)
        bad["pair"] += int((bound > d)[pair].sum())
        single = ~same_blk & same_pos
        bad["single"] += int((table.single_b[p] > d)[single].sum())
    return bad


def test_condition_table_is_sound_against_true_distances():
    # every bound the certificate rests on, against the true distances of
    # the tilings one and two dimensions up: all eight library bases at
    # m = 1..3, P4 and K4E at m = 4 one dimension up (on P4 that already
    # reaches block pairs with no base edge between them), the triangle
    # family at m = 1..4
    for name in LIBRARY_BASES:
        base = base_graph_library(name)
        deepest = 4 if name in ("P4", "K4E") else 3
        for n in (2, 3, 4, 5):
            big = gen_generalized(n, base)
            dist = all_pairs_distances(big).matrix
            # one distance table per tiling serves its blocks of m = n-2, n-1
            for m in range(max(1, n - 2), min(n - 1, deepest) + 1):
                table = condition_table("generalized", m, base)
                assert _unsound_pairs(table, big, dist, str) == CLEAN, (name, m, n)
    for m in (1, 2, 3, 4):
        table = condition_table("triangle", m)
        for n in (m + 1, m + 2):
            big = gen_triangle(n)
            dist = all_pairs_distances(big).matrix
            assert _unsound_pairs(table, big, dist, triangle_canonical) == CLEAN, (m, n)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_condition_table_is_sound_on_random_bases(seed):
    # random connected bases of order 3..5: a spanning tree plus random chords
    rng = random.Random(seed)
    k = rng.randint(3, 5)
    edges = {(rng.randrange(v), v) for v in range(1, k)}
    edges |= {(x, y) for x in range(k) for y in range(x + 1, k) if rng.random() < 0.4}
    base = BaseGraph("random", k, tuple(sorted(edges)))
    for m, n in ((1, 2), (1, 3), (2, 3), (2, 4)):
        big = gen_generalized(n, base)
        dist = all_pairs_distances(big).matrix
        table = condition_table("generalized", m, base)
        assert _unsound_pairs(table, big, dist, str) == CLEAN, (edges, m, n)


def _triangle_block(m, rng):
    # corners first, so that all three take color 1
    g = gen_triangle(m)
    corners = extreme_vertices("triangle", m)
    rest = [lab for lab in g.labels if lab not in corners]
    rng.shuffle(rest)
    return greedy_packing_coloring(g, order=corners + rest)


def test_table_margins_match_pairwise_oracle():
    # greedy blocks through the certifiers, and random colorings, which need
    # not be packing colorings, straight against the table: their many small
    # classes reach pairs whose bound only a non-edge hop gives (on P4)
    rng = random.Random(5)
    for name in ("C4", "K13", "K4E", "P4", "PAW", "K4"):
        base = base_graph_library(name)
        for m in (2, 3):
            block = greedy_packing_coloring(gen_generalized(m, base),
                                            seed=rng.randrange(10 ** 6))
            report = certify_generalized_tiling(base, m, block, empirical_depth=0)
            assert report.margins == naive_lift_margins(
                "generalized", m, block, base), (name, m)
            table = condition_table("generalized", m, base)
            for _ in range(3):
                coloring = {lab: rng.randint(1, 4 ** m // 2)
                            for lab in table.labels}
                assert _margins(table, coloring) == naive_lift_margins(
                    "generalized", m, coloring, base), (name, m)
    for m in (1, 2, 3, 4):
        for _ in range(2):
            block = _triangle_block(m, rng)
            report = certify_triangle_tiling(m, block, empirical_depth=0)
            assert report.margins == naive_lift_margins("triangle", m, block), m
        table = condition_table("triangle", m)
        coloring = {lab: rng.randint(1, len(table.labels) // 2)
                    for lab in table.labels}
        assert _margins(table, coloring) == naive_lift_margins("triangle", m, coloring)


def test_eleven_coloring_verifies_with_max_eleven():
    coloring = build_k4e_eleven_coloring()
    g = gen_generalized(5, K4E)
    assert set(coloring) == set(g.labels)
    assert verify_packing_coloring(g, coloring).ok
    assert max_color(coloring) == 11


# ------------------------------------------------------------- shipped data


def test_shipped_colorings_all_verify():
    cases = [
        ("fig5_s3c4.coloring", gen_generalized(3, C4), 5),
        ("fig7_s2k13.coloring", gen_generalized(2, K13), 3),
        ("fig10_s2k4e.coloring", gen_generalized(2, K4E), 6),
        ("fig11_s3k4e.coloring", gen_generalized(3, K4E), 8),
        ("fig13_st1.coloring", gen_triangle(1), 4),
        ("fig14_st2.coloring", gen_triangle(2), 8),
    ]
    for name, graph, top in cases:
        coloring = load_coloring(name)
        report = verify_packing_coloring(graph, coloring)
        assert report.ok, (name, report.violations[:3])
        assert max_color(coloring) == top, name


def test_shipped_partial_tile_has_six_open_positions():
    tile = load_coloring("fig12_s4k4e.coloring")
    g = gen_generalized(4, K4E)
    report = verify_packing_coloring(g, tile)
    assert not report.violations
    assert report.uncolored == ["1111", "1131", "1313", "3111", "3131", "3311"]


def test_missing_data_file_raises():
    with pytest.raises(MissingData):
        load_coloring("no_such_file.coloring")
    assert load_graph("h.graph").n == 22
    assert len(load_map("hprime_into_s2c4.map").pairs) == 8


def test_shipped_embedding_maps_verify():
    cases = [
        ("h_into_s3c4.map", load_graph("h.graph"), gen_generalized(3, C4)),
        ("h_into_s3p4.map", load_graph("h.graph"),
         gen_generalized(3, base_graph_library("P4"))),
        ("hprime_into_s2c4.map", load_graph("hprime.graph"), gen_generalized(2, C4)),
        ("s23_into_s2k4e.map", gen_sierpinski(2, 3), gen_generalized(2, K4E)),
    ]
    for name, h, host in cases:
        check = verify_subgraph_embedding(h, host, load_map(name))
        assert check.ok, (name, check.failed_edge, check.failed_image)


# ------------------------------------------------------------- bound series


def test_sequence_starts_at_k():
    for k in range(4, 11):
        assert lower_bound_sequence(k, 1).values == (k,)


def test_known_terms_base_four_and_five():
    assert lower_bound_sequence(4, 4).values == (4, 10, 22, 46)
    assert lower_bound_sequence(5, 2).term(2) == 17


def test_closed_form_examples():
    assert lower_bound_closed_form(4, 1) == 4
    assert lower_bound_closed_form(4, 3) == 22
    assert lower_bound_closed_form(5, 2) == lower_bound_sequence(5, 2).term(2)


def test_closed_form_matches_recurrence_everywhere():
    for k in range(4, 11):
        seq = lower_bound_sequence(k, 30)
        for n in range(1, 31):
            assert lower_bound_closed_form(k, n) == seq.term(n), (k, n)


def test_base_four_terms_follow_doubling_pattern():
    # independent cross-check: for k=4 the closed form collapses to 3*2^n - 2
    seq = lower_bound_sequence(4, 20)
    for n in range(1, 21):
        assert seq.term(n) == 3 * 2 ** n - 2


def test_monotonicity_holds_for_all_supported_bases():
    for k in range(4, 11):
        assert monotonicity_check(k, 20)
    assert monotonicity_check(5, 1)  # vacuous


def test_small_bases_rejected():
    for fn in (lambda: lower_bound_sequence(3, 5),
               lambda: lower_bound_closed_form(2, 5),
               lambda: monotonicity_check(3, 5)):
        with pytest.raises(BaseTooSmall):
            fn()


@given(st.integers(min_value=4, max_value=10), st.integers(min_value=2, max_value=40))
@settings(max_examples=60, deadline=None)
def test_recurrence_step_identity(k, n):
    seq = lower_bound_sequence(k, n)
    a_prev, a_next = seq.term(n - 1), seq.term(n)
    assert a_next == k * a_prev - 2 ** n * (k - 1) + 2 * (k - 1)


def test_sequence_type_round_trip():
    seq = lower_bound_sequence(6, 5)
    assert isinstance(seq, BoundSequence)
    assert seq.k == 6
    assert len(seq.values) == 5
    assert seq.term(1) == seq.values[0]
