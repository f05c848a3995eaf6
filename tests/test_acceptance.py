"""Headline acceptance suite: one test per reproduction criterion.

Each test runs a slice of the check table behind `sierpack reproduce`,
asserts every row passes (degraded rows count, informational rows are
exempt), and enforces the documented time budgets.  Environment knobs:
SIERPACK_C3_BUDGET extends the direct 48-vertex solve before the
degrade path kicks in; SIERPACK_SEARCH_BUDGET allows extra search
seeds if the deterministic replays ever miss the target bound.
"""

import os

from sierpack import reproduce


def _run(*prefixes, **settings):
    return reproduce.run_checks(reproduce.select(*prefixes),
                                reproduce.Settings(**settings))


def _show(rows):
    return "\n".join(
        f"{r.status:<9} {r.name:<28} {r.claim}  ({r.elapsed:.1f}s)"
        f"  [{r.detail}]" for r in rows)


def _assert_rows(rows, each=None, total=None):
    bad = [r for r in rows if r.status == "fail"]
    assert not bad, "failing checks:\n" + _show(rows)
    if each is not None:
        slow = [r for r in rows if r.elapsed > each]
        assert not slow, f"budget {each}s exceeded:\n" + _show(rows)
    if total is not None:
        spent = sum(r.elapsed for r in rows)
        assert spent <= total, f"total {spent:.1f}s over {total}s budget"


def test_exact_small_values():
    rows = _run("solver.")
    _assert_rows(rows, each=60.0)
    assert len(rows) == 16


def test_infeasible_subgraphs():
    rows = _run("unsat.")
    _assert_rows(rows, each=300.0)
    assert len(rows) == 5


def test_dim3_lower_bound():
    direct = float(os.environ.get("SIERPACK_C3_BUDGET", "90"))
    rows = _run("lower.dim3", c3_budget=direct)
    _assert_rows(rows)
    verdict = [r for r in rows if r.name == "lower.dim3"]
    assert verdict and verdict[0].status in ("pass", "degraded"), _show(rows)


def test_shipped_colorings_verify():
    rows = _run("verify.")
    _assert_rows(rows, each=120.0)
    assert len(rows) == 7


def test_lift_certificates():
    rows = _run("cert.", "tile.")
    _assert_rows(rows, total=600.0)
    assert len(rows) == 6


def test_bound_sequence_machinery():
    rows = _run("bounds.")
    _assert_rows(rows, each=600.0)
    assert len(rows) == 3


def test_block_search_tiers():
    extra = float(os.environ.get("SIERPACK_SEARCH_BUDGET", "0"))
    rows = _run("search.", search_budget=extra)
    hard = [r for r in rows if r.name == "search.certified"]
    assert hard and hard[0].status == "pass", _show(rows)
    # the target bound is best-effort; record it, fail only on unsoundness
    _assert_rows(rows)
    best = [r for r in rows if r.name == "search.best"]
    print("best certified bound:", best[0].detail)


def test_structural_identities():
    rows = _run("structure.")
    _assert_rows(rows, total=120.0)
    assert len(rows) == 4


def test_solver_matches_bruteforce():
    rows = _run("oracle.")
    _assert_rows(rows, total=600.0)
