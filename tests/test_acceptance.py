"""Headline acceptance suite: one test per reproduction criterion.

Each test runs a slice of the check table behind `sierpack reproduce`,
asserts every row passes (informational rows are exempt), and enforces
the documented time budgets.  The exhaustive 48-vertex solve must prove
UNSAT within the node cap of its solver call.
"""

from sierpack import reproduce


def _run(*prefixes):
    return reproduce.run_checks(reproduce.select(*prefixes))


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
    rows = _run("lower.dim3")
    _assert_rows(rows)
    verdict = [r for r in rows if r.name == "lower.dim3"]
    assert verdict and verdict[0].status == "pass", _show(rows)


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
    rows = _run("search.")
    _assert_rows(rows)
    passed = [r.name for r in rows if r.status == "pass"]
    assert passed == ["search.certified", "search.target"], _show(rows)
    best = [r for r in rows if r.name == "search.best"]
    print("best certified bound:", best[0].detail)


def test_structural_identities():
    rows = _run("structure.")
    _assert_rows(rows, total=120.0)
    assert len(rows) == 4


def test_solver_matches_bruteforce():
    rows = _run("oracle.")
    _assert_rows(rows, total=600.0)
