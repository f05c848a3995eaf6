"""The reproduction suite: the paper's finite facts as one table of checks.

`TABLE` lists every headline check in report order, one `Check` per row of
the results table.  A check may name earlier rows as its premises: it reads
their outcomes instead of proving the same fact again, and it fails without
running when a premise failed.  `run_checks` runs a selection of rows in
table order with the premises of every selected row first, each row once;
`sierpack reproduce` runs the whole table and the acceptance tests run
slices of it.  A run takes no inputs: every solver call a row makes is
capped at `packing.NODE_CAP` nodes, never at a number of seconds, so a
verdict does not depend on the clock.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import re
import time
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__, packing
from ._data import MissingData, load_coloring, load_graph
from ._naive import naive_chi_rho, random_connected_graphs
from .certify import (CERTIFIED, CertifyError, build_k4e_eleven_coloring,
                      certify_generalized_tiling, lower_bound_closed_form,
                      lower_bound_sequence, monotonicity_check)
from .graph_core import Graph, GraphError, diameter, induced_subgraph
from .packing import (EXACT, SAT, UNSAT, ColorConstraints, Coloring, chi_rho,
                      is_packing_k_colorable, max_color, verify_packing_coloring)
from .search import SearchConfig, search_certified_coloring
from .sierpinski import (base_graph_library, block_vertices, gen_generalized, gen_sierpinski,
                         gen_triangle, gen_triangle_recursive)

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
    status: str  # pass | fail | report
    elapsed: float
    detail: str = ""


@dataclass
class RunManifest:
    """Machine-readable record of a CLI run.

    Rows with status `report` are informational and never affect the
    exit code.
    """

    command: list[str]
    version: str = __version__
    inputs: dict[str, str] = field(default_factory=dict)
    results: list[CheckRow] = field(default_factory=list)
    elapsed: float = 0.0
    settings: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "version": self.version,
            "inputs": self.inputs,
            "settings": self.settings,
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
        good = sum(r.status == "pass" for r in counted)
        lines.append(f"{verdict} {good}/{len(counted)} checks"
                     f" in {self.elapsed:.1f}s ({__version__})")
        return "\n".join(lines)


def checked_seconds(name: str, raw: str | float) -> float:
    """`raw` as a finite number of seconds >= 0, or a one-line ValueError
    naming `name`: a NaN or infinite budget never expires."""
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not 0 <= seconds < math.inf:
        raise ValueError(f"{name} must be a finite number of seconds >= 0,"
                         f" got {str(raw)!r}")
    return seconds


def _hash_data_files() -> dict[str, str]:
    hashes = {}
    for name in _DATA_FILES:
        try:
            raw = (resources.files("sierpack") / "data" / name).read_bytes()
        except FileNotFoundError:
            raise MissingData(f"packaged data file {name!r} not found") from None
        hashes[name] = hashlib.sha256(raw).hexdigest()
    return hashes


def new_manifest(command: Sequence[str]) -> RunManifest:
    """The manifest of a reproduce run before any row has run: the hashes
    of the packaged data, the node cap of the solver calls and the Python
    and numpy versions."""
    return RunManifest(command=list(command), inputs=_hash_data_files(),
                       settings={"node_cap": packing.NODE_CAP,
                                 "python": platform.python_version(),
                                 "numpy": np.__version__})


# ------------------------------------------------------------- the runner


class Outcome(NamedTuple):
    status: str  # pass | fail | report
    detail: str
    value: Any = None  # what later rows read: a depth, a bound


@dataclass(frozen=True)
class Check:
    """One row of the table.  `run` gets the outcomes of the rows run
    before it, by name; `premises` name the earlier rows it reads, and the
    row fails without running when one of them failed."""

    name: str
    claim: str
    run: Callable[[dict[str, Outcome]], Outcome]
    premises: tuple[str, ...] = ()


def _run_one(check: Check, done: dict[str, Outcome]) -> CheckRow:
    t0 = time.perf_counter()
    failed = [p for p in check.premises if done[p].status == "fail"]
    if failed:
        out = Outcome("fail", "premise failed: " + ", ".join(failed))
    else:
        try:
            out = check.run(done)
        except (GraphError, CertifyError, MissingData, ValueError) as exc:
            out = Outcome("fail", f"{type(exc).__name__}: {exc}")
    done[check.name] = out
    return CheckRow(check.name, check.claim, out.status,
                    time.perf_counter() - t0, out.detail)


def _ok(flag: bool) -> str:
    return "pass" if flag else "fail"


def _family_graph(name: str) -> Graph:
    """The instance a check names: K_<k>, S<n>_<k>, S<n>_<BASE>, ST<n>,
    side<d> (the side graph of digit d inside S3_K4E), or a shipped
    `.graph` file."""
    if name.endswith(".graph"):
        return load_graph(name)
    if m := re.fullmatch(r"side(\d)", name):
        return induced_subgraph(_family_graph("S3_K4E"), _side_labels(m[1]))
    if m := re.fullmatch(r"K_(\d+)", name):
        return gen_sierpinski(1, int(m[1]))
    if m := re.fullmatch(r"ST(\d+)", name):
        return gen_triangle(int(m[1]))
    if m := re.fullmatch(r"S(\d+)_(\w+)", name):
        n, base = int(m[1]), m[2]
        if base.isdigit():
            return gen_sierpinski(n, int(base))
        return gen_generalized(n, base_graph_library(base))
    raise ValueError(f"no instance named {name!r}")


def _side_labels(digit: str) -> set[str]:
    """Labels of the blocks dS^2, 0dS^1, 2dS^1 inside S^3 over a 4-letter
    alphabet."""
    return set().union(*(block_vertices(w, 3, 4) for w in (digit, "0" + digit, "2" + digit)))


_EXACT_VALUES = (  # (instance, packing chromatic number)
    *((f"K_{k}", k) for k in range(2, 7)),
    ("S1_C4", 3), ("S2_C4", 4), ("S1_P4", 3), ("S2_P4", 4),
    ("S1_K13", 2), ("S2_K13", 3), ("S2_K4E", 6), ("S1_PAW", 3),
    ("ST0", 3), ("ST1", 4), ("ST2", 8),
)


def _exact_value(graph: str, value: int, done: dict[str, Outcome]) -> Outcome:
    res = chi_rho(_family_graph(graph), budget=None)
    return Outcome(_ok(res.status == EXACT and res.upper == value),
                   f"{res.status} {res.lower}..{res.upper}, {res.nodes_explored} nodes")


# (row, claim, instance, k, prefixes of the labels where color k is banned);
# on side3, prefix "3" is the block 3S2 and "03", "23" the blocks 03S1, 23S1
_UNSAT_FACTS = (
    ("unsat.h", "H admits no 4-packing coloring", "h.graph", 4, ()),
    ("unsat.hprime", "H' admits no 3-packing coloring", "hprime.graph", 3, ()),
    ("unsat.side3.k6", "3S2+03S1+23S1 admits no 6-packing coloring", "side3", 6, ()),
    ("unsat.side3.k7.ban03", "no 7-packing coloring avoiding color 7 on 3S2+03S1", "side3", 7,
     ("3", "03")),
    ("unsat.side3.k7.ban23", "no 7-packing coloring avoiding color 7 on 3S2+23S1", "side3", 7,
     ("3", "23")),
)


def _unsat(graph: str, k: int, banned: tuple[str, ...], done: dict[str, Outcome]) -> Outcome:
    g = _family_graph(graph)
    forbidden = {lab: frozenset({k}) for lab in g.labels if lab.startswith(banned)}
    res = is_packing_k_colorable(g, k, ColorConstraints(forbidden=forbidden),
                                 budget=None)
    return Outcome(_ok(res.status == UNSAT), f"{res.status}, {res.nodes_explored} nodes")


# ------------------------------------------- the dimension-3 lower bound


def _dim3_union() -> Graph:
    """The 48-vertex witness that 7 colors cannot cover dimension 3 over
    K4-e: the side graphs of digits 3 and 1 inside S3_K4E."""
    return induced_subgraph(_family_graph("S3_K4E"), _side_labels("3") | _side_labels("1"))


def _dim3(done: dict[str, Outcome]) -> Outcome:
    res = is_packing_k_colorable(_dim3_union(), 7, budget=None)
    if res.status == UNSAT:
        return Outcome("pass", f"exhaustive, {res.nodes_explored} nodes")
    if res.status == SAT:
        return Outcome("fail", "solver found a 7-coloring")
    return Outcome("fail", f"UNSAT not proven: node cap {packing.NODE_CAP}"
                   f" reached after {res.nodes_explored} nodes")


def _coloring(source: str) -> Coloring:
    """A shipped coloring file, or the built 11-coloring for "eleven"."""
    return build_k4e_eleven_coloring() if source == "eleven" else load_coloring(source)


_SHIPPED = (  # (coloring file or the built "eleven", instance, top color)
    ("fig5_s3c4.coloring", "S3_C4", 5),
    ("fig7_s2k13.coloring", "S2_K13", 3),
    ("fig10_s2k4e.coloring", "S2_K4E", 6),
    ("fig11_s3k4e.coloring", "S3_K4E", 8),
    ("fig13_st1.coloring", "ST1", 4),
    ("fig14_st2.coloring", "ST2", 8),
    ("eleven", "S5_K4E", 11),
)


def _verify(source: str, graph: str, top: int, done: dict[str, Outcome]) -> Outcome:
    coloring = _coloring(source)
    report = verify_packing_coloring(_family_graph(graph), coloring)
    detail = "valid" if report.ok else \
        f"violations {report.violations[:2]} uncolored {len(report.uncolored)}"
    return Outcome(_ok(report.ok and max_color(coloring) == top),
                   f"{detail}, max {max_color(coloring)}")


_BLOCKS = (  # (row suffix, coloring file or the built "eleven", base, block dimension)
    ("fig5", "fig5_s3c4.coloring", "C4", 3),
    ("fig7", "fig7_s2k13.coloring", "K13", 2),
    ("eleven", "eleven", "K4E", 5),
)


def _certify(source: str, base: str, m: int, done: dict[str, Outcome]) -> Outcome:
    report = certify_generalized_tiling(base_graph_library(base), m, _coloring(source))
    return Outcome(_ok(report.status == CERTIFIED),
                   f"{report.status} depth {report.max_dimension}",
                   report.max_dimension)


def _tile(cert: str, m: int, done: dict[str, Outcome]) -> Outcome:
    # the certify backstop of the block verifies its m+1 and m+2 tilings
    # exhaustively; this row surfaces that
    depth = done[cert].value
    return Outcome(_ok(depth >= m + 2), f"verified"
                   f" exhaustively through dimension {depth} while certifying")


def _bounds_forms(done: dict[str, Outcome]) -> Outcome:
    for k in range(4, 11):
        seq = lower_bound_sequence(k, 30)
        for n in range(1, 31):
            if lower_bound_closed_form(k, n) != seq.term(n):
                return Outcome("fail", f"closed form mismatch at k={k} n={n}")
    return Outcome("pass", "k=4..10, n<=30")


def _bounds_monotone(done: dict[str, Outcome]) -> Outcome:
    ok = all(monotonicity_check(k, 30) for k in range(4, 11))
    return Outcome(_ok(ok), "k=4..10, n<=30")


def _bounds_anchor(done: dict[str, Outcome]) -> Outcome:
    a2 = lower_bound_sequence(4, 2).term(2)
    if a2 != 10:
        return Outcome("fail", f"a_2 = {a2}")
    res = chi_rho(_family_graph("S2_4"), budget=None)
    return Outcome(_ok(res.status == EXACT and res.upper == 10),
                   f"a_2 = 10, solver {res.status} {res.lower}..{res.upper},"
                   f" {res.nodes_explored} nodes")


# ----------------------------------------------------------- block search
#
# Both rows replay known-good seeds of the triangle family at dimension 5;
# the replays are deterministic, so a row passes only on a certificate.


def _search(max_color: int, seed: int, iterations: int, done: dict[str, Outcome]) -> Outcome:
    out = search_certified_coloring(SearchConfig(family="triangle", m=5, max_color=max_color,
                                                 seed=seed, iterations=iterations))
    if out.certified_bound is None:
        return Outcome("fail", f"no certificate, penalty {out.penalty}")
    return Outcome("pass", f"certified bound {out.certified_bound}",
                   out.certified_bound)


def _search_best(done: dict[str, Outcome]) -> Outcome:
    # both premises passed, so both carry a certified bound
    return Outcome("report", str(min(done[name].value
                                     for name in ("search.certified", "search.target"))))


def _structure_counts(done: dict[str, Outcome]) -> Outcome:
    for name in ("K4", "C4", "P4", "K13", "K4E", "PAW"):
        base = base_graph_library(name)
        k, e = base.k, len(base.edges)
        for n in range(1, 6):
            g = gen_generalized(n, base)
            if g.n != k ** n or g.edge_count != e * (k ** n - 1) // (k - 1):
                return Outcome("fail", f"{name} n={n}: {g.n}v {g.edge_count}e")
    return Outcome("pass", "six bases, n<=5")


def _structure_diameter(done: dict[str, Outcome]) -> Outcome:
    for k in (3, 4, 5):
        for n in range(1, 7):
            got = diameter(gen_sierpinski(n, k))
            if got != 2 ** n - 1:
                return Outcome("fail", f"k={k} n={n}: diameter {got}")
    return Outcome("pass", "k=3,4,5, n<=6")


def _structure_triangle(done: dict[str, Outcome]) -> Outcome:
    for n in range(1, 7):
        g = gen_triangle(n)
        if g.n != (3 ** (n + 1) + 3) // 2 or g.edge_count != 3 ** (n + 1):
            return Outcome("fail", f"n={n}: {g.n}v {g.edge_count}e")
    return Outcome("pass", "n<=6")


def _structure_recursive(done: dict[str, Outcome]) -> Outcome:
    for n in range(1, 6):
        if gen_triangle(n) != gen_triangle_recursive(n):
            return Outcome("fail", f"n={n}: label or edge sets differ")
    return Outcome("pass", "n<=5")


def _oracle(done: dict[str, Outcome]) -> Outcome:
    nodes = 0
    for i, g in enumerate(random_connected_graphs(100, 7)):
        res = chi_rho(g, budget=None)
        nodes += res.nodes_explored
        if res.status != EXACT or res.upper != naive_chi_rho(g):
            return Outcome("fail", f"graph {i}: solver {res.status}"
                           f" {res.lower}..{res.upper}, {res.nodes_explored} nodes")
    return Outcome("pass", f"100 random graphs, seed 7, {nodes} nodes")


# -------------------------------------------------------------- the table


TABLE: tuple[Check, ...] = (
    *(Check(f"solver.{g.lower().replace('k_', 'k')}", f"chi_rho({g}) == {v}",
            partial(_exact_value, g, v)) for g, v in _EXACT_VALUES),
    *(Check(row, claim, partial(_unsat, g, k, banned))
      for row, claim, g, k, banned in _UNSAT_FACTS),
    Check("lower.dim3", "48-vertex union has no 7-packing coloring", _dim3),
    *(Check(f"verify.{src.split('_')[0]}",
            f"built 11-coloring is a packing coloring of {g}" if src == "eleven"
            else f"{src} is a packing coloring of {g} with top color {top}",
            partial(_verify, src, g, top)) for src, g, top in _SHIPPED),
    *(Check(f"cert.{name}", f"{src} lift certificate is CERTIFIED",
            partial(_certify, src, base, m)) for name, src, base, m in _BLOCKS),
    *(Check(f"tile.{name}", f"{src} tiles to the next two dimensions",
            partial(_tile, f"cert.{name}", m), (f"cert.{name}",))
      for name, src, _, m in _BLOCKS),
    Check("bounds.forms", "closed form equals the recurrence for k=4..10, n<=30", _bounds_forms),
    Check("bounds.monotone", "bound sequences are strictly increasing", _bounds_monotone),
    Check("bounds.anchor", "a_2 = 10 for k=4 and chi_rho(S2_4) = 10, so a_2 is tight",
          _bounds_anchor),
    Check("search.certified", "search finds a certified triangle block coloring at dimension 5",
          partial(_search, 33, 5, 60_000)),
    Check("search.target", "certified bound reaches 31", partial(_search, 31, 32, 500_000)),
    Check("search.best", "best certified bound achieved", _search_best,
          ("search.certified", "search.target")),
    Check("structure.counts", "k^n vertices and e(k^n-1)/(k-1) edges", _structure_counts),
    Check("structure.diameter", "diameter(S^n_k) == 2^n - 1", _structure_diameter),
    Check("structure.triangle", "(3^(n+1)+3)/2 vertices and 3^(n+1) edges", _structure_triangle),
    Check("structure.recursive", "contraction and recursive triangle builds agree",
          _structure_recursive),
    Check("oracle.random", "chi_rho matches brute force on 100 random graphs", _oracle),
)


def select(*prefixes: str) -> list[str]:
    """Names of the table rows that start with one of `prefixes`."""
    return [c.name for c in TABLE if c.name.startswith(prefixes)]


def run_checks(names: Iterable[str], table: Sequence[Check] = TABLE) -> list[CheckRow]:
    """Run the named rows and, first, their premises: each row once, in
    table order."""
    wanted = set(names)
    unknown = wanted - {c.name for c in table}
    if unknown:
        raise ValueError(f"no check named {sorted(unknown)[0]!r}")
    for check in reversed(table):
        if check.name in wanted:
            wanted.update(check.premises)
    done: dict[str, Outcome] = {}
    return [_run_one(c, done) for c in table if c.name in wanted]


def run_suite(command: Sequence[str]) -> RunManifest:
    """Run the whole table into a manifest."""
    t0 = time.perf_counter()
    manifest = new_manifest(command)
    manifest.results = run_checks([c.name for c in TABLE])
    manifest.elapsed = time.perf_counter() - t0
    return manifest
