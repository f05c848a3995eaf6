"""Naive reference implementations used only for cross-checking.

Deliberately shares no algorithmic machinery with packing.py or with the
multi-source BFS kernel of graph_core.py: distances come from a
Floyd-Warshall sweep or from one frontier BFS per source over a CSR
adjacency built here from the graph's neighbor lists, colorability
from plain label-order backtracking with no capacity or symmetry pruning,
and the coloring verifier checks same-color pairs label by label.  The
lift-certificate margins are recomputed pair by pair from a boundary
profile, independently of the vectorized condition table in certify.py.
The search penalty is re-evaluated one class at a time and one vertex at a
time from a condition table, with no incremental state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Mapping

import numpy as np

from .graph_core import UNREACHABLE, DistanceMatrix, Graph, UnknownLabel, build_graph
from .packing import ViolationReport
from .sierpinski import BaseGraph, extreme_vertices, gen_generalized, gen_triangle


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's own CSR adjacency, built from the neighbor index lists."""
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum([len(nbrs) for nbrs in g._adj], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(g._adj), dtype=np.int64, count=int(indptr[-1]))
    return indptr, indices


def _bfs_fill(csr: tuple[np.ndarray, np.ndarray], source: int,
              depth_limit: int | None = None) -> np.ndarray:
    """Distance array from one source; -1 marks not reached (or beyond the limit)."""
    indptr, indices = csr
    dist = np.full(len(indptr) - 1, -1, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        if depth_limit is not None and d >= depth_limit:
            break
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # gather all frontier neighborhoods in one shot
        offs = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
        nbrs = indices[np.repeat(starts, counts) + offs]
        nbrs = nbrs[dist[nbrs] < 0]
        if nbrs.size == 0:
            break
        frontier = np.unique(nbrs)
        d += 1
        dist[frontier] = d
    return dist


def naive_bfs_distances(g: Graph, source: str,
                        depth_limit: int | None = None) -> dict[str, int]:
    dist = _bfs_fill(_csr(g), g.index(source), depth_limit)
    labels = g.labels
    return {labels[i]: int(d) for i, d in enumerate(dist) if d >= 0}


def naive_all_pairs_distances(g: Graph) -> DistanceMatrix:
    """The all-pairs table, one frontier BFS per source."""
    n = g.n
    csr = _csr(g)
    mat = np.full((n, n), UNREACHABLE, dtype=np.uint16)
    for s in range(n):
        dist = _bfs_fill(csr, s)
        reached = dist >= 0
        mat[s, reached] = dist[reached].astype(np.uint16)
    return DistanceMatrix(labels=g.labels, matrix=mat, index=g._index)


def naive_verify_packing_coloring(g: Graph, c: Mapping[str, int]) -> ViolationReport:
    """The label-level verifier: one BFS truncated at the color per colored
    vertex, every same-color pair read off a label dict."""
    classes: dict[int, list[str]] = {}
    for lab, col in c.items():
        if not g.has_vertex(lab):
            raise UnknownLabel(f"colored label {lab!r} is not a vertex")
        if col < 1:
            raise ValueError(f"color {col} for {lab!r} is below 1")
        classes.setdefault(col, []).append(lab)
    uncolored = sorted(lab for lab in g.labels if lab not in c)
    violations = set()
    csr = _csr(g)
    for col, members in classes.items():
        member_set = set(members)
        for u in members:
            dist = _bfs_fill(csr, g.index(u), depth_limit=col)
            for i in np.flatnonzero(dist > 0).tolist():
                v = g.labels[i]
                if v in member_set:
                    a, b = (u, v) if u <= v else (v, u)
                    violations.add((col, a, b, int(dist[i])))
    return ViolationReport(ok=not violations and not uncolored,
                           violations=sorted(violations), uncolored=uncolored)


def _fw_distances(g: Graph) -> list[list[float]]:
    n = g.n
    inf = float("inf")
    d = [[0.0 if i == j else inf for j in range(n)] for i in range(n)]
    for a, b in g.edges():
        ia, ib = g.index(a), g.index(b)
        d[ia][ib] = d[ib][ia] = 1.0
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def naive_is_k_colorable(g: Graph, k: int,
                         forbidden: Mapping[str, Iterable[int]] | None = None,
                         required: Mapping[str, int] | None = None) -> bool:
    """Plain backtracking in label order; `forbidden` bans colors on a
    vertex, `required` pins a vertex to one color (which may exceed k)."""
    n = g.n
    if n == 0:
        return True
    d = _fw_distances(g)
    colors = [0] * n
    forbidden, required = forbidden or {}, required or {}
    allowed = [[c for c in range(1, k + 1)
                if c not in forbidden.get(lab, ()) and required.get(lab, c) == c]
               for lab in g.labels]

    def bt(i: int) -> bool:
        if i == n:
            return True
        for c in allowed[i]:
            if all(colors[j] != c or d[i][j] > c for j in range(i)):
                colors[i] = c
                if bt(i + 1):
                    return True
        colors[i] = 0
        return False

    return bt(0)


def naive_chi_rho(g: Graph) -> int:
    """Smallest k admitting a packing k-coloring, by plain enumeration."""
    k = 0
    while True:
        if naive_is_k_colorable(g, k):
            return k
        k += 1


def random_connected_graphs(count: int, seed: int, n_max: int = 9):
    """The fixed random suite for solver-vs-oracle comparison."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, n_max)
        p = rng.uniform(0.15, 0.85)
        labels = [f"v{i}" for i in range(n)]
        edges = [(labels[i], labels[j]) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < p]
        g = build_graph(labels, edges)
        seen = {0}
        stack = [0]
        while stack:
            for u in g.neighbor_indices(stack.pop()):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) == n:
            out.append(g)
    return out


@dataclass(frozen=True)
class BoundaryProfile:
    """Distances from block vertices to the block boundary.

    `to_extreme[v]` is aligned with `extremes`; `between` holds ordered
    inter-extreme distances and `d_min` their minimum.  Every base letter
    has positive degree, so every extreme can carry an inter-block edge.
    """

    extremes: tuple[str, ...]
    to_extreme: Mapping[str, tuple[int, ...]]
    between: Mapping[tuple[str, str], int]
    d_min: int


def boundary_profile(dm: DistanceMatrix, extremes) -> BoundaryProfile:
    ext = tuple(extremes)
    to_e = {lab: tuple(dm.distance(lab, e) for e in ext) for lab in dm.labels}
    between = {(a, b): dm.distance(a, b) for a in ext for b in ext if a != b}
    return BoundaryProfile(ext, to_e, between, min(between.values()))


def naive_lift_margins(family: str, m: int, block: Mapping[str, int],
                       base: BaseGraph | None = None) -> dict[int, dict[str, int]]:
    """The certifiers' per-color margins, one pair of positions at a time:
    `within` (block distance), `pair` (cross-block bound of two distinct
    positions) and `single` (two copies of one position), each minus the
    color.  The cross-block bounds follow the `cross(u, v)` definitions in
    the docstrings of `certify_generalized_tiling` (one hop over a base
    edge, 2 + d_min over a non-edge) and `certify_triangle_tiling`."""
    g = gen_triangle(m) if family == "triangle" else gen_generalized(m, base)
    dm = naive_all_pairs_distances(g)
    prof = boundary_profile(dm, extreme_vertices(family, m, base))
    to = prof.to_extreme
    if family == "triangle":
        def cross(u, v):
            if u == v:  # routes between copies pass two distinct corners
                return sum(sorted(to[u])[:2])
            if u in prof.extremes or v in prof.extremes:
                return None  # identified corners: no cross-block pair
            return min(to[u]) + min(to[v])
    else:
        adjacent = {frozenset(e) for e in base.edges}

        def cross(u, v):
            return min(to[u][x] + to[v][y]
                       + (1 if frozenset((x, y)) in adjacent else 2 + prof.d_min)
                       for x in range(base.k) for y in range(base.k))

    classes: dict[int, list[str]] = {}
    for lab in sorted(block):
        classes.setdefault(block[lab], []).append(lab)
    margins = {}
    for color, members in sorted(classes.items()):
        cond = {}
        if len(members) > 1:
            pairs = list(combinations(members, 2))
            cond["within"] = min(dm.distance(u, v) for u, v in pairs) - color
            bounds = [b for b in (cross(u, v) for u, v in pairs) if b is not None]
            if bounds:
                cond["pair"] = min(bounds) - color
        cond["single"] = min(cross(u, u) for u in members) - color
        margins[color] = cond
    return margins


def naive_recolor_costs(table, v: int, colors: np.ndarray,
                        max_color: int) -> np.ndarray:
    """Search penalty contribution of vertex v under every color
    0..max_color against the rest of `colors`, from a condition table
    (`pair_d`, `pair_b`, `single_b`): each class member w pays toward its own
    class's threshold colors[w] + 1, and v pays its boundary deficit."""
    need = colors + 1
    contrib = (np.maximum(need - table.pair_d[v], 0)
               + np.maximum(need - table.pair_b[v], 0))
    contrib[v] = 0
    per_class = np.bincount(colors, weights=contrib,
                            minlength=max_color + 1).astype(np.int64)
    shades = np.arange(max_color + 1, dtype=np.int64)
    per_class += np.maximum(shades + 1 - int(table.single_b[v]), 0)
    return per_class


def naive_class_penalty(table, members: np.ndarray, color: int) -> int:
    """Search penalty of `members` as one class of `color`."""
    need = color + 1
    total = sum(max(need - int(table.single_b[u]), 0) for u in members)
    for i, u in enumerate(members):
        for w in members[i + 1:]:
            total += (max(need - int(table.pair_d[u, w]), 0)
                      + max(need - int(table.pair_b[u, w]), 0))
    return total


def naive_search_eval(table, colors: np.ndarray) -> tuple[int, np.ndarray]:
    """Search penalty of `colors` and each vertex's share of violated
    conditions, one class at a time."""
    heat = np.zeros(len(colors), dtype=np.int64)
    total = 0
    for c in np.unique(colors):
        idx = np.flatnonzero(colors == c)
        need = np.int64(c) + 1  # colors may exceed int16
        heat[idx] += np.maximum(need - table.single_b[idx], 0)
        if len(idx) > 1:
            ij = np.ix_(idx, idx)
            pairs = (np.maximum(need - table.pair_d[ij], 0)
                     + np.maximum(need - table.pair_b[ij], 0))
            np.fill_diagonal(pairs, 0)
            heat[idx] += pairs.sum(axis=1)
        total += naive_class_penalty(table, idx, int(c))
    return total, heat
