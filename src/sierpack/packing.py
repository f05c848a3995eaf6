"""Packing-coloring verification and exact solving.

A packing coloring assigns colors >= 1 so that two vertices sharing color i
are at distance > i.  The solver is a branch-and-bound that branches at
every node on the uncolored vertex with the fewest colors left (MRV; ties
go to the higher static rank: eccentricity ascending, then degree
descending, then label) and tries its colors from highest to lowest, with
forward checking on per-vertex color masks and per-color capacity pruning
from exact maximum i-packing sizes, all read from one per-graph context,
`_Metric`, that `chi_rho` reuses for every k.  UNSAT answers are only
reported when the tree is exhausted within budget: a number of seconds, or
with `budget=None` the `NODE_CAP` nodes of a call, which never reads the
clock.
"""

from __future__ import annotations

import random
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .graph_core import (
    UNREACHABLE,
    DisconnectedGraph,
    DuplicateLabel,
    FormatError,
    Graph,
    GraphError,
    TooLarge,
    UnknownLabel,
    _batches,
    _distances,
    _hits,
    _rows,
    _sweep,
    all_pairs_distances,
    text_records,
)

EXACT = "EXACT"
BOUNDS = "BOUNDS"
TIMEOUT = "TIMEOUT"
SAT = "SAT"
UNSAT = "UNSAT"

DEFAULT_BUDGET = 300.0
NODE_CAP = 1_000_000  # branch-and-bound nodes of one call under budget=None
_EXACT_SIZE_LIMIT = 60  # max-packing / clique machinery is exact only up to here

Coloring = Mapping[str, int]


class InfeasibleConstraints(GraphError):
    pass


class SolveTimeout(GraphError):
    """Raised by budgeted exact subroutines that cannot return partial answers."""


def max_color(c: Coloring) -> int:
    return max(c.values(), default=0)


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class ViolationReport:
    ok: bool
    violations: list[tuple[int, str, str, int]]  # (color, u, v, distance <= color)
    uncolored: list[str]


def _classes(g: Graph, c: Coloring) -> tuple[dict[int, list[int]], list[str]]:
    """Each color's vertex indices, and the sorted labels c leaves uncolored."""
    classes: dict[int, list[int]] = {}
    for lab, col in c.items():
        if not g.has_vertex(lab):
            raise UnknownLabel(f"colored label {lab!r} is not a vertex")
        if col < 1:
            raise ValueError(f"color {col} for {lab!r} is below 1")
        classes.setdefault(col, []).append(g.index(lab))
    return classes, sorted(lab for lab in g.labels if lab not in c)


def _class_violations(g: Graph, classes: dict[int, list[int]]):
    """Yield each violating class's sorted (c, u, v, d) list, in ascending
    color order.  Class c gets one sweep, truncated at depth c and read only
    on its own rows, so a hit at level d is exactly the violation (c, u, v,
    d); a class of one member has no pair and gets no sweep."""
    labels = g.labels
    for col, members in sorted(classes.items()):
        if len(members) < 2:
            continue  # no pair to check
        rows = np.array(members)
        found = []
        for batch in _batches(rows):
            for d, reached in _sweep(g, batch, depth_limit=col):
                v, j = _hits(reached, len(batch), rows)
                u = batch[j]
                for a, b in zip(u.tolist(), v.tolist()):
                    if a < b:  # each pair is hit from both ends; keep one
                        a, b = sorted((labels[a], labels[b]))
                        found.append((col, a, b, d))
        if found:
            yield sorted(found)


def verify_packing_coloring(g: Graph, c: Coloring) -> ViolationReport:
    """Check every same-color pair, one color class at a time in ascending
    color order.  Returns the complete violation list, plus any vertices of
    g missing from the coloring; ok means both lists are empty."""
    classes, uncolored = _classes(g, c)
    violations = [hit for found in _class_violations(g, classes) for hit in found]
    return ViolationReport(ok=not violations and not uncolored,
                           violations=violations, uncolored=uncolored)


def _first_violation(g: Graph, c: Coloring
                     ) -> tuple[list[str], tuple[int, str, str, int] | None]:
    """verify's uncolored list and its first violation or None, read off
    the lowest violating class without sweeping the classes above it."""
    classes, uncolored = _classes(g, c)
    return uncolored, next(_class_violations(g, classes), [None])[0]


# ---------------------------------------------------------------------------
# exact maximum cliques / packings

def _max_clique_size(masks: Sequence[int], deadline: float | None = None) -> int:
    """Exact maximum clique over bitmask adjacency, greedy-coloring bound."""
    n = len(masks)
    best = 0
    nodes = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if deadline is not None and nodes % 4096 == 0 and time.monotonic() > deadline:
            raise SolveTimeout("max clique budget exhausted")
        if cand == 0:
            if size > best:
                best = size
            return
        # color candidates greedily; color number bounds attainable clique growth
        order: list[int] = []
        bound: list[int] = []
        rem = cand
        color = 0
        while rem:
            color += 1
            avail = rem
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                order.append(v)
                bound.append(color)
                avail &= ~masks[v] & ~b
                rem &= ~b
        for idx in range(len(order) - 1, -1, -1):
            if size + bound[idx] <= best:
                return
            v = order[idx]
            expand(cand & masks[v], size + 1)
            cand &= ~(1 << v)

    expand((1 << n) - 1, 0)
    return best


class _Metric:
    """One graph's distance context, derived once and shared by the bounds,
    the capacities and the branch-and-bound of every k: the all-pairs
    matrix, the eccentricities, the radius-c balls and the exact maximum
    i-packing sizes."""

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.n
        self.dm = all_pairs_distances(g).matrix
        self.diam = int(self.dm.max(initial=0))
        # within each vertex's own component, so disconnected graphs rank too
        self.ecc = np.where(self.dm == UNREACHABLE, 0, self.dm).max(axis=1, initial=0)
        self._balls: dict[int, list[int]] = {}
        self._packing: dict[int, int] = {}

    def ball(self, c: int) -> list[int]:
        """ball(c)[v]: bitmask of the vertices within distance c of v, v
        excluded.  UNREACHABLE pairs are never within any c."""
        if c not in self._balls:
            near = self.dm <= c
            np.fill_diagonal(near, False)
            rows = np.packbits(near, axis=1, bitorder="little")
            self._balls[c] = [int.from_bytes(r.tobytes(), "little") for r in rows]
        return self._balls[c]

    def max_packing(self, i: int, budget: float | None = DEFAULT_BUDGET) -> int:
        """Exact size, the clique on the complements of ball(i); memoised,
        but a SolveTimeout is not, so a later call retries.  No deadline
        under budget=None."""
        if i not in self._packing:
            full = (1 << self.n) - 1
            far = [full & ~b & ~(1 << v) for v, b in enumerate(self.ball(i))]
            deadline = None if budget is None else time.monotonic() + budget
            self._packing[i] = _max_clique_size(far, deadline)
        return self._packing[i]

    def counting_bound(self, budget: float | None = DEFAULT_BUDGET) -> int:
        """Largest t with sum of max i-packing sizes, i < t, still below |V|;
        at least the clique number."""
        total = t = 0  # total: sum of max i-packing sizes for i = 1..t
        while total < self.n:
            t += 1
            total += self.max_packing(t, budget)
        return max(t, _max_clique_size(self.ball(1)))

    def capacities(self, k: int, budget: float | None) -> list[int]:
        """caps[c] = safe upper bound on |color class c|, exact when feasible."""
        caps = [0] + [self.n] * k
        deadline = None if budget is None else time.monotonic() + budget
        for c in range(1, k + 1):
            if c >= self.diam:
                caps[c] = 1  # spread beyond the diameter: one vertex per such color
            elif self.n <= _EXACT_SIZE_LIMIT:
                try:
                    left = None if deadline is None else max(
                        0.05, deadline - time.monotonic())
                    caps[c] = self.max_packing(c, left)
                except SolveTimeout:
                    pass  # keep the safe cap n; a later k retries
        return caps


def max_i_packing_size(g: Graph, i: int, budget: float = DEFAULT_BUDGET) -> int:
    """Exact largest i-packing: maximum clique of the pairwise d > i relation."""
    if g.n > _EXACT_SIZE_LIMIT:
        raise TooLarge(f"exact packing sizes limited to {_EXACT_SIZE_LIMIT} vertices")
    if i < 1:
        raise ValueError("packing index must be >= 1")
    return _Metric(g).max_packing(i, budget)


# ---------------------------------------------------------------------------
# constrained decision solver

@dataclass(frozen=True)
class ColorConstraints:
    forbidden: Mapping[str, frozenset[int]] = field(default_factory=dict)
    required: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for lab, col in self.required.items():
            if col < 1:
                raise InfeasibleConstraints(f"required color {col} for {lab!r} below 1")
            if col in self.forbidden.get(lab, frozenset()):
                raise InfeasibleConstraints(
                    f"{lab!r} requires color {col} which is also forbidden")


@dataclass(frozen=True)
class DecideResult:
    status: str  # SAT | UNSAT | TIMEOUT
    witness: dict[str, int] | None
    nodes_explored: int
    elapsed: float


def is_packing_k_colorable(g: Graph, k: int,
                           constraints: ColorConstraints | None = None,
                           budget: float | None = DEFAULT_BUDGET) -> DecideResult:
    """Decide existence of a packing coloring with colors 1..k under
    constraints, within `budget` seconds, or `NODE_CAP` nodes when budget is
    None; TIMEOUT when the budget runs out first."""
    if k < 1:
        raise ValueError("k must be >= 1")
    start = time.monotonic()
    if g.n == 0:
        return DecideResult(SAT, {}, 0, 0.0)
    constraints = constraints or ColorConstraints()
    for lab in list(constraints.forbidden) + list(constraints.required):
        if not g.has_vertex(lab):
            raise UnknownLabel(f"constraint on unknown vertex {lab!r}")
    deadline = None if budget is None else start + budget
    return _decide(_Metric(g), k, constraints, start, deadline, NODE_CAP)


def _decide(metric: _Metric, k: int, constraints: ColorConstraints,
            start: float, deadline: float | None, cap: int) -> DecideResult:
    """The branch-and-bound: it stops at `deadline`, or after `cap` nodes
    when deadline is None; both are tested every 2048 nodes."""
    g, n = metric.g, metric.n
    avail = [(1 << k) - 1] * n
    for lab, cols in constraints.forbidden.items():
        for col in cols:
            if col <= k:
                avail[g.index(lab)] &= ~(1 << (col - 1))
    for lab, col in constraints.required.items():
        avail[g.index(lab)] &= (1 << (col - 1)) if col <= k else 0

    # static rank, the MRV tiebreak: central vertices first (eccentricity
    # ascending), then degree descending, then label
    ecc = metric.ecc.tolist()
    by_rank = sorted(range(n), key=lambda v: (ecc[v], -len(g.neighbor_indices(v)),
                                              g.labels[v]))
    balls = [None] + [metric.ball(c) for c in range(1, k + 1)]

    caps = metric.capacities(k, None if deadline is None else
                             min(5.0, (deadline - start) / 4))
    if sum(caps[1:]) < n:
        return DecideResult(UNSAT, None, 0, time.monotonic() - start)

    color_of = [0] * n
    used_count = [0] * (k + 1)
    count_allow = [0] + [sum(a >> (c - 1) & 1 for a in avail) for c in range(1, k + 1)]
    nodes = 0
    timed_out = False

    def feasible_cover(remaining: int) -> bool:
        total = 0
        for c in range(1, k + 1):
            room = caps[c] - used_count[c]
            if room > 0:
                cnt = count_allow[c]
                total += room if room < cnt else cnt
                if total >= remaining:
                    return True
        return total >= remaining

    def assign(depth: int) -> bool:
        nonlocal nodes, timed_out
        nodes += 1
        if timed_out or (nodes % 2048 == 0 and (
                nodes >= cap if deadline is None else time.monotonic() > deadline)):
            timed_out = True
            return False
        if depth == n:
            return True
        # branch on the uncolored vertex with the fewest colors left; the
        # scan runs in rank order, so the first of equals wins the tie
        v, least = -1, k + 1
        for u in by_rank:
            if color_of[u] == 0:
                size = avail[u].bit_count()
                if size < least:
                    v, least = u, size
        m = avail[v]
        while m:
            c = m.bit_length()  # highest color first
            b = 1 << (c - 1)
            m ^= b
            if used_count[c] >= caps[c]:
                continue
            # place v in class c; forward-prune c from its c-ball
            color_of[v] = c
            used_count[c] += 1
            touched = []
            dead = False
            t = balls[c][v]
            while t:
                ub = t & -t
                t &= ~ub
                u = ub.bit_length() - 1
                if color_of[u] == 0 and avail[u] & b:
                    if avail[u] == b:
                        dead = True  # u would lose its last color
                    avail[u] &= ~b
                    count_allow[c] -= 1
                    touched.append(u)
            if not dead and feasible_cover(n - depth - 1) and assign(depth + 1):
                return True
            for u in touched:
                avail[u] |= b
                count_allow[c] += 1
            used_count[c] -= 1
            color_of[v] = 0
            if timed_out:
                return False
        return False

    found = assign(0)
    elapsed = time.monotonic() - start
    if found:
        witness = {g.labels[v]: color_of[v] for v in range(n)}
        return DecideResult(SAT, witness, nodes, elapsed)
    return DecideResult(TIMEOUT if timed_out else UNSAT, None, nodes, elapsed)


# ---------------------------------------------------------------------------
# chi_rho and greedy

@dataclass(frozen=True)
class SolveResult:
    status: str  # EXACT | BOUNDS | TIMEOUT
    lower: int
    upper: int
    witness: dict[str, int] | None
    nodes_explored: int
    elapsed: float


def greedy_packing_coloring(g: Graph, order: Sequence[str] | None = None,
                            seed: int = 0) -> dict[str, int]:
    """First-fit packing coloring; always valid, used for upper bounds.
    Vertices go in `order`, or by degree descending with seeded random
    ties when no order is given.  Their distance rows come from `_rows`,
    one batch of vertices at a time; an unreachable vertex never blocks a
    color."""
    if order is None:
        rng = random.Random(seed)
        jitter = {lab: rng.random() for lab in g.labels}
        seq = sorted(g.labels, key=lambda lab: (-g.degree(lab), jitter[lab]))
    else:
        seq = list(order)
        if sorted(seq) != sorted(g.labels):
            raise ValueError("explicit order must cover every vertex exactly once")
    n = g.n
    colors = np.zeros(n, dtype=np.int64)  # 0: not colored yet
    for batch in _batches(np.array([g.index(lab) for lab in seq], dtype=np.int64)):
        rows = _rows(g, batch)
        dist = rows.astype(np.int64, order="C")
        dist[rows == UNREACHABLE] = n + 1  # beyond any color, for every n
        for j, v in enumerate(batch.tolist()):
            # smallest c with no vertex of color c within distance c of v
            near = colors[dist[j] <= colors]
            free = np.ones(int(near.max(initial=0)) + 2, dtype=bool)
            free[near] = False
            free[0] = False
            colors[v] = free.argmax()
    return {lab: int(colors[g.index(lab)]) for lab in seq}


def chi_rho(g: Graph, budget: float | None = DEFAULT_BUDGET) -> SolveResult:
    """Exact packing chromatic number: climb k from a lower bound until SAT.

    The budget is `budget` seconds, or `NODE_CAP` nodes over all k when
    budget is None.  EXACT when the bracket closes; BOUNDS when the budget
    ran out after at least one decision settled; TIMEOUT when not even the
    first decision finished.  lower is always a proven bound, upper comes
    from a first-fit greedy coloring, valid by construction.
    """
    start = time.monotonic()
    deadline = None if budget is None else start + budget
    if g.n == 0:
        return SolveResult(EXACT, 0, 0, {}, 0, 0.0)
    if (_distances(g, 0) < 0).any():
        raise DisconnectedGraph("packing chromatic number needs a connected graph")

    upper_witness = greedy_packing_coloring(g)
    upper = max_color(upper_witness)
    # one context for the bound and every k; past the exact limit, built at the first k
    metric = _Metric(g) if g.n <= _EXACT_SIZE_LIMIT else None
    sizes_budget = None if budget is None else DEFAULT_BUDGET  # per packing size
    lower = metric.counting_bound(sizes_budget) if metric else (2 if g.edge_count else 1)

    nodes = 0
    settled = 0
    k = lower
    while k < upper:
        if (nodes >= NODE_CAP if deadline is None
                else time.monotonic() >= deadline):
            status = BOUNDS if settled else TIMEOUT
            return SolveResult(status, k, upper, upper_witness, nodes,
                               time.monotonic() - start)
        metric = metric or _Metric(g)
        res = _decide(metric, k, ColorConstraints(), time.monotonic(), deadline,
                      NODE_CAP - nodes)
        nodes += res.nodes_explored
        if res.status == SAT:
            return SolveResult(EXACT, k, k, res.witness, nodes,
                               time.monotonic() - start)
        if res.status == TIMEOUT:
            status = BOUNDS if settled else TIMEOUT
            return SolveResult(status, k, upper, upper_witness, nodes,
                               time.monotonic() - start)
        settled += 1
        k += 1
    return SolveResult(EXACT, upper, upper, upper_witness, nodes,
                       time.monotonic() - start)


# ---------------------------------------------------------------------------
# coloring files: '<label> <color>' lines, '#' comments, label-sorted output

def format_coloring_text(c: Coloring) -> str:
    return "\n".join(f"{lab} {col}" for lab, col in sorted(c.items())) + "\n"


def parse_coloring_text(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for lineno, raw, parts in text_records(text):
        # isascii: str.isdigit alone also accepts '²' (int() fails) and '٣' (read as 3)
        color = parts[1] if len(parts) == 2 and parts[1].isascii() else ""
        if not color.isdigit() or int(color) < 1:
            raise FormatError(f"line {lineno}: expected '<label> <color>=1..', got {raw!r}")
        if parts[0] in out:
            raise DuplicateLabel(f"line {lineno}: {parts[0]!r} colored twice")
        out[parts[0]] = int(color)
    return out


def read_coloring(path) -> dict[str, int]:
    with open(path, encoding="utf-8") as fh:
        return parse_coloring_text(fh.read())


def write_coloring(path, c: Coloring) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_coloring_text(c))
