"""Stochastic search for block colorings that pass the lift certificates.

The objective is the exact sum of integer deficits against the block's
`certify.condition_table`, the conditions the certifier's margins read,
so zero penalty coincides with a structural certificate pass.  Moves
recolor one vertex (biased toward vertices that appear in violated
conditions) or swap two whole color classes, and are scored from the
incremental own-color table of `_deficit`; every `_HEAT_REFRESH` moves the
table and the penalty are rebuilt from scratch and must equal the
incremental ones.  Acceptance follows simulated annealing with geometric
cooling, and a run that stagnates regrows a few classes of its best
coloring.  The initial peel and the regrow share one recreate routine; the
move mix, the schedule and the stagnation limit are module constants.  The
palette is bounded by the block's vertex count, since the table has one
column per color.

A run is deterministic given its seed and reports what it did as move
counters; restarts derive seeds and may execute in parallel, with the
reported best chosen by (certified bound, penalty, seed).
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from ._deficit import _Context, _move, _weights
from .certify import (
    CERTIFIED,
    certify_generalized_tiling,
    certify_triangle_tiling,
)
from .packing import max_color as _max_color_used
from .sierpinski import BaseGraph, extreme_vertices, triangle_canonical

_HEAT_REFRESH = 256  # moves between rebuilds of the table, the penalty and the heat
_RECOLOR_SHARE = 0.9  # share of recolor moves; the rest swap two classes
_START_TEMP = 1.5
_COOLING = 0.9995  # geometric cooling per move
# moves without a new best before a regrow round; proposals that would
# leave the coloring unchanged are not counted
_STAGNATION_LIMIT = 3_000


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one search; identical configs reproduce identical
    outcomes when run single-threaded."""

    family: str                    # "triangle" | "generalized"
    m: int
    max_color: int
    base: Optional[BaseGraph] = None
    seed: int = 0
    iterations: int = 200_000
    restarts: int = 1

    def __post_init__(self):
        for name, least in (("max_color", 1), ("restarts", 1), ("iterations", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class SearchMoves:
    """What one annealing run did, counted move by move; deterministic
    given the seed.  Every iteration proposes one recolor or one swap."""

    recolors: int            # recolor proposals
    swaps: int               # class-swap proposals
    noops: int               # proposals of either kind that change nothing
    recolors_accepted: int
    swaps_accepted: int
    resyncs: int             # full re-evaluations, one every _HEAT_REFRESH moves
    regrows: int             # regrow rounds after stagnation


@dataclass(frozen=True)
class SearchOutcome:
    """Best coloring found.  `certified_bound` is set only when the full
    certifier confirmed the coloring, and then equals its largest color.
    `moves` counts the moves of the restart that produced it."""

    best: Mapping[str, int]
    certified_bound: Optional[int]
    history: tuple[tuple[int, int], ...]
    penalty: int
    seed: int
    moves: SearchMoves


def penalty(family: str, m: int, candidate: Mapping[str, int],
            base: Optional[BaseGraph] = None) -> int:
    """Exact certificate deficit of a total block coloring: zero iff every
    structural condition of the matching certifier holds.  Unequal triangle
    corner colors count one deficit per unequal pair."""
    ctx = _Context(family, m, base)
    missing = [lab for lab in ctx.labels if lab not in candidate]
    if missing:
        raise ValueError(f"candidate misses {len(missing)} block vertices, "
                         f"first {missing[0]!r}")
    colors = np.array([candidate[lab] for lab in ctx.labels], dtype=np.int64)
    if colors.min() < 1:
        raise ValueError("colors must be positive integers")
    total, _ = ctx.full_eval(colors)
    if ctx.family == "triangle":
        cc = [candidate[e] for e in extreme_vertices("triangle", m)]
        total += sum(1 for i in range(3) for j in range(i + 1, 3)
                     if cc[i] != cc[j])
    return total


def _compatible_at(ctx: _Context, c: int) -> np.ndarray:
    """Boolean matrix: u, w may share color c."""
    need = c + 1
    return (ctx.pair_d >= need) & (ctx.pair_b >= need)


def _grow_class(ctx: _Context, elig: list[int], seeded: list[int],
                ok: np.ndarray, rng: random.Random, passes: int) -> list[int]:
    """Large pairwise-compatible set from `elig` containing `seeded`:
    randomized greedy, then (0,1)- and (1,2)-exchanges."""
    evec = np.array(elig, dtype=np.intp)
    best: list[int] = []
    for _ in range(passes):
        order = elig[:]
        rng.shuffle(order)
        chosen = seeded[:]
        mask = np.ones(ctx.n, dtype=bool)
        for w in chosen:
            mask &= ok[w]
        for v in order:
            if mask[v]:
                chosen.append(v)
                mask &= ok[v]
        if len(chosen) > len(best):
            best = chosen
    improved = True
    while improved:
        improved = False
        sarr = np.array(best, dtype=np.intp)
        conf = (~ok[np.ix_(evec, sarr)]).sum(axis=1)
        in_set = np.isin(evec, sarr)
        frees = evec[(conf == 0) & ~in_set]
        if len(frees):
            # greedy missed these after exchanges: add any compatible subset
            for v in frees.tolist():
                if all(ok[v, w] for w in best):
                    best.append(v)
                    improved = True
            continue
        for j, v in enumerate(best):
            if v in seeded:
                continue
            cand = evec[(conf == 1) & ~ok[evec, v] & ~in_set]
            if len(cand) < 2:
                continue
            sub = ok[np.ix_(cand, cand)]
            pairs = np.argwhere(np.triu(sub, 1))
            if len(pairs):
                a, b = cand[pairs[0][0]], cand[pairs[0][1]]
                best = [w for w in best if w != v] + [int(a), int(b)]
                improved = True
                break
    return best


def _triangle_independent_core(m: int) -> set[str]:
    """Maximum independent set of the dimension-m triangle graph, built by
    copying the level below into the three subtriangles; identified corner
    pairs merge, giving sizes 3, 6, 15, 42, 123, ... (3a - 3 per level)."""
    cur = {"00", "11", "22"}
    for _ in range(1, m):
        cur = {triangle_canonical(str(c) + w) for c in range(3) for w in cur}
    return cur


def _recreate(ctx: _Context, work: np.ndarray, pool: set[int],
              targets: Iterable[int], max_color: int, rng: random.Random,
              passes: Callable[[int], int]) -> np.ndarray:
    """Recolor the `pool` vertices of `work` in place and return it: each
    target color c, ascending, grows as a large compatible set of the pool
    vertices that may carry c, around the vertices already colored c; the
    rest of the pool then takes its cheapest color."""
    work[sorted(pool)] = 0
    remaining = set(pool)
    for c in sorted(targets):
        elig = sorted(v for v in remaining if ctx.color_cap[v] >= c)
        if not elig:
            continue
        fixed = [int(v) for v in np.flatnonzero(work == c)]
        grown = _grow_class(ctx, elig, fixed, _compatible_at(ctx, c), rng,
                            passes(c))
        cls = [v for v in grown if v not in fixed]
        work[cls] = c
        remaining -= set(cls)
    own = ctx.own_table(work, max_color + 1)
    singles = ctx.singles(max_color + 1)
    for v in sorted(remaining):
        cap = min(max_color, int(ctx.color_cap[v]))
        costs = (own[v] + singles[v])[1:cap + 1]
        minima = np.flatnonzero(costs == costs.min()) + 1
        new = int(minima[rng.randrange(len(minima))])
        _move(ctx, own, v, 0, new)
        work[v] = new
    return work


def _peel_initial(ctx: _Context, max_color: int, rng: random.Random) -> np.ndarray:
    """Pin the corners, and on triangle blocks the independent core, at
    color 1, then build every other class bottom-up from the free vertices."""
    colors = np.zeros(ctx.n, dtype=np.int64)
    colors[ctx.pinned] = 1
    pool = set(int(v) for v in ctx.free)
    start = 1
    if ctx.family == "triangle":
        core = _triangle_independent_core(ctx.m)
        first = [i for i, lab in enumerate(ctx.labels) if lab in core]
        colors[first] = 1
        pool -= set(first)
        start = 2
    return _recreate(ctx, colors, pool, range(start, max_color + 1), max_color,
                     rng, lambda c: 12 if c <= 3 else 4)


def _regrow_round(ctx: _Context, colors: np.ndarray, max_color: int,
                  rng: random.Random) -> np.ndarray:
    """Ruin-and-recreate at class granularity: dissolve a few color classes
    plus every currently conflicting vertex, then recreate the dissolved
    classes."""
    work = colors.copy()
    _, heat = ctx.full_eval(work)
    sore = np.flatnonzero(heat > 0)
    targets = set()
    if max_color >= 2:
        k = rng.choice((1, 2, 2, 3))
        targets.update(rng.sample(range(2, max_color + 1),
                                  min(k, max_color - 1)))
    for c in sorted({int(work[v]) for v in sore}):
        if rng.random() < 0.7:
            targets.add(c)
    pool = set()
    for c in targets:
        pool.update(int(v) for v in np.flatnonzero(work == c))
    pool.update(int(v) for v in sore)
    pool.difference_update(int(v) for v in np.flatnonzero(ctx.pinned))
    return _recreate(ctx, work, pool, targets, max_color, rng, lambda c: 6)


def _reset(ctx: _Context, colors: np.ndarray, max_color: int
           ) -> tuple[list[list[int]], np.ndarray, int, list[int]]:
    """The color classes, the own-color table, the penalty and the hot list
    (free vertices in a violated condition) of `colors`, from scratch."""
    classes: list[list[int]] = [[] for _ in range(max_color + 1)]
    for v, c in enumerate(colors.tolist()):
        classes[c].append(v)
    own = ctx.own_table(colors, max_color + 1)
    pen, heat = ctx.full_eval(colors, own)
    hot = [int(v) for v in np.flatnonzero(heat > 0) if not ctx.pinned[v]]
    return classes, own, pen, hot


def _run_restart(ctx: _Context, cfg: SearchConfig, seed: int) -> SearchOutcome:
    rng = random.Random(seed)
    width = cfg.max_color + 1
    colors = _peel_initial(ctx, cfg.max_color, rng)
    classes, own, pen, hot = _reset(ctx, colors, cfg.max_color)
    singles = ctx.singles(width)
    weights = _weights(width)
    best_pen = pen
    best_colors = colors.copy()
    history = [(0, pen)]
    moves = {field.name: 0 for field in fields(SearchMoves)}
    # tiny pressure toward small colors; never outweighs one integer deficit
    eps = 1.0 / (10.0 * ctx.n * max(cfg.max_color, 1))
    ramp = eps * np.arange(width)
    temp = _START_TEMP
    swap_lo = 2 if cfg.family == "triangle" else 1  # never swap pinned 1s
    stagnant = 0

    def outcome(coloring: dict[str, int], bound: Optional[int],
                pen: int) -> SearchOutcome:
        return SearchOutcome(coloring, bound, tuple(history), pen, seed,
                             SearchMoves(**moves))

    def snapshot_if_done() -> Optional[SearchOutcome]:
        if pen != 0:
            return None
        coloring = {lab: int(c) for lab, c in zip(ctx.labels, colors)}
        if ctx.family == "triangle":
            report = certify_triangle_tiling(ctx.m, coloring)
        else:
            report = certify_generalized_tiling(ctx.base, ctx.m, coloring)
        if report.status != CERTIFIED:
            raise AssertionError(
                "zero-penalty candidate failed certification; "
                "penalty terms out of sync with the certifier")
        return outcome(coloring, _max_color_used(coloring), 0)

    done = snapshot_if_done()
    if done is not None:
        return done

    for it in range(1, cfg.iterations + 1):
        if it % _HEAT_REFRESH == 0:
            kept_own, kept_pen = own, pen
            classes, own, pen, hot = _reset(ctx, colors, cfg.max_color)
            moves["resyncs"] += 1
            if not np.array_equal(own, kept_own):
                raise AssertionError("incremental own-color table drifted"
                                     " from the full evaluation")
            if pen != kept_pen:
                raise AssertionError(f"incremental penalty {kept_pen} drifted"
                                     f" from the full evaluation {pen}")
        if rng.random() < _RECOLOR_SHARE or cfg.max_color <= swap_lo:
            moves["recolors"] += 1
            if hot and rng.random() < 0.8:
                v = hot[rng.randrange(len(hot))]
            else:
                v = int(ctx.free[rng.randrange(len(ctx.free))])
            old = int(colors[v])
            cap = min(cfg.max_color, int(ctx.color_cap[v]))
            costs = own[v] + singles[v]
            walk = rng.random() < 0.03  # unconditional step, breaks deadlocks
            if walk or rng.random() < 0.1:
                new = rng.randint(1, max(cap, 1))
            else:
                scored = costs[1:cap + 1] + ramp[1:cap + 1]
                minima = (scored == scored.min()).nonzero()[0] + 1
                new = int(minima[rng.randrange(len(minima))])
            if new == old:
                moves["noops"] += 1
                continue
            delta = int(costs[new] - costs[old])
            score = delta + eps * (new - old)
            if (walk or score <= 0
                    or rng.random() < math.exp(-score / max(temp, 1e-9))):
                moves["recolors_accepted"] += 1
                classes[old].remove(v)
                classes[new].append(v)
                colors[v] = new
                _move(ctx, own, v, old, new)
                pen += delta
        else:
            moves["swaps"] += 1
            a = rng.randint(swap_lo, cfg.max_color)
            b = rng.randint(swap_lo, cfg.max_color)
            if a == b or (not classes[a] and not classes[b]):
                moves["noops"] += 1
                continue
            delta = ctx.swap_delta(weights, classes[a], a, classes[b], b)
            score = delta + eps * (len(classes[a]) - len(classes[b])) * (b - a)
            if score <= 0 or rng.random() < math.exp(-score / max(temp, 1e-9)):
                moves["swaps_accepted"] += 1
                classes[a], classes[b] = classes[b], classes[a]
                for v in classes[a]:
                    colors[v] = a
                for v in classes[b]:
                    colors[v] = b
                own[:, a] = ctx.column(classes[a], a)
                own[:, b] = ctx.column(classes[b], b)
                pen += delta
        temp *= _COOLING
        if pen >= best_pen:
            stagnant += 1
            if stagnant >= _STAGNATION_LIMIT:
                colors = _regrow_round(ctx, best_colors, cfg.max_color, rng)
                classes, own, pen, hot = _reset(ctx, colors, cfg.max_color)
                moves["regrows"] += 1
                temp = 0.6
                stagnant = 0
        if pen < best_pen:
            best_pen = pen
            best_colors = colors.copy()
            history.append((it, pen))
            stagnant = 0
            done = snapshot_if_done()
            if done is not None:
                return done

    best = {lab: int(c) for lab, c in zip(ctx.labels, best_colors)}
    return outcome(best, None, best_pen)


def _outcome_key(out: SearchOutcome):
    bound = out.certified_bound if out.certified_bound is not None else math.inf
    return (bound, out.penalty, out.seed)


def search_certified_coloring(cfg: SearchConfig, threads: int = 1) -> SearchOutcome:
    """Run `cfg.restarts` independent annealing runs with derived seeds and
    return the best outcome; any zero-penalty candidate is confirmed by the
    full certifier before being reported as certified.  Raises ValueError
    when `cfg.max_color` exceeds the block's vertex count."""
    ctx = _Context(cfg.family, cfg.m, cfg.base)
    if cfg.max_color > ctx.n:
        # the own-color table has one column per color; a block never
        # needs more colors than vertices
        raise ValueError(f"max_color {cfg.max_color} exceeds the block's"
                         f" {ctx.n} vertices")
    seeds = [cfg.seed + r for r in range(cfg.restarts)]
    if threads > 1 and cfg.restarts > 1:
        with ProcessPoolExecutor(max_workers=min(threads, cfg.restarts)) as pool:
            outcomes = list(pool.map(_run_restart, [ctx] * len(seeds),
                                     [cfg] * len(seeds), seeds))
    else:
        outcomes = [_run_restart(ctx, cfg, s) for s in seeds]
    return min(outcomes, key=_outcome_key)
