"""The job lists of the three workloads: solve, lift and search.

`build(workload, seed)` makes a workload's inputs from the seed and returns
its jobs.  A job's `run` is the timed call into the library's public API; it
goes through module attributes at call time, so the tracer's wrappers see it.
`counts` reads the exact counts the API returns (B&B nodes, iterations to
certify, certificate dimensions, violation counts), which must repeat
exactly for a seed.  `check` judges the answer outside the timed region and
returns an error message, or None when the answer is right.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from sierpack import _data, _naive, certify, graph_core, packing, search, sierpinski

BUDGET = 300.0  # solver budget per job; a TIMEOUT is a failed job


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    counts: Callable[[Any], dict]
    check: Callable[[Any], str | None]
    rate: bool = False  # a fixed-iteration restart that feeds iters_per_s
    repeats: int = 1  # runs per pass; its latency is the median


def _short(jobs):
    """Fixed jobs of a few milliseconds run three times, at seeded places spread
    over the pass, so that one slow moment of a noisy host does not set their
    time."""
    for job in jobs:
        job.repeats = 3
    return jobs


def _fail(ok: bool, message: str) -> str | None:
    return None if ok else message


# --------------------------------------------------------------- answer checks

def _bad_witness(g, witness, k, required=None) -> str | None:
    """Re-verify a SAT witness and its constraints."""
    report = packing.verify_packing_coloring(g, witness)
    if not report.ok:
        return f"witness invalid: {report.violations[:1]} uncolored {report.uncolored[:1]}"
    if packing.max_color(witness) > k:
        return f"witness uses color {packing.max_color(witness)} > {k}"
    for lab, col in (required or {}).items():
        if witness[lab] != col:
            return f"witness gives {lab} color {witness[lab]}, {col} was required"
    return None


def _distance(g, u, v, limit):
    """Plain BFS distance from u to v, or None beyond `limit`."""
    seen = {u: 0}
    queue = deque([u])
    while queue:
        a = queue.popleft()
        if a == v:
            return seen[a]
        if seen[a] < limit:
            for b in g.neighbors(a):
                if b not in seen:
                    seen[b] = seen[a] + 1
                    queue.append(b)
    return None


# ----------------------------------------------------------------- solve jobs

def _chi_job(name, g, expect):
    """chi_rho(g) must be EXACT with a valid witness and equal `expect`: a
    number, a function of g (the brute-force oracle), or None (unknown)."""
    def check(r):
        want = expect(g) if callable(expect) else expect
        if r.status != packing.EXACT or r.lower != r.upper or want not in (None, r.upper):
            return f"chi_rho {r.status} {r.lower}..{r.upper}, want {want}"
        return _bad_witness(g, r.witness, r.upper)
    return Job(name, lambda: packing.chi_rho(g, budget=BUDGET),
               lambda r: {"status": r.status, "value": r.upper,
                          "nodes": r.nodes_explored}, check)


def _decide_job(name, g, k, sat, required=None):
    constraints = packing.ColorConstraints(required=required or {})

    def check(r):
        want = packing.SAT if sat else packing.UNSAT
        if r.status != want:
            return f"decide k={k}: {r.status}, want {want}"
        return _bad_witness(g, r.witness, k, required) if sat else None
    return Job(name, lambda: packing.is_packing_k_colorable(
        g, k, constraints=constraints, budget=BUDGET),
        lambda r: {"status": r.status, "nodes": r.nodes_explored}, check)


# exact values of the reproduce suite: (family, base or k, n, chi_rho)
SMALL_VALUES = (
    [("sierpinski", k, 1, k) for k in range(2, 7)]
    + [("generalized", b, n, v) for b, n, v in (
        ("C4", 1, 3), ("C4", 2, 4), ("P4", 1, 3), ("P4", 2, 4), ("K13", 1, 2),
        ("K13", 2, 3), ("K4E", 2, 6), ("PAW", 1, 3))]
    + [("triangle", None, n, v) for n, v in ((0, 3), (1, 4), (2, 8))]
)


def _family(family, base, n):
    if family == "sierpinski":
        return sierpinski.gen_sierpinski(n, base)
    if family == "generalized":
        return sierpinski.gen_generalized(n, sierpinski.base_graph_library(base))
    return sierpinski.gen_triangle(n)


def _side3():
    """The 24-vertex side graph 3S^2 + 03S^1 + 23S^1 inside S^3 over K4-e."""
    s3 = _family("generalized", "K4E", 3)
    keep = ([f"3{a}{b}" for a in "0123" for b in "0123"]
            + [f"03{a}" for a in "0123"] + [f"23{a}" for a in "0123"])
    return graph_core.induced_subgraph(s3, keep)


def _random_graphs(rng, sizes=range(4, 10), bins=75):
    """Connected G(n, p) graphs, one per (n, p-bin): the mix of sizes and
    densities is the same for every seed, only the draws differ."""
    out = []
    for n in sizes:
        labels = [f"v{i}" for i in range(n)]
        for b in range(bins):
            while True:
                p = 0.15 + 0.7 * (b + rng.random()) / bins
                edges = [(labels[i], labels[j]) for i in range(n)
                         for j in range(i + 1, n) if rng.random() < p]
                g = graph_core.build_graph(labels, edges)
                if len(graph_core.bfs_distances(g, labels[0])) == n:
                    out.append(g)
                    break
    return out


def _solve(rng):
    jobs = [_chi_job(f"chi.{fam}.{'' if base is None else base}.n{n}",
                     _family(fam, base, n), v)
            for fam, base, n, v in SMALL_VALUES]
    jobs.append(_decide_job("unsat.h", _data.load_graph("h.graph"), 4, False))
    jobs.append(_decide_job("unsat.hprime", _data.load_graph("hprime.graph"), 3, False))
    side = _side3()
    jobs.append(_decide_job("side3.k6", side, 6, False))
    jobs.append(_decide_job("side3.k7", side, 7, True))
    st2 = _family("triangle", None, 2)
    jobs.append(_decide_job("st2.k7", st2, 7, False))
    jobs.append(_decide_job("s2_4.k11", _family("sierpinski", 4, 2), 11, True))
    # --require decisions on ST^2: pinning vertices to the colors of the
    # shipped 8-coloring keeps k=8 SAT; any pin leaves k=7 UNSAT (chi = 8)
    fig14 = _data.load_coloring("fig14_st2.coloring")
    for _ in range(5):
        v, w = rng.sample(st2.labels, 2)
        jobs.append(_decide_job(f"st2.k8.req.{v}.{w}", st2, 8, True,
                                {v: fig14[v], w: fig14[w]}))
        v, c = rng.choice(st2.labels), rng.randint(1, 7)
        jobs.append(_decide_job(f"st2.k7.req.{v}={c}", st2, 7, False, {v: c}))
    # many graphs, so that the latency quantiles do not hang on a few draws;
    # brute force costs ~60 ms a graph at n = 9, so it checks a slice
    for i, g in enumerate(_random_graphs(rng)):
        oracle = i % (5 if g.n == 9 else 2) == 0
        jobs.append(_chi_job(f"random.{i}.n{g.n}", g,
                             _naive.naive_chi_rho if oracle else None))
    return jobs


# ------------------------------------------------------------------ lift jobs

def _cert_counts(r):
    return {"status": r.status, "max_dimension": r.max_dimension,
            "refuted_dimension": r.refuted_dimension,
            "violation": list(r.violation) if r.violation else None}


def _cert_job(name, base, m, block, depth=certify.DEFAULT_EMPIRICAL_DEPTH):
    """A block that certifies, with a clean backstop through m + depth."""
    def check(r):
        return _fail(r.status == certify.CERTIFIED and r.max_dimension == m + depth,
                     f"{r.status} depth {r.max_dimension}, want CERTIFIED at {m + depth}")
    return Job(name, lambda: certify.certify_generalized_tiling(
        base, m, block, empirical_depth=depth), _cert_counts, check)


def _verify_tiling(base, m, block, n):
    tiled = certify.tile_coloring("generalized", m, block, n, base=base)
    return packing.verify_packing_coloring(sierpinski.gen_generalized(n, base), tiled)


def _tile_job(name, base, m, block, n):
    return Job(name, lambda: _verify_tiling(base, m, block, n),
               lambda r: {"violations": len(r.violations)},
               lambda r: _fail(r.ok, f"tiling invalid: {r.violations[:1]}"))


def _greedy_cert_job(name, base, m, block):
    """Certify a greedy block; a refutation is re-checked on the tiled graph
    with a plain BFS, anything else by verifying the tiling at m+1."""
    def check(r):
        if r.status != certify.REFUTED:
            return _fail(_verify_tiling(base, m, block, m + 1).ok,
                         f"{r.status} but the m+1 tiling is invalid")
        n = r.refuted_dimension
        c, u, v, d = r.violation
        tiled = certify.tile_coloring("generalized", m, block, n, base=base)
        g = sierpinski.gen_generalized(n, base)
        ok = (tiled[u] == tiled[v] == c and u != v and d <= c
              and _distance(g, u, v, c) == d)
        return _fail(ok, f"refutation {r.violation} at {n} does not hold")
    return Job(name, lambda: certify.certify_generalized_tiling(base, m, block),
               _cert_counts, check)


def _diameter_job(name, g, expect):
    return Job(name, lambda: graph_core.diameter(g), lambda d: {"value": d},
               lambda d: _fail(d == expect, f"diameter {d}, want {expect}"))


def _verify_job(name, g, coloring, top):
    return Job(name, lambda: packing.verify_packing_coloring(g, coloring),
               lambda r: {"violations": len(r.violations)},
               lambda r: _fail(r.ok and packing.max_color(coloring) == top,
                               f"invalid or top color != {top}: {r.violations[:1]}"))


# shipped colorings of the reproduce suite: (file, family, base or k, n, top color)
SHIPPED = (
    ("fig5_s3c4", "generalized", "C4", 3, 5),
    ("fig7_s2k13", "generalized", "K13", 2, 3),
    ("fig10_s2k4e", "generalized", "K4E", 2, 6),
    ("fig11_s3k4e", "generalized", "K4E", 3, 8),
    ("fig13_st1", "triangle", None, 1, 4),
    ("fig14_st2", "triangle", None, 2, 8),
)


def _lift(rng):
    lib = sierpinski.base_graph_library
    jobs = _short([_verify_job(f"verify.{name}", _family(fam, base, n),
                               _data.load_coloring(f"{name}.coloring"), top)
                   for name, fam, base, n, top in SHIPPED])
    for tag, base, m in (("fig5", "C4", 3), ("fig7", "K13", 2)):
        block = _data.load_coloring(f"{tag}_s{m}{base.lower()}.coloring")
        jobs += _short([_cert_job(f"cert.{tag}", lib(base), m, block)]
                       + [_tile_job(f"tile.{tag}.n{n}", lib(base), m, block, n)
                          for n in (m + 1, m + 2)])
    jobs.append(_verify_job("verify.eleven", _family("generalized", "K4E", 5),
                            certify.build_k4e_eleven_coloring(), 11))
    jobs.append(_cert_job("cert.eleven.depth1", lib("K4E"), 5,
                          certify.build_k4e_eleven_coloring(), depth=1))
    for base, m, copies in (("K4E", 4, 2), ("C4", 4, 2), ("P4", 4, 2),
                            ("K4", 3, 1), ("PAW", 3, 1)):
        g = sierpinski.gen_generalized(m, lib(base))
        for _ in range(copies):
            s = rng.randrange(10 ** 6)
            block = packing.greedy_packing_coloring(g, seed=s)
            jobs.append(_greedy_cert_job(f"cert.greedy.{base}.m{m}.s{s}",
                                         lib(base), m, block))
    jobs.append(_diameter_job("diameter.s5_5", sierpinski.gen_sierpinski(5, 5), 31))
    jobs.append(_diameter_job("diameter.st7", sierpinski.gen_triangle(7), 128))
    return jobs


# ---------------------------------------------------------------- search jobs

def _search_job(name, cfg, bound=None, rate=False, repeats=1):
    """bound: the certified bound the run must reach.  Without a
    certificate, the reported penalty is re-evaluated from scratch."""
    def counts(out):
        done = (out.history[-1][0] if out.certified_bound is not None
                else cfg.iterations)
        return {"certified_bound": out.certified_bound, "penalty": out.penalty,
                "history": [list(h) for h in out.history], "iterations": done}

    def check(out):
        if bound is not None and (out.certified_bound is None
                                  or out.certified_bound > bound):
            return f"certified bound {out.certified_bound}, want <= {bound}"
        if out.certified_bound is not None:
            g = (sierpinski.gen_triangle(cfg.m) if cfg.family == "triangle"
                 else sierpinski.gen_generalized(cfg.m, cfg.base))
            return _bad_witness(g, out.best, out.certified_bound)
        pen = search.penalty(cfg.family, cfg.m, out.best, base=cfg.base)
        ok = pen == out.penalty and packing.max_color(out.best) <= cfg.max_color
        return _fail(ok, f"reported penalty {out.penalty}, re-evaluated {pen}")
    return Job(name, lambda: search.search_certified_coloring(cfg, threads=1),
               counts, check, rate, repeats)


def rate_restart(repeats):
    """The restart behind iters_per_s: ST^5 (366 vertices), 30 colors, 20k
    iterations.  Its seed is fixed: the cost of a move depends on the
    trajectory, by about 15% from seed to seed.  It runs several times and its
    median time counts."""
    return _search_job("rate.st5.c30.i20000",
                       search.SearchConfig(family="triangle", m=5, max_color=30,
                                           seed=1, iterations=20_000),
                       rate=True, repeats=repeats)


def _search(rng):
    jobs = [
        _search_job("search.replay.st5.c31.s32",
                    search.SearchConfig(family="triangle", m=5, max_color=31,
                                        seed=32, iterations=500_000), bound=31),
        _search_job("search.tier.st5.c33.s5",
                    search.SearchConfig(family="triangle", m=5, max_color=33,
                                        seed=5, iterations=60_000), bound=33),
    ]
    s = rng.randrange(10 ** 6)
    jobs.append(_search_job(  # a seeded restart that does not certify
        f"restart.s3_k4e.c8.s{s}",
        search.SearchConfig(family="generalized", m=3, max_color=8, seed=s,
                            base=sierpinski.base_graph_library("K4E"),
                            iterations=20_000)))
    jobs.append(rate_restart(4))
    return jobs


JOB_LISTS = {"solve": _solve, "lift": _lift, "search": _search}


def warm_up() -> None:
    """One small call into each layer, so that lazy imports and first-call
    costs land in set-up rather than in the first timed job."""
    packing.chi_rho(_family("generalized", "C4", 2))
    certify.certify_generalized_tiling(
        sierpinski.base_graph_library("K13"), 2,
        _data.load_coloring("fig7_s2k13.coloring"), empirical_depth=1)
    graph_core.diameter(sierpinski.gen_triangle(3))
    search.search_certified_coloring(search.SearchConfig(
        family="triangle", m=2, max_color=10, iterations=500), threads=1)


def build(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = JOB_LISTS[workload](rng)
    if workload != "search":
        # so that iters_per_s exists on every workload
        jobs.append(rate_restart(2))
    return jobs


def schedule(jobs: list[Job], seed: int) -> list[int]:
    """Job indices, each as often as the job repeats, in a seeded order: the
    runs of a job spread over the whole pass."""
    order = [i for i, job in enumerate(jobs) for _ in range(job.repeats)]
    random.Random(seed).shuffle(order)
    return order
