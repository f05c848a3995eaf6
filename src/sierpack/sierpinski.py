"""Generators for Sierpinski-type graphs.

Three families share one labelling scheme over digit words:

* S^n_k      : classic Sierpinski graph, k copies of S^{n-1}_k joined at
               extreme vertices.
* S^n_G      : generalized variant; copies are joined only along edges of a
               base graph G on digits 0..k-1.
* ST^n_3     : Sierpinski triangle (gasket) graph, obtained from S^{n+1}_3 by
               contracting every linking edge.  Vertex labels are the
               lexicographically smallest word of each contracted class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graph_core import Graph, GraphError, build_graph

DIGITS = "0123456789"


class UnknownName(GraphError):
    pass


class DimensionOutOfRange(GraphError):
    pass


class InvalidBaseGraph(GraphError):
    pass


_MAX_GENERALIZED_N = 12
_MAX_TRIANGLE_N = 9
_MAX_VERTICES = 20_000_000  # hard memory guard


@dataclass(frozen=True)
class BaseGraph:
    """Connected base graph on digit vertices 0..k-1, 2 <= k <= 10."""

    name: str
    k: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not 2 <= self.k <= 10:
            raise InvalidBaseGraph(f"base order {self.k} outside 2..10")
        deg = [0] * self.k
        adj: list[set[int]] = [set() for _ in range(self.k)]
        for x, y in self.edges:
            if not (0 <= x < self.k and 0 <= y < self.k) or x == y:
                raise InvalidBaseGraph(f"bad base edge ({x}, {y})")
            if y not in adj[x]:
                adj[x].add(y)
                adj[y].add(x)
                deg[x] += 1
                deg[y] += 1
        if min(deg) < 1:
            raise InvalidBaseGraph(f"base vertex of degree 0 would disconnect S^n_{self.name}")
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != self.k:
            raise InvalidBaseGraph(f"base graph {self.name} is not connected")


def _sorted_edges(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


_LIBRARY = {
    # canonical digit numberings; C4 leaves {0,2} and {1,3} non-adjacent,
    # K13 has its center at 1, K4E lacks {0,2}, PAW = triangle {1,2,3} + leaf 0
    # (so that PAW is a subgraph of K4E and K3-on-{1,2,3} a subgraph of PAW).
    "C4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "K13": (4, [(0, 1), (1, 2), (1, 3)]),
    "K4E": (4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "PAW": (4, [(0, 1), (1, 2), (1, 3), (2, 3)]),
}


def base_graph_library(name: str) -> BaseGraph:
    """Named base graphs: K4, C4, P4, K13 (star), K4E (= K4 - e), PAW, or Kk
    for any complete graph K2..K10."""
    key = name.upper()
    if key in _LIBRARY:
        k, edges = _LIBRARY[key]
        return BaseGraph(key, k, _sorted_edges(edges))
    if key.startswith("K") and key[1:].isdigit():
        k = int(key[1:])
        if 2 <= k <= 10:
            return BaseGraph(key, k, _sorted_edges(
                (x, y) for x in range(k) for y in range(x + 1, k)))
    raise UnknownName(f"no base graph named {name!r}")


def _check_size(n: int, k: int, n_max: int) -> None:
    if not 1 <= n <= n_max:
        raise DimensionOutOfRange(f"dimension {n} outside 1..{n_max}")
    if k ** n > _MAX_VERTICES:
        raise DimensionOutOfRange(f"{k}^{n} vertices exceeds the {_MAX_VERTICES} guard")


def gen_generalized(n: int, g: BaseGraph) -> Graph:
    """Generalized Sierpinski graph S^n_G on all k^n digit words.

    For every prefix w and base edge {x, y} there is an edge
    {w x y^(n-|w|-1), w y x^(n-|w|-1)}; with |w| = n-1 these are the
    within-block copies of G, shorter prefixes give the linking edges.
    """
    _check_size(n, g.k, _MAX_GENERALIZED_N)
    digits = DIGITS[:g.k]
    labels = ["".join(w) for w in product(digits, repeat=n)]
    edges = []
    for t in range(n):
        tail = n - t - 1
        for w in product(digits, repeat=t):
            p = "".join(w)
            for x, y in g.edges:
                dx, dy = digits[x], digits[y]
                edges.append((p + dx + dy * tail, p + dy + dx * tail))
    return build_graph(labels, edges)


def gen_sierpinski(n: int, k: int) -> Graph:
    """Classic S^n_k; identical labels and edges to gen_generalized(n, Kk)."""
    return gen_generalized(n, base_graph_library(f"K{k}"))


def linking_partner(word: str) -> str | None:
    """The unique word merged with `word` when contracting linking edges of
    S^len_3 (or any S^len_k): swap the digit before the final constant run
    with the run digit.  Constant words (extremes) have no partner."""
    last = word[-1]
    s = len(word)
    run = 0
    while run < s and word[s - 1 - run] == last:
        run += 1
    if run == s:
        return None
    x = word[s - 1 - run]
    return word[: s - 1 - run] + last + x * run


def triangle_canonical(word: str) -> str:
    """Canonical label of the contracted class containing `word`."""
    p = linking_partner(word)
    return word if p is None or word < p else p


def gen_triangle(n: int) -> Graph:
    """Sierpinski triangle graph ST^n_3: contract all linking edges of S^{n+1}_3."""
    if not 0 <= n <= _MAX_TRIANGLE_N:
        raise DimensionOutOfRange(f"dimension {n} outside 0..{_MAX_TRIANGLE_N}")
    m = n + 1
    digits = DIGITS[:3]
    labels_set = set()
    for w in product(digits, repeat=m):
        labels_set.add(triangle_canonical("".join(w)))
    labels = sorted(labels_set)
    edges = set()
    for w in product(digits, repeat=m - 1):
        p = "".join(w)
        # each bottom-level block is a triangle; its edges survive contraction
        a, b, c = (triangle_canonical(p + d) for d in digits)
        edges.update({(a, b), (a, c), (b, c)})
    return build_graph(labels, sorted(edges))


def gen_triangle_recursive(n: int) -> Graph:
    """ST^n_3 by gluing three ST^{n-1}_3 copies at identified corners.

    Produces exactly the labels of gen_triangle: copy i prefixes its digit,
    and the identified pair {i j^n, j i^n} keeps the smaller word.
    """
    if not 0 <= n <= _MAX_TRIANGLE_N:
        raise DimensionOutOfRange(f"dimension {n} outside 0..{_MAX_TRIANGLE_N}")
    if n == 0:
        return build_graph(["0", "1", "2"], [("0", "1"), ("0", "2"), ("1", "2")])
    prev = gen_triangle_recursive(n - 1)
    rename: dict[str, str] = {}
    for i in "012":
        for lab in prev.labels:
            rename[i + lab] = i + lab
    for i, j in (("0", "1"), ("0", "2"), ("1", "2")):
        a, b = i + j * n, j + i * n
        keep = min(a, b)
        rename[a] = keep
        rename[b] = keep
    labels = sorted(set(rename.values()))
    edges = set()
    for i in "012":
        for a, b in prev.edges():
            ra, rb = rename[i + a], rename[i + b]
            edges.add((ra, rb) if ra <= rb else (rb, ra))
    return build_graph(labels, sorted(edges))


def extreme_vertices(family: str, n: int, base: BaseGraph | None = None) -> list[str]:
    """Extreme vertices: the k words i^n of S^n_base ("generalized"; the
    classic S^n_k is the base Kk) or the three degree-2 corner classes
    i^{n+1} of ST^n_3 ("triangle", no base)."""
    if family == "triangle":
        if n < 0:
            raise DimensionOutOfRange(f"triangle dimension {n} negative")
        return [d * (n + 1) for d in "012"]
    if family == "generalized":
        if base is None:
            raise UnknownName("generalized family needs a base graph")
        if n < 1:
            raise DimensionOutOfRange(f"dimension {n} below 1")
        return [DIGITS[i] * n for i in range(base.k)]
    raise UnknownName(f"unknown family {family!r}")


def block_vertices(prefix: str, n: int, k: int) -> set[str]:
    """All k^(n-|prefix|) labels of the block wS^{n-|w|}: words starting with w."""
    if len(prefix) > n:
        raise DimensionOutOfRange(f"prefix {prefix!r} longer than dimension {n}")
    digits = DIGITS[:k]
    if any(d not in digits for d in prefix):
        raise UnknownName(f"prefix {prefix!r} has digits outside base 0..{k - 1}")
    return {prefix + "".join(t) for t in product(digits, repeat=n - len(prefix))}
