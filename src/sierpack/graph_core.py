"""Shared graph substrate: labelled graphs, BFS metric queries, embeddings, file I/O.

Vertices carry string labels.  Internally a graph is stored as a CSR-style
adjacency over dense integer indices so that BFS sweeps can be vectorized
with numpy; everything user-facing speaks labels.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

UNREACHABLE = 0xFFFF  # sentinel distance, also caps usable graphs at diameter < 65535


class GraphError(Exception):
    """Base class for errors raised by this package's graph layer."""


class UnknownLabel(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class DuplicateLabel(GraphError):
    pass


class DisconnectedGraph(GraphError):
    pass


class IncompleteMap(GraphError):
    pass


class TooLarge(GraphError):
    pass


class FormatError(GraphError):
    """Malformed line in a graph/coloring/map text file.  Carries the line number."""


class Graph:
    """Immutable undirected simple graph with ordered string labels.

    Label order is the construction order.  Adjacency lists are kept sorted
    by vertex index.  Duplicate edges collapse silently; self loops and
    duplicate labels are construction errors.
    """

    __slots__ = ("labels", "_index", "_adj", "_indptr", "_indices", "_edge_count")

    def __init__(self, labels: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.labels: tuple[str, ...] = tuple(labels)
        self._index: dict[str, int] = {}
        for i, lab in enumerate(self.labels):
            if lab in self._index:
                raise DuplicateLabel(f"vertex label {lab!r} appears twice")
            self._index[lab] = i
        n = len(self.labels)
        nbr_sets: list[set[int]] = [set() for _ in range(n)]
        count = 0
        for a, b in edges:
            if a not in self._index:
                raise UnknownLabel(f"edge endpoint {a!r} is not a vertex")
            if b not in self._index:
                raise UnknownLabel(f"edge endpoint {b!r} is not a vertex")
            if a == b:
                raise SelfLoop(f"self loop at {a!r}")
            ia, ib = self._index[a], self._index[b]
            if ib not in nbr_sets[ia]:
                nbr_sets[ia].add(ib)
                nbr_sets[ib].add(ia)
                count += 1
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in nbr_sets)
        self._edge_count = count
        # CSR arrays for the vectorized BFS kernel
        indptr = np.zeros(n + 1, dtype=np.int64)
        for i, nbrs in enumerate(self._adj):
            indptr[i + 1] = indptr[i] + len(nbrs)
        indices = np.empty(indptr[-1], dtype=np.int32)
        for i, nbrs in enumerate(self._adj):
            indices[indptr[i]:indptr[i + 1]] = nbrs
        self._indptr = indptr
        self._indices = indices

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"no vertex labelled {label!r}") from None

    def has_vertex(self, label: str) -> bool:
        return label in self._index

    def neighbors(self, label: str) -> tuple[str, ...]:
        return tuple(self.labels[j] for j in self._adj[self.index(label)])

    def neighbor_indices(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def degree(self, label: str) -> int:
        return len(self._adj[self.index(label)])

    def edges(self) -> list[tuple[str, str]]:
        """All edges as label pairs, each pair sorted, list sorted."""
        out = []
        for i, nbrs in enumerate(self._adj):
            for j in nbrs:
                if i < j:
                    a, b = self.labels[i], self.labels[j]
                    out.append((a, b) if a <= b else (b, a))
        out.sort()
        return out

    def has_edge(self, a: str, b: str) -> bool:
        ia, ib = self.index(a), self.index(b)
        return ib in self._adj[ia]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return set(self.labels) == set(other.labels) and set(self.edges()) == set(other.edges())

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._edge_count})"


def build_graph(labels: Iterable[str], edges: Iterable[tuple[str, str]]) -> Graph:
    """Construct a graph from a label list and an edge list."""
    return Graph(labels, edges)


def _bfs_fill(g: Graph, source: int, depth_limit: int | None = None) -> np.ndarray:
    """Distance array from one source; -1 marks not reached (or beyond the limit)."""
    n = g.n
    dist = np.full(n, -1, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int32)
    indptr, indices = g._indptr, g._indices
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


def bfs_distances(g: Graph, source: str, depth_limit: int | None = None) -> dict[str, int]:
    """Distances from `source` by label.  Vertices beyond `depth_limit` (or
    unreachable) are simply absent from the result."""
    dist = _bfs_fill(g, g.index(source), depth_limit)
    labels = g.labels
    return {labels[i]: int(d) for i, d in enumerate(dist) if d >= 0}


@dataclass(frozen=True)
class DistanceMatrix:
    """Dense all-pairs distance table.  `UNREACHABLE` marks disconnected pairs."""

    labels: tuple[str, ...]
    matrix: np.ndarray  # uint16, shape (n, n)
    index: Mapping[str, int] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.labels)

    def distance(self, a: str, b: str) -> int:
        try:
            return int(self.matrix[self.index[a], self.index[b]])
        except KeyError as exc:
            raise UnknownLabel(f"no vertex labelled {exc.args[0]!r}") from None

    def connected(self) -> bool:
        return not (self.matrix == UNREACHABLE).any()


_ALL_PAIRS_LIMIT = 5000


def all_pairs_distances(g: Graph, limit: int = _ALL_PAIRS_LIMIT) -> DistanceMatrix:
    """Materialize the full distance matrix.  Refuses graphs above `limit`
    vertices; metric queries on larger graphs should go through bounded BFS."""
    n = g.n
    if n > limit:
        raise TooLarge(f"all-pairs table for {n} vertices exceeds the {limit} vertex limit")
    mat = np.full((n, n), UNREACHABLE, dtype=np.uint16)
    for s in range(n):
        dist = _bfs_fill(g, s)
        reached = dist >= 0
        mat[s, reached] = dist[reached].astype(np.uint16)
    return DistanceMatrix(labels=g.labels, matrix=mat, index=g._index)


def diameter(g: Graph) -> int:
    """Exact diameter via double sweep plus the iFUB level-pruning scheme.

    Typically needs a handful of BFS runs on the self-similar graphs built
    here, against n for the naive approach.
    """
    n = g.n
    if n == 0:
        raise DisconnectedGraph("diameter of the empty graph is undefined")
    d0 = _bfs_fill(g, 0)
    if (d0 < 0).any():
        raise DisconnectedGraph("graph is not connected")
    if n == 1:
        return 0
    a = int(d0.argmax())
    da = _bfs_fill(g, a)
    b = int(da.argmax())
    lb = int(da[b])
    db = _bfs_fill(g, b)
    lb = max(lb, int(db.max()))
    # root near the a-b midpoint: minimizes levels, tightens the 2*level bound
    half = (da[b] + 1) // 2
    on_path = np.flatnonzero((da + db) == da[b])
    root = int(on_path[np.abs(da[on_path] - half).argmin()])
    dr = _bfs_fill(g, root)
    ecc_r = int(dr.max())
    lb = max(lb, ecc_r)
    order = np.argsort(dr)[::-1]  # deepest levels first
    for v in order:
        lvl = int(dr[v])
        if 2 * lvl <= lb:
            break  # no deeper vertex can witness anything beyond lb
        lb = max(lb, int(_bfs_fill(g, int(v)).max()))
    return lb


def induced_subgraph(g: Graph, keep: Iterable[str]) -> Graph:
    """Subgraph induced by `keep`, preserving g's label order."""
    keep_set = set(keep)
    for lab in keep_set:
        if not g.has_vertex(lab):
            raise UnknownLabel(f"no vertex labelled {lab!r}")
    labels = [lab for lab in g.labels if lab in keep_set]
    lset = set(labels)
    edges = [(a, b) for a, b in g.edges() if a in lset and b in lset]
    return Graph(labels, edges)


@dataclass(frozen=True)
class EmbeddingMap:
    """Injective vertex map used to claim `h` is a subgraph of `g`."""

    pairs: Mapping[str, str]

    def __post_init__(self):
        images = list(self.pairs.values())
        if len(set(images)) != len(images):
            dup = next(x for x in images if images.count(x) > 1)
            raise DuplicateLabel(f"map sends two vertices to {dup!r}")

    def __getitem__(self, label: str) -> str:
        return self.pairs[label]


@dataclass(frozen=True)
class EmbeddingCheck:
    """Outcome of an embedding verification: ok, or the first edge whose image
    is missing, together with that image pair."""

    ok: bool
    failed_edge: tuple[str, str] | None = None
    failed_image: tuple[str, str] | None = None


def verify_subgraph_embedding(h: Graph, g: Graph, m: EmbeddingMap) -> EmbeddingCheck:
    """Check that `m` maps every edge of `h` onto an edge of `g`.

    The map must cover all of V(h) and land inside V(g); those are usage
    errors, not verification failures.
    """
    missing = [lab for lab in h.labels if lab not in m.pairs]
    if missing:
        raise IncompleteMap(f"map does not cover {missing[:5]!r}")
    for lab in h.labels:
        if not g.has_vertex(m[lab]):
            raise UnknownLabel(f"map image {m[lab]!r} is not a vertex of the host")
    for a, b in h.edges():
        ma, mb = m[a], m[b]
        if not g.has_edge(ma, mb):
            return EmbeddingCheck(ok=False, failed_edge=(a, b), failed_image=(ma, mb))
    return EmbeddingCheck(ok=True)


# ---------------------------------------------------------------------------
# text formats
#
# graph file:    '# comment' / 'v <label>' / 'e <label> <label>'
# map file:      '# comment' / '<domain label> <image label>'
# writers emit vertices sorted by label and edges in lexicographic order,
# so files are diff-stable.

def format_graph_text(g: Graph) -> str:
    lines = [f"v {lab}" for lab in sorted(g.labels)]
    lines += [f"e {a} {b}" for a, b in g.edges()]
    return "\n".join(lines) + "\n"


def text_records(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, raw line, fields) of each line that is neither blank nor
    a '#' comment: the shared skeleton of the graph, map and coloring files."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            yield lineno, raw, parts


def parse_graph_text(text: str) -> Graph:
    labels: list[str] = []
    edges: list[tuple[str, str]] = []
    for lineno, raw, parts in text_records(text):
        if parts[0] == "v" and len(parts) == 2:
            labels.append(parts[1])
        elif parts[0] == "e" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise FormatError(f"line {lineno}: expected 'v <label>' or 'e <a> <b>', got {raw!r}")
    return Graph(labels, edges)


def read_graph(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def write_graph(path, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph_text(g))


def format_map_text(m: EmbeddingMap) -> str:
    return "\n".join(f"{a} {b}" for a, b in sorted(m.pairs.items())) + "\n"


def parse_map_text(text: str) -> EmbeddingMap:
    pairs: dict[str, str] = {}
    for lineno, raw, parts in text_records(text):
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected '<from> <to>', got {raw!r}")
        if parts[0] in pairs:
            raise DuplicateLabel(f"line {lineno}: {parts[0]!r} mapped twice")
        pairs[parts[0]] = parts[1]
    return EmbeddingMap(pairs=pairs)


def read_map(path) -> EmbeddingMap:
    with open(path, encoding="utf-8") as fh:
        return parse_map_text(fh.read())


def write_map(path, m: EmbeddingMap) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_map_text(m))
