"""Shared graph substrate: labelled graphs, BFS metric queries, embeddings, file I/O.

Vertices carry string labels.  Internally a graph is stored over dense
integer indices as a slot-major padded adjacency (the ELL/HYB layout of
Bell & Garland, SC 2009), and every distance query runs on one kernel,
`_sweep`: a bit-parallel multi-source BFS (MS-BFS, Then et al., PVLDB 2014)
that advances up to `_BATCH` sources one level per numpy pass, one bit per
source, by ORing one gather per neighbor slot.  All-pairs distances, the
exact diameter, single-source BFS and the packing verifier are built on
it.  Whole distance rows come out of `_rows`, which keeps each distance
bit-sliced across a few word planes during the sweep and unpacks them once
per batch; the verifier reads only its own rows of each level.
Everything user-facing speaks labels.
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

    __slots__ = ("labels", "_index", "_adj", "_ell", "_tail", "_edge_count")

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
        # Slot-major padded adjacency for the BFS kernel (ELL/HYB, Bell &
        # Garland, SC 2009): slot j of column i is i's j-th neighbor, or n,
        # the kernel's all-zero pad row.  The width is the maximum degree
        # unless padding to it would more than double the CSR size; then it
        # is the median degree, and the neighbors past it go to a short CSR
        # tail (rows, segment starts, neighbors), so that a star does not
        # pad to n * n
        degrees = sorted(map(len, self._adj))
        width = degrees[-1] if n else 0
        if width * n > 2 * (2 * count + n):
            width = degrees[n // 2]
        ell = self._ell = np.full((width, n), n, dtype=np.intp)
        tail_rows, tail_starts, tail_nbrs = [], [], []
        for i, nbrs in enumerate(self._adj):
            ell[:len(nbrs), i] = nbrs[:width]
            if len(nbrs) > width:
                tail_rows.append(i)
                tail_starts.append(len(tail_nbrs))
                tail_nbrs += nbrs[width:]
        self._tail = (np.array(tail_rows, dtype=np.intp), np.array(tail_starts, dtype=np.intp),
                      np.array(tail_nbrs, dtype=np.intp)) if tail_rows else None

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


_BATCH = 256  # sources per sweep: four uint64 words per vertex and level


def _sweep(g: Graph, sources, depth_limit: int | None = None
           ) -> Iterator[tuple[int, np.ndarray]]:
    """Multi-source BFS from at most `_BATCH` distinct vertex indices.

    Bit j of a vertex's row stands for `sources[j]`.  Yields `(d, reached)`
    for d = 1, 2, ... up to `depth_limit`: `reached` is an (n, words)
    uint64 array whose bit j is set in the rows of the vertices at
    distance exactly d from `sources[j]`.  Stops after the last level
    that reaches anything new.
    """
    n = g.n
    width = len(sources)
    if n == 0 or width == 0:
        return
    src = np.asarray(sources, dtype=np.int64)
    j = np.arange(width)
    front = np.zeros((n + 1, (width + 63) // 64), dtype=np.uint64)  # row n: the pad
    front[src, j // 64] = np.uint64(1) << (j % 64).astype(np.uint64)
    visited = front[:n].copy()
    d = 0
    while depth_limit is None or d < depth_limit:
        reached = np.bitwise_or.reduce(np.take(front, g._ell, axis=0), axis=0)
        if g._tail is not None:
            rows, starts, nbrs = g._tail
            reached[rows] |= np.bitwise_or.reduceat(np.take(front, nbrs, axis=0), starts, axis=0)
        reached &= ~visited
        if not reached.any():
            return
        d += 1
        visited |= reached
        front[:n] = reached
        yield d, reached


def _unpack(words: np.ndarray, width: int) -> np.ndarray:
    """(rows, width) uint8 0/1: bit j of each row of an (rows, words) uint64
    array of `_sweep`."""
    # little-endian words, so that bit j of the row is bit j % 8 of byte j // 8
    data = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(data, axis=1, count=width, bitorder="little")


def _hits(reached: np.ndarray, width: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vertex, source position) of every set bit of one level of `_sweep`,
    read only on `rows`.  Only touched rows are unpacked."""
    reached = reached[rows]
    touched = np.flatnonzero(reached.any(axis=1))
    r, j = np.nonzero(_unpack(reached[touched], width))
    return rows[touched][r], j


def _rows(g: Graph, batch: np.ndarray) -> np.ndarray:
    """(len(batch), n) uint16 distances from each source of `batch`, with
    `UNREACHABLE` where a source never reaches a vertex.

    Bit-sliced (Biham, FSE 1997): plane i, laid out like a level of
    `_sweep`, holds bit i of every distance.  Level d ORs what it reaches
    into the planes of d's one bits, and plane i starts at d = 2**i, so
    each plane is unpacked once per batch, not once per level.  A zero
    off the sources' own cells was never reached.
    """
    planes: list[np.ndarray] = []
    for d, reached in _sweep(g, batch):
        if d == 1 << len(planes):
            planes.append(reached)  # _sweep never reuses a yielded level
        else:
            for i, plane in enumerate(planes):
                if d >> i & 1:
                    plane |= reached
    width = len(batch)
    dist = np.zeros((g.n, width), dtype=np.uint16)
    for i, plane in enumerate(planes):
        dist |= _unpack(plane, width).astype(np.uint16) << i
    dist[dist == 0] = UNREACHABLE
    dist[batch, np.arange(width)] = 0
    return dist.T


def _batches(idx: np.ndarray) -> Iterator[np.ndarray]:
    """`idx` in consecutive slices of at most `_BATCH` sources."""
    for lo in range(0, len(idx), _BATCH):
        yield idx[lo:lo + _BATCH]


def _distances(g: Graph, source: int, depth_limit: int | None = None) -> np.ndarray:
    """Distance array from one source; -1 marks not reached (or beyond the limit)."""
    dist = np.full(g.n, -1, dtype=np.int32)
    dist[source] = 0
    for d, reached in _sweep(g, [source], depth_limit):
        dist[reached[:, 0] != 0] = d
    return dist


def bfs_distances(g: Graph, source: str, depth_limit: int | None = None) -> dict[str, int]:
    """Distances from `source` by label.  Vertices beyond `depth_limit` (or
    unreachable) are simply absent from the result."""
    dist = _distances(g, g.index(source), depth_limit)
    labels = g.labels
    return {labels[i]: int(d) for i, d in enumerate(dist.tolist()) if d >= 0}


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


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Materialize the full distance matrix, `_rows` of one batch of
    sources at a time.  Refuses graphs above `_ALL_PAIRS_LIMIT` vertices;
    metric queries on larger graphs should go through bounded BFS."""
    n = g.n
    if n > _ALL_PAIRS_LIMIT:
        raise TooLarge(f"all-pairs table for {n} vertices exceeds the"
                       f" {_ALL_PAIRS_LIMIT} vertex limit")
    mat = np.empty((n, n), dtype=np.uint16)
    for batch in _batches(np.arange(n)):
        mat[batch[0]:batch[-1] + 1] = _rows(g, batch)
    return DistanceMatrix(labels=g.labels, matrix=mat, index=g._index)


def diameter(g: Graph) -> int:
    """Exact diameter via double sweep plus the iFUB level-pruning scheme
    (Crescenzi et al., TCS 2013).

    The fringe is swept deepest level first in full batches of sources,
    across level boundaries: the eccentricity of a batch, the largest of its
    members', is its number of levels.  Once every vertex left lies within
    level l of the root with 2 * l <= the bound, every pair left lies within
    the bound through the root, so the bound is exact.
    """
    n = g.n
    if n == 0:
        raise DisconnectedGraph("diameter of the empty graph is undefined")
    d0 = _distances(g, 0)
    if (d0 < 0).any():
        raise DisconnectedGraph("graph is not connected")
    if n == 1:
        return 0
    a = int(d0.argmax())
    da = _distances(g, a)
    b = int(da.argmax())
    lb = int(da[b])
    db = _distances(g, b)
    lb = max(lb, int(db.max()))
    # root near the a-b midpoint: minimizes levels, tightens the 2*level bound
    half = (da[b] + 1) // 2
    on_path = np.flatnonzero((da + db) == da[b])
    root = int(on_path[np.abs(da[on_path] - half).argmin()])
    dr = _distances(g, root)
    lb = max(lb, int(dr.max()))
    fringe = np.argsort(-dr, kind="stable")  # deepest levels first
    for batch in _batches(fringe):
        if 2 * dr[batch[0]] <= lb:
            break
        lb = max(lb, sum(1 for _ in _sweep(g, batch[2 * dr[batch] > lb])))
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
# the graph writer emits vertices sorted by label and edges in
# lexicographic order, so graph files are diff-stable.

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


def parse_map_text(text: str) -> EmbeddingMap:
    pairs: dict[str, str] = {}
    for lineno, raw, parts in text_records(text):
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected '<from> <to>', got {raw!r}")
        if parts[0] in pairs:
            raise DuplicateLabel(f"line {lineno}: {parts[0]!r} mapped twice")
        pairs[parts[0]] = parts[1]
    return EmbeddingMap(pairs=pairs)

