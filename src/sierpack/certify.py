"""Certificates that a block coloring lifts to every dimension.

A packing coloring of a dimension-m block can be stamped into every
dimension-m block of a larger graph of the same family.  Within a block
the copy is valid because the block coloring is; the conditions checked
here additionally bound every cross-block distance from below, so a
structural pass proves the tiled coloring is a packing coloring for all
dimensions n >= m.  Independently of the structural outcome, small
tilings are verified exhaustively as a backstop.

The module also houses the lower-bound sequence machinery for complete
base graphs (recurrence, closed form, monotonicity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .graph_core import Graph, all_pairs_distances
from .packing import Coloring, _first_violation
from .sierpinski import (
    BaseGraph,
    UnknownName,
    extreme_vertices,
    gen_generalized,
    gen_triangle,
    triangle_canonical,
)

CERTIFIED = "CERTIFIED"
EMPIRICAL = "EMPIRICAL"
REFUTED = "REFUTED"

DEFAULT_EMPIRICAL_DEPTH = 2


class CertifyError(Exception):
    """Base class for certificate errors."""


class InvalidBlockColoring(CertifyError):
    """The block coloring is not a total, valid packing coloring."""


class CornerColorMismatch(CertifyError):
    """Triangle block corners carry unequal colors; gluing identifies them."""


class BaseTooSmall(CertifyError):
    """The lower-bound recurrence needs base order k >= 4."""


NO_BOUND = 2 ** 15 - 1  # `pair_b` entry of a pair that carries no cross-block condition
_ROWS = 16  # pair_b rows built per slice


@dataclass(frozen=True)
class ConditionTable:
    """Every structural lift condition of one block, indexed like `labels`.

    A color-c class passes iff `pair_d` (within-block distance) and
    `pair_b` (lower bound on the distance between copies in distinct
    blocks) are >= c+1 for every two distinct members, and `single_b`
    (lower bound between two copies of one position) is >= c+1 for every
    member.  `pinned` marks the triangle corners, which gluing identifies
    across blocks.  The arrays are int16, half the memory of int32: signed,
    so `color - array` cannot wrap, and every bound is at most about twice
    a block diameter, which the 5,000-vertex all-pairs limit keeps far
    below NO_BOUND.
    """

    labels: tuple[str, ...]
    pair_d: np.ndarray
    pair_b: np.ndarray
    single_b: np.ndarray
    pinned: np.ndarray


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a lift certificate.

    `margins` maps each used color to its `within`, `pair` and `single`
    slacks against the `ConditionTable` rows (`within` and `pair` only
    where two members carry the condition): slack s means the measured
    bound was color + s, so every slack >= 1 is a structural pass.
    `max_dimension` is the deepest dimension verified exhaustively;
    REFUTED reports carry the offending dimension and a violation
    (color, u, v, distance) re-checkable on the tiled graph.
    """

    status: str
    margins: Mapping[int, Mapping[str, int]]
    max_dimension: Optional[int] = None
    refuted_dimension: Optional[int] = None
    violation: Optional[tuple[int, str, str, int]] = None

    def margin(self, color: int) -> int:
        return min(self.margins[color].values())

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED

    def text_report(self) -> str:
        if self.status == CERTIFIED:
            head = "status CERTIFIED"
        elif self.status == EMPIRICAL:
            head = f"status EMPIRICAL max-dimension {self.max_dimension}"
        else:
            c, u, v, d = self.violation
            head = (f"status REFUTED dimension {self.refuted_dimension} "
                    f"color {c} pair {u} {v} distance {d}")
        lines = [head]
        for color in sorted(self.margins):
            lines.append(f"color {color} margin {self.margin(color)}")
        return "\n".join(lines) + "\n"


def _block_graph(family: str, m: int, base: BaseGraph | None) -> Graph:
    if family == "triangle":
        return gen_triangle(m)
    if family == "generalized":
        if base is None:
            raise UnknownName("generalized family needs a base graph")
        return gen_generalized(m, base)
    raise UnknownName(f"unknown family {family!r}")


def _valid_block(family: str, m: int, block: Coloring,
                 base: BaseGraph | None) -> Graph:
    """The block graph, once `block` is a total, valid packing coloring of
    it that colors the triangle corners equally."""
    if family == "triangle":
        corners = extreme_vertices("triangle", m)
        colors = {e: block[e] for e in corners if e in block}
        if len(colors) == len(corners) and len(set(colors.values())) > 1:
            shown = ", ".join(f"{e}={c}" for e, c in sorted(colors.items()))
            raise CornerColorMismatch(f"corner colors differ: {shown}")
    g = _block_graph(family, m, base)
    uncolored, violation = _first_violation(g, block)
    if uncolored:
        raise InvalidBlockColoring(
            f"{len(uncolored)} uncolored block vertices, first {uncolored[0]!r}")
    if violation:
        c, u, v, d = violation
        raise InvalidBlockColoring(
            f"block pair {u}, {v} shares color {c} at distance {d}")
    return g


def _tiled(family: str, m: int, block: Coloring, n: int,
           base: BaseGraph | None) -> tuple[Graph, dict[str, int]]:
    """The dimension-n graph and the block coloring copied into each of
    its dimension-m blocks."""
    big = _block_graph(family, n, base)
    cut = n - m
    if family == "triangle":
        return big, {lab: block[triangle_canonical(lab[cut:])] for lab in big.labels}
    return big, {lab: block[lab[cut:]] for lab in big.labels}


def tile_coloring(family: str, m: int, block: Coloring, n: int,
                  base: BaseGraph | None = None) -> dict[str, int]:
    """Copy a dimension-m block coloring into every dimension-m block of
    the dimension-n graph.  Triangle blocks must color their three corner
    classes equally, because gluing identifies corners across blocks."""
    if n < m:
        raise ValueError(f"target dimension {n} below block dimension {m}")
    _valid_block(family, m, block, base)
    return _tiled(family, m, block, n, base)[1]


def _conditions(g: Graph, family: str, m: int, base: BaseGraph | None) -> ConditionTable:
    pair_d = all_pairs_distances(g).matrix.astype(np.int16)
    ext = [g.index(e) for e in extreme_vertices(family, m, base)]
    to_ext = pair_d[:, ext]
    pinned = np.zeros(g.n, dtype=bool)
    if family == "triangle":
        pinned[ext] = True
        delta = to_ext.min(axis=1)
        pair_b = delta[:, None] + delta[None, :]
        pair_b[pinned, :] = NO_BOUND
        pair_b[:, pinned] = NO_BOUND
        two_nearest = np.partition(to_ext, 1, axis=1)[:, :2]
        single_b = two_nearest.sum(axis=1, dtype=np.int16)
    else:
        d_min = min(int(pair_d[a, b]) for a in ext for b in ext if a != b)
        hop = np.full((base.k, base.k), 2 + d_min, dtype=np.int16)
        for x, y in base.edges:
            hop[x, y] = hop[y, x] = 1
        # reach[v, x] = min over y of hop(x, y) + d(v, y^m); rows of pair_b
        # go in slices so that no second n x n array is ever held
        reach = (hop[None, :, :] + to_ext[:, None, :]).min(axis=2)
        pair_b = np.empty((g.n, g.n), dtype=np.int16)
        for r in range(0, g.n, _ROWS):
            pair_b[r:r + _ROWS] = (to_ext[r:r + _ROWS, None, :]
                                   + reach[None, :, :]).min(axis=2)
        single_b = pair_b.diagonal().copy()
    return ConditionTable(g.labels, pair_d, pair_b, single_b, pinned)


def condition_table(family: str, m: int, base: BaseGraph | None = None) -> ConditionTable:
    """The conditions under which a dimension-m block coloring lifts.

    Generalized family: pair_b(u, v) is the minimum over ordered letters
    (x, y) of d(u, x^m) + hop(x, y) + d(v, y^m), and single_b its
    diagonal, where hop is 1 for base edges {x, y} and 2 + d_min
    otherwise (d_min the least inter-extreme distance).  Triangle family:
    pair_b(u, v) = delta(u) + delta(v) with delta the nearest corner
    distance, no bound where either vertex is a corner, and single_b the
    sum of the two smallest corner distances.  The certifiers explain why
    these bound every cross-block distance.
    """
    return _conditions(_block_graph(family, m, base), family, m, base)


def _margins(table: ConditionTable, block: Coloring) -> dict[int, dict[str, int]]:
    colors = np.array([block[lab] for lab in table.labels])
    margins: dict[int, dict[str, int]] = {}
    for color in np.unique(colors).tolist():
        idx = np.flatnonzero(colors == color)
        cond: dict[str, int] = {}
        if len(idx) > 1:
            for key, rows in (("within", table.pair_d), ("pair", table.pair_b)):
                sub = rows[np.ix_(idx, idx)]
                np.fill_diagonal(sub, NO_BOUND)
                if sub.min() < NO_BOUND:
                    cond[key] = int(sub.min()) - color
        cond["single"] = int(table.single_b[idx].min()) - color
        margins[color] = cond
    return margins


def _certify(family: str, m: int, block: Coloring, base: BaseGraph | None,
             depth: int) -> CertificateReport:
    """Validate the block, read its margins off the condition table, then
    verify the tilings at m+1..m+depth exhaustively.  A refuted tiling is
    swept only up to its lowest violating color class, whose first pair is
    the reported violation."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    g = _valid_block(family, m, block, base)
    margins = _margins(_conditions(g, family, m, base), block)
    last_clean = m
    for n in range(m + 1, m + depth + 1):
        violation = _first_violation(*_tiled(family, m, block, n, base))[1]
        if violation:
            return CertificateReport(REFUTED, margins,
                                     max_dimension=last_clean, refuted_dimension=n,
                                     violation=violation)
        last_clean = n
    structural = all(min(c.values()) >= 1 for c in margins.values())
    return CertificateReport(CERTIFIED if structural else EMPIRICAL, margins,
                             max_dimension=last_clean)


def certify_generalized_tiling(g: BaseGraph, m: int, block: Coloring,
                               empirical_depth: int = DEFAULT_EMPIRICAL_DEPTH,
                               ) -> CertificateReport:
    """Certificate for tiling S^m_g blocks into S^n_g, n >= m.

    Every inter-block edge of a tiled graph joins the y-extreme of one
    block to the x-extreme of another for some base edge {x, y}, and no
    vertex carries two inter-block edges.  A same-color pair in distinct
    blocks is therefore separated by at least

        cross(u, v) = min over ordered letters (x, y) of
            d(u, x^m) + 1 + d(v, y^m)          if {x, y} in E(g)
            d(u, x^m) + 2 + d_min + d(v, y^m)  otherwise,

    the second branch because a route with two or more inter-block edges
    must transit an intermediate block between two of its extremes.  This
    is the only lift condition: `condition_table` holds these bounds
    (`pair_b`, and `single_b` for two copies of one vertex), and the
    margins are their slacks.  Structural pass on every color plus a clean
    exhaustive backstop yields CERTIFIED; a backstop pass alone yields
    EMPIRICAL; any backstop violation refutes the lift.
    """
    return _certify("generalized", m, block, g, empirical_depth)


def certify_triangle_tiling(m: int, block: Coloring,
                            empirical_depth: int = DEFAULT_EMPIRICAL_DEPTH,
                            ) -> CertificateReport:
    """Certificate for tiling ST^m_3 blocks into ST^n_3, n >= m.

    Blocks glue at identified corner vertices only, and distinct
    dimension-m junctions are at least 2^m apart, so for each color i it
    suffices that

      (i)   distinct same-color positions are >= i+1 apart in the block
            (corner pairs included: their distance is 2^m);
      (ii)  for distinct non-corner same-color positions a, b the
            nearest-corner distances satisfy delta(a) + delta(b) >= i+1;
      (iii) every colored position a has d(a, e) + d(a, e') >= i+1 for
            all corner pairs e != e' - this also separates copies of the
            same position in distinct blocks, whose connecting routes
            either pass two distinct corners or pay the 2^m junction gap.

    These are the `pair_d`, `pair_b` and `single_b` rows of
    `condition_table`.  The exhaustive backstop and status logic match
    the generalized case.
    """
    return _certify("triangle", m, block, None, empirical_depth)


def build_k4e_eleven_coloring() -> dict[str, int]:
    """An 11-coloring of the dimension-5 graph over K4-e, built from the
    shipped dimension-4 tile.  The tile leaves six positions open; their
    colors depend on the enclosing copy index so that the four copies do
    not collide across the linking edges."""
    from ._data import load_coloring

    tile = load_coloring("fig12_s4k4e.coloring")
    out: dict[str, int] = {}
    for a in "0123":
        for w, c in tile.items():
            out[a + w] = c
        out[a + "1131"] = 11 if a == "1" else 9
        out[a + "3111"] = 9 if a == "1" else 10
        out[a + "1111"] = 8 if a == "3" else 6
        out[a + "1313"] = 11 if a == "3" else 8
        out[a + "3311"] = 9 if a == "3" else 6
        out[a + "3131"] = {"1": 10, "3": 8}.get(a, 11)
    return out


@dataclass(frozen=True)
class BoundSequence:
    """Lower-bound sequence a_1..a_N for complete bases: values[i] = a_{i+1}."""

    k: int
    values: tuple[int, ...]

    def term(self, n: int) -> int:
        return self.values[n - 1]


def _require_base(k: int) -> None:
    if k <= 3:
        raise BaseTooSmall(
            f"base order {k} too small: three colors can repeat along the "
            f"diameter, so the counting argument needs k >= 4")


def lower_bound_sequence(k: int, N: int) -> BoundSequence:
    """a_1 = k and a_{n+1} = k a_n - 2^{n+1}(k-1) + 2(k-1): a new dimension
    multiplies the color demand by k but colors beyond the old diameter can
    be shared."""
    _require_base(k)
    if N < 1:
        raise ValueError(f"need at least one term, got N={N}")
    vals = [k]
    while len(vals) < N:
        n = len(vals)
        vals.append(k * vals[-1] - 2 ** (n + 1) * (k - 1) + 2 * (k - 1))
    return BoundSequence(k, tuple(vals))


def lower_bound_closed_form(k: int, n: int) -> int:
    """Exact closed form ((4-k) k^n - 2(2-k) - 2^{n+1}(k-1)) / (2-k); equals
    lower_bound_sequence(k, n) term-for-term."""
    _require_base(k)
    if n < 1:
        raise ValueError(f"terms start at n=1, got {n}")
    numerator = (4 - k) * k ** n - 2 * (2 - k) - 2 ** (n + 1) * (k - 1)
    quotient, remainder = divmod(numerator, 2 - k)
    if remainder:
        raise ArithmeticError(f"closed form not integral at k={k}, n={n}")
    return quotient


def monotonicity_check(k: int, N: int) -> bool:
    """True iff a_n < a_{n+1} for all n < N.  Also cross-checks that each
    comparison agrees with the equivalent inequality 2^{n+1} > (4-k) k^n."""
    seq = lower_bound_sequence(k, N).values
    increasing = True
    for n in range(1, N):
        step_up = seq[n] > seq[n - 1]
        inequality = 2 ** (n + 1) > (4 - k) * k ** n
        if step_up != inequality:
            raise ArithmeticError(
                f"recurrence step and growth inequality disagree at n={n}")
        increasing = increasing and step_up
    return increasing
