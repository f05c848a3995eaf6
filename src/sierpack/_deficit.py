"""Exact certificate deficits of block colorings, as the search scores them.

`_Context` holds one block's `certify.condition_table`.  Its fresh
evaluation gives the penalty and each vertex's share of violated
conditions in one pass over all pairs.  Moves are scored from an
incremental own-color table, Tabucol's gamma matrix kept for each class's
own color only: own[v, c] is v's pair deficit against the other members of
class c at color c.  A recolor proposal reads one row, an accepted recolor
updates two columns (`_move`) and an accepted swap recomputes the two
swapped columns.  A swap is priced from one histogram of condition bounds
per swapped class, which gives that class's deficit at any color.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .certify import condition_table
from .sierpinski import BaseGraph, DimensionOutOfRange


class _Context:
    """One block's condition table (see `certify.condition_table`) plus the
    move evaluation that the search derives from it."""

    def __init__(self, family: str, m: int, base: Optional[BaseGraph]):
        if family == "triangle" and m < 1:
            raise DimensionOutOfRange(f"triangle block dimension {m} below 1")
        table = condition_table(family, m, base)
        self.family = family
        self.m = m
        self.base = base
        self.labels = table.labels
        self.n = len(table.labels)
        self.pair_d = table.pair_d
        self.pair_b = table.pair_b
        self.single_b = table.single_b
        self.pinned = table.pinned
        self.free = np.flatnonzero(~self.pinned)
        # largest color each vertex can carry without violating its own
        # boundary condition; recolor moves stay within these caps
        self.color_cap = np.maximum(self.single_b - 1, 1)

    def _columns(self, colors: np.ndarray
                 ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Each color present in `colors`, its members and its column of
        the own-color table: one pass over all pairs, class by class."""
        for c in np.unique(colors).tolist():
            idx = np.flatnonzero(colors == c)
            yield c, idx, self.column(idx, c)

    def own_table(self, colors: np.ndarray, width: int) -> np.ndarray:
        """The own-color table of `colors`: own[v, c] is v's pair deficit
        against the other members of class c at color c, for c < width."""
        own = np.zeros((self.n, width), dtype=np.int64)
        for c, _, column in self._columns(colors):
            own[:, c] = column
        return own

    def full_eval(self, colors: np.ndarray, own: Optional[np.ndarray] = None
                  ) -> tuple[int, np.ndarray]:
        """Total penalty and per-vertex share of violated conditions, read
        off the own-color table of `colors` when it is given."""
        if own is None:
            pairs = np.zeros(self.n, dtype=np.int64)
            for _, idx, column in self._columns(colors):
                pairs[idx] = column[idx]
        else:
            pairs = own[np.arange(self.n), colors]
        singles = np.maximum(colors + 1 - self.single_b, 0)
        return int(singles.sum() + pairs.sum() // 2), singles + pairs

    def singles(self, width: int) -> np.ndarray:
        """Each vertex's boundary deficit at every color below `width`."""
        shades = np.arange(width, dtype=np.int64)
        return np.maximum(shades + 1 - self.single_b[:, None], 0)

    def pull(self, v: int, color: int) -> np.ndarray:
        """Every other vertex's pair deficit against v at `color`: `column`
        for one member, without the fancy indexing, for the hot recolor
        update."""
        need = color + 1
        row = (np.maximum(need - self.pair_d[v], 0)
               + np.maximum(need - self.pair_b[v], 0))
        row[v] = 0
        return row

    def column(self, members: np.ndarray | list[int], color: int) -> np.ndarray:
        """Column `color` of the own-color table when `members` form class
        `color`: every vertex's pair deficit against the members."""
        idx = np.asarray(members, dtype=np.intp)
        # int16 arithmetic, the table's own type, while twice a need fits
        need = color + 1 if color < 2 ** 14 else np.int64(color) + 1
        pull = np.maximum(need - self.pair_d[idx], 0)
        pull += np.maximum(need - self.pair_b[idx], 0)
        pull[np.arange(len(idx)), idx] = 0
        return pull.sum(axis=0, dtype=np.int64)

    def swap_delta(self, weights: np.ndarray, class_a: list[int], a: int,
                   class_b: list[int], b: int) -> int:
        """Change in penalty when class a (color a) and class b trade
        colors.  Each class gives one histogram of its condition bounds,
        clipped at the width: every ordered pair once per pair condition,
        every member twice for its single condition, the diagonal in the
        zero-weight clip bin.  Dotted with `_weights(width)[:, c]` a
        histogram is twice the class's penalty at color c."""
        width = weights.shape[1]
        hist = np.zeros(width + 1, dtype=np.int64)
        for members, sign in ((class_a, 1), (class_b, -1)):
            idx = np.array(members, dtype=np.intp)
            k = len(idx)
            bounds = np.empty((2 * k + 2, k), dtype=np.int16)
            self.pair_d.take(idx, 0).take(idx, 1, out=bounds[:k])
            self.pair_b.take(idx, 0).take(idx, 1, out=bounds[k:2 * k])
            bounds[2 * k:] = self.single_b[idx]
            np.minimum(bounds, width, out=bounds)
            bounds[:k].flat[::k + 1] = width
            bounds[k:2 * k].flat[::k + 1] = width
            hist += sign * np.bincount(bounds.ravel(), minlength=width + 1)
        return int(hist @ (weights[:, b] - weights[:, a])) // 2


def _weights(width: int) -> np.ndarray:
    """W[h, c] = max(c + 1 - h, 0): the deficit of bound h at color c.  The
    clip bin h = width weighs zero at every color below width."""
    h = np.arange(width + 1, dtype=np.int64)
    return np.maximum(np.arange(width, dtype=np.int64) + 1 - h[:, None], 0)


def _move(ctx: _Context, own: np.ndarray, v: int, old: int, new: int) -> None:
    """Update the own-color table for v leaving class `old` for `new`."""
    own[:, old] -= ctx.pull(v, old)
    own[:, new] += ctx.pull(v, new)
