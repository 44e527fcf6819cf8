"""Every generic level gap of a PL field, in increasing value order.

Between two consecutive distinct vertex values the level set is
combinatorially constant, so one pass over the gaps that carry level sets
visits every combinatorial contour exactly once; `LevelScan.sample` picks
among those gaps.  The scan labels the contours of the gaps ahead in
batches, at the gap midpoints, and a GapView places them at any level of
its gap.  Views stay valid for the life of the scan.
"""

from __future__ import annotations

import numpy as np

from .simplicial import ScalarField, SimplicialComplex
from .contours import (batch_end, crossing_counts, label_level_sets,
                       level_contours)


class GapView:
    """Read-only window onto one value gap of a LevelScan."""

    __slots__ = ("_scan", "_gap", "lo", "hi")

    def __init__(self, scan, gap, lo, hi):
        self._scan = scan
        self._gap = gap
        self.lo = lo
        self.hi = hi

    @property
    def level(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def n_crossings(self):
        return int(self._scan._n_crossings[self._gap])

    def contours(self, level=None):
        return self._scan._contours(self._gap,
                                    self.level if level is None else level)


class LevelScan:
    def __init__(self, complex: SimplicialComplex, field: ScalarField):
        if len(field) != complex.n_vertices:
            raise ValueError("field does not match complex")
        self.complex = complex
        self.g = g = field.resolved_values
        # gap j lies between the distinct values vals[j] and vals[j + 1]
        self._vals = vals = np.unique(g)
        self._mids = 0.5 * (vals[:-1] + vals[1:])
        self._n_crossings = crossing_counts(complex, g, self._mids)
        self._crossings_before = np.concatenate(
            [[0], np.cumsum(self._n_crossings)])
        self._batch = (0, 0, None)

    def gaps(self):
        """Yield a GapView for every gap between consecutive distinct
        vertex values that carries a nonempty level set."""
        vals = self._vals
        for j in np.flatnonzero(self._n_crossings).tolist():
            yield GapView(self, j, float(vals[j]), float(vals[j + 1]))

    def sample(self, first: int, spread: int):
        """Yield the views of the gaps `select_gaps` picks, counting
        positions among the gaps that carry a level set."""
        chosen = select_gaps(int(np.count_nonzero(self._n_crossings)),
                             first, spread)
        for seq, gap in enumerate(self.gaps()):
            if seq in chosen:
                yield gap

    def _contours(self, gap, level):
        start, stop, pieces = self._batch
        if not start <= gap < stop:
            # label the gaps ahead too: a consumer reading every gap then
            # shares each call among many
            start, stop = gap, batch_end(self._crossings_before, gap)
            pieces = label_level_sets(self.complex, self.g,
                                      self._mids[start:stop])
            self._batch = (start, stop, pieces)
        return level_contours(self.complex, self.g, pieces, gap - start, level)


def select_gaps(n_gaps: int, first: int, spread: int):
    """Positions of the gaps to read among `n_gaps`: the `first` lowest
    ones, where the smallest contours of distance-like fields live, plus
    `spread` spaced evenly from there to the last gap.  Every gap when
    first + spread >= n_gaps."""
    wanted = set(range(min(first, n_gaps)))
    if spread > 0 and n_gaps > first:
        wanted.update(int(i) for i in
                      np.linspace(first, n_gaps - 1, spread).round())
    return wanted
