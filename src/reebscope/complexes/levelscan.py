"""Every generic level gap of a PL field, in increasing value order.

Between two consecutive vertex values the level set is combinatorially
constant, so one pass over the gaps visits every combinatorial contour
exactly once.  The scan labels the contours of the gaps ahead in batches,
at the gap midpoints, and a GapView places them at any level of its gap.
Views stay valid for the life of the scan.
"""

from __future__ import annotations

import numpy as np

from .simplicial import ScalarField, SimplicialComplex
from .contours import (batch_end, crossing_counts, label_level_sets,
                       level_contours)


class GapView:
    """Read-only window onto one value gap of a LevelScan."""

    __slots__ = ("_scan", "_gap", "index", "lo", "hi")

    def __init__(self, scan, gap, index, lo, hi):
        self._scan = scan
        self._gap = gap
        self.index = index
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
        self.field = field
        self.g = g = field.resolved_values
        # gap j lies between the distinct values vals[j] and vals[j + 1]
        self._vals = vals = np.unique(g)
        self._mids = 0.5 * (vals[:-1] + vals[1:])
        self._n_crossings = crossing_counts(complex, g, self._mids)
        self._crossings_before = np.concatenate(
            [[0], np.cumsum(self._n_crossings)])
        self._batch = (0, 0, None)

    def gaps(self):
        """Yield a GapView for every gap between consecutive vertex values
        that carries a nonempty level set.  `index` is the position, in
        value order, of the last vertex at the gap's lower value."""
        vals = self._vals
        last = np.searchsorted(np.sort(self.g), vals, side="right") - 1
        for j in np.flatnonzero(self._n_crossings).tolist():
            yield GapView(self, j, int(last[j]), float(vals[j]),
                          float(vals[j + 1]))

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


# gaps kept at each end of the value range by select_gap_indices
_END_GAPS = 25


def select_gap_indices(n_gaps: int, target: int):
    """Deterministic subsample of gap indices: everything when small, else
    the first and last _END_GAPS gaps (smallest contours of distance-like
    fields live at the extremes) plus an even spread over the middle."""
    if target <= 0 or n_gaps <= target:
        return set(range(n_gaps))
    q = min(_END_GAPS, n_gaps // 3)
    picks = set(range(q)) | set(range(n_gaps - q, n_gaps))
    middle = target - len(picks)
    if middle > 0:
        picks.update(int(round(i * (n_gaps - 1) / (middle - 1))) if middle > 1
                     else (n_gaps // 2) for i in range(middle))
    return picks
