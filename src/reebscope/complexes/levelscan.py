"""Every generic level gap of a PL field, in increasing value order.

Between two consecutive distinct vertex values the level set is
combinatorially constant, so one pass over the gaps that carry level sets
visits every combinatorial contour exactly once; `LevelScan.sample` picks
among those gaps.  The scan labels the gaps it will read in batches, at
the gap midpoints: every gap ahead for `gaps`, only the chosen ones for
`sample`.  Each batch becomes arrays once, and a GapView hands out its
gap's slice of them as a `ContourSet`.  Views stay valid for the life of
the scan.
"""

from __future__ import annotations

import numpy as np

from .simplicial import ScalarField, SimplicialComplex
from .contours import (batch_end, crossing_counts, label_level_sets,
                       level_contours)


class GapView:
    """Read-only window onto one value gap of a LevelScan.  `contours()`
    returns the ContourSet of the gap's midpoint level."""

    __slots__ = ("_scan", "_gap", "lo", "hi")

    def __init__(self, scan, gap, lo, hi):
        self._scan = scan
        self._gap = gap
        self.lo = lo
        self.hi = hi

    @property
    def n_crossings(self):
        return int(self._scan._n_crossings[self._gap])

    def contours(self):
        return self._scan._contours(self._gap)


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
        # batches are labelled among the gaps planned to be read
        self._live = self._plan = np.flatnonzero(self._n_crossings)
        self._batch = {}

    def gaps(self):
        """Yield a GapView for every gap between consecutive distinct
        vertex values that carries a nonempty level set."""
        vals = self._vals
        for j in self._live.tolist():
            yield GapView(self, j, float(vals[j]), float(vals[j + 1]))

    def sample(self, first: int, spread: int):
        """Yield the views of the gaps `select_gaps` picks, counting
        positions among the gaps that carry a level set."""
        chosen = select_gaps(self._live.size, first, spread)
        self._plan = self._live[sorted(chosen)]
        for seq, gap in enumerate(self.gaps()):
            if seq in chosen:
                yield gap

    def _contours(self, gap):
        if gap not in self._batch:
            if gap not in self._plan:
                # a gap off the sample's plan: plan every gap again
                self._plan = self._live
            # label the planned gaps ahead too: a consumer reading them
            # then shares each call among many
            ahead = self._plan[np.searchsorted(self._plan, gap):]
            batch = ahead[:batch_end(np.cumsum(np.append(
                0, self._n_crossings[ahead])), 0)]
            pieces = label_level_sets(self.complex, self.g, self._mids[batch])
            self._batch = dict(zip(batch.tolist(), level_contours(
                self.complex, self.g, pieces)))
        return self._batch[gap]


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
