"""Tests-only grouping of in-memory traces into the (position, TraceArrays)
source that the evaluation sweeps take, as traceset.read_positions yields it
from a file."""

import numpy as np


def by_position(arrays):
    """(p, the rows at position p in order) for each position present, in
    ascending p."""
    for p in np.unique(arrays.positions):
        yield int(p), arrays.subset(arrays.positions == p)
