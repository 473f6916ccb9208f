"""The cells of a colored level's pair grid in the order of its edges."""

import numpy as np


def cell_positions(g):
    """(pairs, alpha) positions in g.edges of a built level's grid cells: cell
    (p, j) is the j-th edge of pair p, and g.edges lists every ordered pair's
    edges sorted by (s_rank, t_rank, pair)."""
    return np.argsort(g.pair_edges[2], kind="stable").reshape(len(g.pair_table), g.alpha or 0)


def edge_mask(g, cells):
    """The boolean mask over the grid's cells as a mask over g.edges."""
    mask = np.zeros(g.num_edges, dtype=bool)
    mask[cell_positions(g)[cells]] = True
    return mask
