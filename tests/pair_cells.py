"""The cells of a Kikuchi level's pair grid in the order of its edges."""

import numpy as np


def cell_positions(g):
    """(rows, alpha) positions in g.edges of a built level's grid cells: cell
    (p, j) is the j-th edge of provenance row p, and g.edges lists every row's
    edges sorted by (s_rank, t_rank, row)."""
    return np.argsort(g.pair_edges[2], kind="stable").reshape(len(g.of_pair), g.alpha or 0)


def edge_mask(g, cells):
    """The boolean mask over the grid's cells as a mask over g.edges."""
    mask = np.zeros(g.num_edges, dtype=bool)
    mask[cell_positions(g)[cells]] = True
    return mask
