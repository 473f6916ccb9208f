"""Bitset subset helpers and colexicographic ranking of fixed-size subsets."""

from __future__ import annotations

from itertools import combinations, product
from typing import Optional

import numpy as np


def mask_from(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def combination_rows(n: int, k: int) -> np.ndarray:
    """All k-subsets of range(n) in lexicographic order, one int64 row each
    (none for k < 0 or n < 0)."""
    rows = list(combinations(range(n), k)) if k >= 0 and n >= 0 else []
    return np.array(rows, dtype=np.int64).reshape(len(rows), max(k, 0))


def joined_rows(*parts: np.ndarray) -> np.ndarray:
    """Every concatenation of one row from each part, the last part varying fastest."""
    rows = [sum(choice, []) for choice in product(*(p.tolist() for p in parts))]
    return np.array(rows, dtype=np.int64).reshape(len(rows), sum(p.shape[1] for p in parts))


def binomial_table(n: int, r: int) -> np.ndarray:
    """C(v, j) as int64 for v < n, j <= r <= n: the colex rank of v_0 < ... < v_{r-1}
    is the sum of C(v_i, i + 1). As v_i <= n - r + i, only the band v - j < n - r
    is filled, so every entry is below C(n, r) and none can overflow. C(v, j) is
    the sum of C(u, j - 1) over u < v, all in column j - 1's band, so column j is
    column j - 1's running sum, shifted down a row."""
    table = np.zeros((n, r + 1), dtype=np.int64)
    table[:n - r, 0] = 1
    for j in range(1, r + 1):
        np.cumsum(table[:n - r + j - 1, j - 1], out=table[1:n - r + j, j])
    return table


def colex_ranks(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Colex ranks of the subsets given as rows of distinct members, in any order
    within a row. No row is sorted: a member's place in its sorted row is 1 plus
    the number of members of the row below it, counted by one comparison per
    pair of columns, and the rank sums table[v, place] over the row."""
    cols = rows.T
    place = np.ones(cols.shape, dtype=np.intp)
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            less = cols[i] < cols[j]
            place[j] += less
            place[i] += ~less
    return table[cols, place].sum(axis=0)


def _packed_sort(values: np.ndarray, bound: int) -> tuple[Optional[np.ndarray], int]:
    """(sorted (value << b) | position of every element, b), b the bit length of
    the last position; None for the array where bound <= 2^16 or a value and
    its position need more than 64 bits together."""
    shift = max(len(values) - 1, 0).bit_length()
    if bound <= 1 << 16 or (bound - 1).bit_length() + shift > 64:
        return None, shift
    packed = values.astype(np.uint64)
    packed <<= np.uint64(shift)
    packed |= np.arange(len(packed), dtype=np.uint64)
    packed.sort()
    return packed, shift


def stable_order(values: np.ndarray, bound: int) -> np.ndarray:
    """Exactly np.argsort(values, kind="stable") for integers in [0, bound).

    numpy's stable argsort is a radix sort only for types of at most 16 bits
    and a timsort above. So for bound <= 2^16 the values are cast to the
    narrowest unsigned type and argsorted stably. Otherwise, when a value and
    its position fit in 64 bits together, (value << b) | position is unique
    per element, so one plain in-place sort of it puts ties in position
    order, and its low b bits are the stable order. Values too wide for that
    keep the stable argsort.
    """
    packed, shift = _packed_sort(values, bound)
    if packed is None:
        return np.argsort(values.astype(np.min_scalar_type(max(bound - 1, 0))), kind="stable")
    packed &= np.uint64((1 << shift) - 1)
    return packed.view(np.intp)


def stable_sort(values: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """(values in stable_order(values, bound), that order), for integers in
    [0, bound). Where stable_order packs, the sorted values are the high bits
    of the sorted packed keys, so values is not gathered through the order."""
    packed, shift = _packed_sort(values, bound)
    if packed is None:
        order = stable_order(values, bound)
        return values[order], order
    ordered = (packed >> np.uint64(shift)).astype(values.dtype, copy=False)
    packed &= np.uint64((1 << shift) - 1)
    return ordered, packed.view(np.intp)


def complement_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Per row of distinct members of range(n), the sorted rest of range(n)."""
    rest = np.ones((len(rows), n), dtype=bool)
    rest[np.arange(len(rows))[:, None], rows] = False
    every = np.broadcast_to(np.arange(n, dtype=np.int64), rest.shape)
    return every[rest].reshape(len(rows), n - rows.shape[1])
