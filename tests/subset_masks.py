"""Bitmask views of subsets, for checking the rank-based Kikuchi arrays."""

from itertools import combinations

from kcert.subsets import mask_from


def vertices_from(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def all_subset_masks_colex(n: int, r: int) -> list[int]:
    """All r-subsets of range(n) as bitmasks, indexed by colex rank: colex order
    compares the largest differing element, so it is the masks' numeric order."""
    return sorted(mask_from(combo) for combo in combinations(range(n), r))
