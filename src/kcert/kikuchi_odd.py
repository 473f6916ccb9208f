"""Colored Kikuchi graphs for odd arity: green/blue vertex pairs, typed degrees,
the heavy-edge deletion process with parameter eta, the equalizing step, the
predicted deletion-rate bound, and the large-intersection reduction.

A vertex is a pair (S1, S2) of subsets of [n] with |S1| + |S2| = r, encoded as
an r-subset of [2n] (green bits 0..n-1, blue bits n..2n-1). For an ordered
clause pair (C, C') of a group with center U, edges connect S to
T = S xor (green C~ xor blue C~') subject to the balanced intersection rule.
Edge bookkeeping is per ordered pair; alpha is the per-ordered-pair count of
unordered edges that the index patterns produce (the closed form is reported,
never assumed).

Edges use the arrays of kikuchi_even.KikuchiEdges; each edge's provenance is
its ordered pair, a row (group, C, C') of a pair table. All pairs share one set
of index patterns, so kikuchi_even.pattern_edges builds them as it builds the
even graphs, with the pair as the item; deletion and equalization are array
passes over the same layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Optional

import numpy as np

from .core import EvenCover, Hypergraph, odd_use_cover
from .decomposition import Decomposition, Group
from .kikuchi_even import DEFAULT_CAPS, Caps, KikuchiEdges, dump_edges, pattern_edges
from .subsets import combination_rows, complement_rows, joined_rows, mask_from, vertices_from


@dataclass(eq=False)
class ColoredKikuchiGraph(KikuchiEdges):
    t: int                                   # common center size of the groups
    groups: tuple[Group, ...]
    pair_table: np.ndarray                   # ordered_pair_table(groups)
    pair: np.ndarray                         # per-edge row of pair_table
    alpha: Optional[int]                     # unordered edges per ordered pair; None: no pairs
    alpha_closed_form: int                   # per unordered pair, as displayed

    COLORS = 2
    PROVENANCE = ("group", "green", "blue")

    @property
    def p(self) -> int:
        return len(self.groups)

    # per-edge provenance, read through the edge's ordered pair
    group = property(lambda self: self.pair_table[self.pair, 0])
    green = property(lambda self: self.pair_table[self.pair, 1])     # clause C
    blue = property(lambda self: self.pair_table[self.pair, 2])      # clause C'

    @cached_property
    def ordered_pairs(self) -> list[tuple[int, int, int]]:
        """(group, C, C') of every ordered pair, indexed like pair_table."""
        return list(map(tuple, self.pair_table[:, :3].tolist()))

    @property
    def num_ordered_pairs(self) -> int:
        return len(self.pair_table)

    def edge_signs(self, signs) -> np.ndarray:
        return (signs[self.pair_table[:, 1]] * signs[self.pair_table[:, 2]])[self.pair]

    def clause_type_degree(self, h: Hypergraph, vertex_mask: int, gi: int) -> int:
        """Typed degree d_{S,i}: clauses of group gi whose reduced set meets the
        green or blue side of S in one of the two balanced sizes."""
        grp = self.groups[gi]
        umask = mask_from(grp.center)
        kt = self.k - self.t
        hb, lb = (kt + 1) // 2, kt // 2
        green = vertex_mask & ((1 << self.n) - 1)
        blue = vertex_mask >> self.n
        cnt = 0
        for c in grp.clause_indices:
            ct = h.edge_masks()[c] ^ umask
            g1 = (ct & green).bit_count()
            g2 = (ct & blue).bit_count()
            if g1 in (hb, lb) or g2 in (hb, lb):
                cnt += 1
        return cnt


def ordered_pair_table(groups) -> np.ndarray:
    """One row (group, C, C', slot of C, slot of C') per ordered pair of distinct
    clauses of a group, sorted by (group, C, C'). Slots number the (group,
    clause) memberships densely: groups in order, clauses ascending."""
    blocks, first = [np.empty((0, 5), dtype=np.int64)], 0
    for gi, grp in enumerate(groups):
        clauses = np.array(sorted(grp.clause_indices), dtype=np.int64)
        ia, ib = np.nonzero(~np.eye(len(clauses), dtype=bool))
        blocks.append(np.column_stack([np.full(len(ia), gi), clauses[ia], clauses[ib],
                                       first + ia, first + ib]))
        first += len(clauses)
    return np.concatenate(blocks)


def build_colored_kikuchi(h: Hypergraph, decomp: Decomposition, level: int, r: int,
                          caps: Caps = DEFAULT_CAPS) -> ColoredKikuchiGraph:
    """Enumerate the colored Kikuchi graph of the level's groups explicitly."""
    groups = decomp.groups_at(level)
    if level > h.k - 1 or level < 1:
        raise ValueError(f"level must lie in 1..k-1, got {level}")
    for g in groups:
        if len(g.center) != level:
            raise ValueError(f"group center {g.center} does not have size {level}")
        for c in g.clause_indices:
            if not set(g.center).issubset(h.edges[c]):
                raise ValueError(f"clause {c} does not contain its group center")

    kt = h.k - level
    hb, lb = (kt + 1) // 2, kt // 2
    wneed = r - kt
    free_count = 2 * h.n - 2 * kt
    closed = (comb(kt, lb) * comb(kt, hb) * comb(free_count, wneed) * (2 if kt % 2 else 1)
              if wneed >= 0 else 0)
    pairs = sum(comb(len(g.clause_indices), 2) for g in groups)
    caps.check(2 * h.n, r, pairs * closed, f"{pairs} pairs, alpha_t = {closed}")

    # column patterns into [C~ | C~' + n | free positions]; for even k-t the two
    # balanced splits coincide, so each unordered edge would be produced from
    # both sides, and pinning min(C~) to the green S-side half (the first
    # C(kt-1, hb-1) halves in lexicographic order) keeps one
    a_pos = combination_rows(kt, hb)[:comb(kt - 1, hb - 1) if kt % 2 == 0 else None]
    b_pos = combination_rows(kt, lb)
    w_pos = combination_rows(free_count, wneed) + 2 * kt
    s_pat = joined_rows(a_pos, b_pos + kt, w_pos)
    t_pat = joined_rows(complement_rows(a_pos, kt), complement_rows(b_pos, kt) + kt, w_pos)

    pair_table = ordered_pair_table(groups)
    # C~ of every (group, clause) membership, indexed by slot
    reduced = np.array([[v for v in h.edges[c] if v not in grp.center] for grp in groups
                        for c in sorted(grp.clause_indices)], dtype=np.int64).reshape(-1, kt)

    def sides(lo, hi):
        rows = pair_table[lo:hi]
        return np.hstack([reduced[rows[:, 3]], reduced[rows[:, 4]] + h.n])

    # pair_table rows are sorted by (group, C, C'), so this sorts like the
    # tuples (s, t, group, C, C')
    s_rank, t_rank, pair = pattern_edges(len(pair_table), sides, 2 * h.n, r, s_pat, t_pat)
    alpha = len(s_pat) if len(pair_table) else None

    return ColoredKikuchiGraph(n=h.n, k=h.k, r=r, s_rank=s_rank, t_rank=t_rank, t=level,
                               groups=groups, pair_table=pair_table, pair=pair, alpha=alpha,
                               alpha_closed_form=closed)


@dataclass
class DeletionResult:
    surviving: np.ndarray                    # boolean over graph.edges
    per_pair_survival: dict[tuple[int, int, int], int]
    eta: float
    equalized: bool
    kappa: Optional[int] = None
    rho: Optional[Fraction] = None
    degenerate: bool = False

    @property
    def num_surviving(self) -> int:
        return int(np.sum(self.surviving))


def delete_heavy_edges(g: ColoredKikuchiGraph, eta) -> DeletionResult:
    """One-shot deletion: drop every edge {S,T} from pair (C,C') such that S or T
    is incident (within the same group) to more than eta edges involving C or C'.

    eta = math.inf is the no-op sentinel. Surviving per-vertex per-clause
    incidence is <= eta afterwards.
    """
    if eta != math.inf and eta < 1:
        raise ValueError("eta must be >= 1 (or math.inf)")
    surviving = np.ones(g.num_edges, dtype=bool)
    if eta != math.inf and g.num_edges:
        # one key per (vertex, group, clause) incidence, (group, clause) as its slot
        num_slots = sum(len(grp.clause_indices) for grp in g.groups)
        slots = [g.pair_table[g.pair, col] for col in (3, 4)]
        incidences = [(v, slot) for v in (g.s_rank, g.t_rank) for slot in slots]
        keys = np.concatenate([v * num_slots + slot for v, slot in incidences])
        keys.sort()
        # in sorted order, a key met more than eta times recurs eta places on
        e = math.floor(eta)
        heavy = np.unique(keys[e:][keys[e:] == keys[:-e]])
        surviving = ~np.any([np.isin(v * num_slots + slot, heavy) for v, slot in incidences],
                            axis=0)
    per_pair = dict(zip(g.ordered_pairs,
                        np.bincount(g.pair[surviving], minlength=g.num_ordered_pairs).tolist()))
    return DeletionResult(surviving=surviving, per_pair_survival=per_pair, eta=eta, equalized=False)


def equalize_deletion(g: ColoredKikuchiGraph, pre: DeletionResult) -> DeletionResult:
    """Cut every ordered pair down to kappa = min survival, dropping the
    lexicographically largest surviving edges; rho = 1 - kappa/alpha.

    The resulting quadratic form satisfies x' A_hat x = (1 - rho) x' A x for
    every assignment-induced x, exactly.
    """
    if pre.equalized:
        raise ValueError("deletion result is already equalized")
    if g.alpha is None or not g.num_edges:
        return DeletionResult(surviving=pre.surviving.copy(), per_pair_survival=dict(pre.per_pair_survival),
                              eta=pre.eta, equalized=True, kappa=None, rho=Fraction(0),
                              degenerate=True)
    kappa = min(pre.per_pair_survival.values())
    # survivors grouped by pair, each pair's in stored (sorted) order; keep the first kappa
    alive = np.flatnonzero(pre.surviving)
    alive = alive[np.argsort(g.pair[alive], kind="stable")]
    pairs = g.pair[alive]
    running = np.arange(len(alive)) - np.searchsorted(pairs, pairs)
    surviving = np.zeros(g.num_edges, dtype=bool)
    surviving[alive[running < kappa]] = True
    counts = np.fromiter(pre.per_pair_survival.values(), dtype=np.int64)
    per_pair = dict(zip(pre.per_pair_survival, np.minimum(counts, kappa).tolist()))
    rho = 1 - Fraction(kappa, g.alpha)
    return DeletionResult(surviving=surviving, per_pair_survival=per_pair, eta=pre.eta,
                          equalized=True, kappa=kappa, rho=rho, degenerate=(kappa == 0))


def predicted_deletion_fraction(k: int, n: int, r: int, level: int, eta,
                                thresholds: Optional[dict[int, int]] = None,
                                h: Optional[Hypergraph] = None,
                                groups: Optional[tuple[Group, ...]] = None) -> Fraction:
    """Upper bound on the per-pair deletion fraction.

    Refutation form (thresholds given):
        (4^k / eta) * sum_{s=level}^{floor((k+level)/2)} tau_s * (r/n)^{floor((k+level)/2) - s}
    Cover form (groups given): the finite sum with the measured intersection
    counts of each clause substituted for the caps,
        (4 * 2^k / eta) * max_{j, C} sum_s cnt_{j,C,s} * (r/n)^{floor((k-level)/2) - s + level}.
    """
    if eta != math.inf and eta < 1:
        raise ValueError("eta must be >= 1")
    if eta == math.inf:
        return Fraction(0)
    if thresholds is not None:
        top = (k + level) // 2
        total = Fraction(0)
        for s in range(level, top + 1):
            tau = thresholds.get(s)
            if tau is None:
                raise ValueError(f"threshold tau_{s} missing")
            total += tau * Fraction(r, n) ** (top - s)
        return Fraction(4**k, 1) / eta * total
    if h is None or groups is None:
        raise ValueError("provide thresholds (refutation) or h and groups (cover)")
    masks = h.edge_masks()
    worst = Fraction(0)
    e0 = (k - level) // 2
    for grp in groups:
        for a in grp.clause_indices:
            val = Fraction(0)
            for b in grp.clause_indices:
                if b == a:
                    continue
                s = (masks[a] & masks[b]).bit_count()
                val += Fraction(r, n) ** (e0 - s + level)
            worst = max(worst, val)
    return Fraction(4 * 2**k, 1) / eta * worst


def measured_deletion_fractions(g: ColoredKikuchiGraph, result: DeletionResult) -> dict:
    """Per ordered pair, the fraction of its edges deleted."""
    if g.alpha in (None, 0):
        return {}
    return {key: 1 - Fraction(cnt, g.alpha) for key, cnt in result.per_pair_survival.items()}


def reduce_large_intersection(h: Hypergraph, groups) -> tuple[Hypergraph, list[tuple[int, int]]]:
    """Chain each group into consecutive symmetric differences.

    Requires every pair inside a group to intersect exactly at the group center;
    emits |group| - 1 hyperedges of size 2(k - t) per group. Returns the reduced
    hypergraph and the per-edge source pair (clause indices) for the back-map.
    """
    groups = tuple(groups)
    if not groups:
        raise ValueError("need at least one group")
    level = len(groups[0].center)
    masks = h.edge_masks()
    new_edges = []
    back_map: list[tuple[int, int]] = []
    for gi, grp in enumerate(groups):
        umask = mask_from(grp.center)
        idx = sorted(grp.clause_indices)
        for a in idx:
            for b in idx:
                if a < b and (masks[a] & masks[b]) != umask:
                    raise ValueError(
                        f"clauses {a} and {b} in group {gi} intersect beyond the center"
                    )
        for a, b in zip(idx, idx[1:]):
            diff = masks[a] ^ masks[b]
            new_edges.append(vertices_from(diff))
            back_map.append((a, b))
    hhat = Hypergraph(n=h.n, k=2 * (h.k - level), edges=tuple(new_edges))
    return hhat, back_map


def map_reduced_cover_back(back_map: list[tuple[int, int]], cover) -> EvenCover:
    """Pull an even cover of the reduced hypergraph back to the original:
    sources appearing an odd number of times across the selected chain edges."""
    indices = cover.edge_indices if isinstance(cover, EvenCover) else frozenset(cover)
    return odd_use_cover(source for i in indices for source in back_map[i])


def dump_colored(g: ColoredKikuchiGraph) -> str:
    """Text edge list: header then 'S_rank T_rank group C_index C'_index' lines."""
    return dump_edges(f"kikuchi-odd {g.n} {g.r} {g.t} {g.p}", g)
