"""Colored Kikuchi graphs for odd arity: green/blue vertex pairs, the heavy-edge
deletion process with parameter eta, the equalizing step and the predicted
deletion-rate bound.

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
even graphs; deletion and equalization are array passes over the same layout,
and the per-pair survival counts they report are an int64 array indexed like
the pair table's rows.

An ordered pair's endpoints depend on its reduced sides (C~, C~') alone: the
edge joins S to S xor (green C~ xor blue C~'), and the intersection rule counts
S against C~ and C~' only, so neither the group nor its center enters. Pairs
with equal (C~, C~') have equal endpoints and differ only in provenance. On
few vertices they are common: at level k - 1 each C~ is one vertex, so the
ordered pairs of a level have at most n^2 distinct sides however large its
groups grow, and groups with different centers reuse the same sides. So the
build gives each distinct reduced set an id, each ordered pair the code
id(C~) * u + id(C~'), u the number of distinct sets, and makes one
pattern_edges call with one side row per distinct code, as the even build
makes with one row per clause. It keeps those side-pair edges and each
ordered pair's side pair (SidePairs), nothing per ordered pair's edge.

Two side pairs never share an edge's endpoints, since S xor T is green C~ with
blue C~'. So the signed adjacency and Gamma of a level depend on two numbers
per side pair: how many ordered pairs share it, and the sum of their b_C b_C'.
A side-pair edge counts once per ordered pair sharing it and carries that sum,
exact in float64, and the edge count, degrees, Gamma and adjacency read the
side pairs alone. The per-pair arrays s_rank, t_rank and pair are expanded
from them on first read (dumps, the edges view, deletion and equalization when
they cut): sorted by (s_rank, t_rank, pair), they are the side-pair edges in
order, each repeated once per ordered pair of its side. A subgraph of kept
edges holds those arrays, each ordered pair its own side pair of weight 1, and
KikuchiEdges.adjacency sums both kinds the same way.

An ordered pair's edges join S to S xor M for one fixed M, so they form a
matching: a (vertex, group, clause) incidence is met at most once per ordered
pair of the group holding the clause, 2(|G| - 1) times in all. Deletion cuts
nothing when 2(max |G| - 1) <= eta and then gives each pair its alpha edges;
equalization cuts nothing when every pair already holds the same count and
then returns the survivors unchanged. Neither then expands the per-pair
arrays. Otherwise both run their full passes over them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import NamedTuple, Optional

import numpy as np

from .core import Hypergraph
from .decomposition import Decomposition, Group
from .kikuchi_even import DEFAULT_CAPS, Caps, KikuchiEdges, dump_edges, pattern_edges
from .subsets import combination_rows, complement_rows, joined_rows, stable_order


class SidePairs(NamedTuple):
    """The edges of a colored level, one per edge of a distinct reduced side
    pair: s_rank, t_rank and side (its row of side pairs), sorted by (s_rank,
    t_rank), and of_pair, the side pair of each row of the pair table."""

    s_rank: np.ndarray
    t_rank: np.ndarray
    side: np.ndarray
    of_pair: np.ndarray


@dataclass(eq=False)
class ColoredKikuchiGraph(KikuchiEdges):
    """A built level holds its side pairs (side_pairs) and leaves s_rank,
    t_rank and pair None; its edge count, degrees and adjacency read the side
    pairs. The first read of one of the three expands them from the side
    pairs, once (_expand_pairs), and drops the side pairs, so the level then
    reads its edge arrays, as a subgraph does."""

    t: int                                   # common center size of the groups
    groups: tuple[Group, ...]
    pair_table: np.ndarray                   # ordered_pair_table(groups)
    pair: np.ndarray                         # per-edge row of pair_table (see above)
    alpha: Optional[int]                     # unordered edges per ordered pair; None: no pairs
    alpha_closed_form: int                   # per unordered pair, as displayed

    COLORS = 2
    PROVENANCE = ("group", "green", "blue")
    ITEM = "pair"
    side_pairs = None                        # SidePairs of a built level; not a field

    @property
    def p(self) -> int:
        return len(self.groups)

    # per-edge provenance, read through the edge's ordered pair
    group = property(lambda self: self.pair_table[self.pair, 0])
    green = property(lambda self: self.pair_table[self.pair, 1])     # clause C
    blue = property(lambda self: self.pair_table[self.pair, 2])      # clause C'

    def pair_signs(self, signs) -> np.ndarray:
        """b_C b_C' per row of the pair table, from per-clause signs."""
        return signs[self.pair_table[:, 1]] * signs[self.pair_table[:, 2]]

    def edge_signs(self, signs) -> np.ndarray:
        return self.pair_signs(signs)[self.pair]

    @property
    def num_edges(self) -> int:
        if self.side_pairs is None:
            return super().num_edges
        return len(self.pair_table) * (self.alpha or 0)     # alpha edges per ordered pair

    def subgraph_degrees(self) -> np.ndarray:
        if self.side_pairs is None:
            return super().subgraph_degrees()
        nv = self.num_vertices
        s, t, w = self._weighted_edges(None)
        return (np.bincount(s, w, nv) + np.bincount(t, w, nv)).astype(np.int64)

    def _weighted_edges(self, signs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """With side pairs, each side-pair edge stands for the edges of the
        ordered pairs sharing it, so it weighs their number, or under signs the
        sum of their b_C b_C'; sums of +-1, so exact in float64."""
        if self.side_pairs is None:
            return super()._weighted_edges(signs)
        s, t, side, of_pair = self.side_pairs
        w = np.ones(len(of_pair)) if signs is None else self.pair_signs(signs)
        return s, t, np.bincount(of_pair, w)[side]

    def _expand_pairs(self) -> None:
        """s_rank, t_rank and pair of every edge from the side pairs. No two
        side pairs share an endpoint pair, since S xor T is green C~ with blue
        C~', and no side pair has parallel edges (a matching), so the edges
        sorted by (s_rank, t_rank, pair) are the side-pair edges in their order,
        each repeated once per ordered pair of its side, pairs ascending."""
        s, t, side, of_pair = self.side_pairs
        per_side = np.bincount(of_pair)
        copies = per_side[side]
        by_side = stable_order(of_pair, len(per_side))
        # copy j of side-pair edge e is pair by_side[first pair of side[e] + j]
        slot = np.repeat((np.cumsum(per_side) - per_side)[side] - (np.cumsum(copies) - copies),
                         copies)
        slot += np.arange(len(slot))
        self.pair = by_side[slot]
        self.s_rank, self.t_rank = np.repeat(s, copies), np.repeat(t, copies)
        self.side_pairs = None


def _expanded(name: str) -> property:
    """The per-edge field name of ColoredKikuchiGraph as a property: the stored
    array, or where the build stored None, the one _expand_pairs makes on the
    first read."""
    def read(g):
        if g.__dict__[name] is None:
            g._expand_pairs()
        return g.__dict__[name]

    def write(g, value):
        g.__dict__[name] = value

    return property(read, write)


for _name in ("s_rank", "t_rank", "pair"):
    setattr(ColoredKikuchiGraph, _name, _expanded(_name))


def ordered_pair_table(groups) -> np.ndarray:
    """One row (group, C, C', slot of C, slot of C') per ordered pair of distinct
    clauses of a group, sorted by (group, C, C'). Slots number the (group,
    clause) memberships densely: groups in order, clauses ascending."""
    sizes = np.array([len(grp.clause_indices) for grp in groups], dtype=np.int64)
    clauses = np.array([c for grp in groups for c in sorted(grp.clause_indices)], dtype=np.int64)
    group = np.repeat(np.arange(len(groups), dtype=np.int64), sizes)
    partners = np.repeat(sizes - 1, sizes)
    # slot a pairs with the other slots of its group, ascending: the j-th of
    # them lies j slots past the group's first, or j + 1 from a itself on
    a = np.repeat(np.arange(len(clauses), dtype=np.int64), partners)
    j = np.arange(len(a), dtype=np.int64) - np.repeat(np.cumsum(partners) - partners, partners)
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)[a]
    b = first + j + (j >= a - first)
    return np.stack((group[a], clauses[a], clauses[b], a, b), axis=1)


def build_colored_kikuchi(h: Hypergraph, decomp: Decomposition, level: int, r: int,
                          caps: Caps = DEFAULT_CAPS) -> ColoredKikuchiGraph:
    """Enumerate the colored Kikuchi graph of the level's groups explicitly."""
    groups = decomp.groups_at(level)
    if level > h.k - 1 or level < 1:
        raise ValueError(f"level must lie in 1..k-1, got {level}")
    for g in groups:
        if len(g.center) != level:
            raise ValueError(f"group center {g.center} does not have size {level}")
    # per (group, clause) membership, by slot: which members of the clause lie in the center
    members = np.array([h.edges[c] for grp in groups for c in sorted(grp.clause_indices)],
                       dtype=np.int64).reshape(-1, h.k)
    centers = np.repeat(np.array([grp.center for grp in groups], dtype=np.int64).reshape(-1, level),
                        [len(grp.clause_indices) for grp in groups], axis=0)
    hits = members[:, :, None] == centers[:, None, :]
    if not hits.any(axis=1).all():
        bad = next(c for grp in groups for c in grp.clause_indices
                   if not set(grp.center).issubset(h.edges[c]))
        raise ValueError(f"clause {bad} does not contain its group center")

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
    # C~ of every (group, clause) membership, indexed by slot, ascending within
    # its row, so equal sets are equal rows; each distinct set gets an id, and
    # each ordered pair the code of its (green, blue) sides
    sets, set_id = np.unique(members[~hits.any(axis=2)].reshape(-1, kt), axis=0,
                             return_inverse=True)
    set_id, u = set_id.reshape(-1), len(sets)      # numpy 2.0.0 gives a 2-d inverse
    codes, side_row = np.unique(set_id[pair_table[:, 3]] * u + set_id[pair_table[:, 4]],
                                return_inverse=True)
    sides = np.hstack([sets[codes // u], sets[codes % u] + h.n])

    # pair_table rows are sorted by (group, C, C'), so the expanded edges sort
    # like the tuples (s, t, group, C, C')
    g = ColoredKikuchiGraph(n=h.n, k=h.k, r=r, s_rank=None, t_rank=None, t=level, groups=groups,
                            pair_table=pair_table, pair=None,
                            alpha=len(s_pat) if len(pair_table) else None,
                            alpha_closed_form=closed)
    g.side_pairs = SidePairs(*pattern_edges(sides, 2 * h.n, r, s_pat, t_pat), side_row)
    return g


@dataclass
class DeletionResult:
    surviving: np.ndarray                    # boolean over graph.edges
    pair_survival: np.ndarray                # int64 surviving edges per row of pair_table
    kappa: Optional[int] = None              # common per-pair count once equalized
    rho: Optional[Fraction] = None           # set once equalized: 1 - kappa/alpha
    degenerate: bool = False

    @property
    def num_surviving(self) -> int:
        return int(np.sum(self.surviving))


def delete_heavy_edges(g: ColoredKikuchiGraph, eta) -> DeletionResult:
    """One-shot deletion: drop every edge {S,T} from pair (C,C') such that S or T
    is incident (within the same group) to more than eta edges involving C or C'.

    eta = math.inf is the no-op sentinel. Surviving per-vertex per-clause
    incidence is <= eta afterwards. An incidence count is at most 2(|G| - 1)
    (see the module docstring), so when 2(max |G| - 1) <= eta every edge is
    kept, and a built level's pairs keep their alpha edges each: no per-edge
    array is read.
    """
    _check_eta(eta)
    surviving = np.ones(g.num_edges, dtype=bool)
    if not g.num_edges or 2 * (max(len(grp.clause_indices) for grp in g.groups) - 1) <= eta:
        if g.side_pairs is None:
            kept = np.bincount(g.pair, minlength=len(g.pair_table))
        else:
            kept = np.full(len(g.pair_table), g.alpha or 0, dtype=np.int64)
        return DeletionResult(surviving=surviving, pair_survival=kept)
    # one key per (vertex, group, clause) incidence, (group, clause) as its
    # slot, packed in the narrowest dtype that holds every key
    num_slots = sum(len(grp.clause_indices) for grp in g.groups)
    key_type = np.min_scalar_type(g.num_vertices * num_slots - 1)
    slots = [g.pair_table[g.pair, col].astype(key_type) for col in (3, 4)]
    # filled row by row, so at most one row-sized temporary is alive
    keys = np.empty((4, g.num_edges), dtype=key_type)
    for row, (v, slot) in zip(keys, product((g.s_rank, g.t_rank), slots)):
        np.multiply(v.astype(key_type), key_type.type(num_slots), out=row)
        row += slot
    del slots
    ordered = np.sort(keys, axis=None)
    # in sorted order, a key met more than eta times recurs eta places on
    e = math.floor(eta)
    heavy = np.unique(ordered[e:][ordered[e:] == ordered[:-e]])
    del ordered
    # one key row at a time, as np.isin on the whole stack sorts all of it at once
    for row in keys:
        surviving &= np.isin(row, heavy, invert=True)
    return DeletionResult(surviving=surviving,
                          pair_survival=np.bincount(g.pair[surviving], minlength=len(g.pair_table)))


def equalize_deletion(g: ColoredKikuchiGraph, pre: DeletionResult) -> DeletionResult:
    """Cut every ordered pair down to kappa = min survival, dropping the
    lexicographically largest surviving edges; rho = 1 - kappa/alpha. When
    every pair already holds kappa survivors, they are returned unchanged.

    The resulting quadratic form satisfies x' A_hat x = (1 - rho) x' A x for
    every assignment-induced x, exactly.
    """
    if pre.rho is not None:
        raise ValueError("deletion result is already equalized")
    if g.alpha is None or not g.num_edges:
        return DeletionResult(surviving=pre.surviving.copy(), pair_survival=pre.pair_survival.copy(),
                              rho=Fraction(0), degenerate=True)
    kappa = int(pre.pair_survival.min())
    if kappa == pre.pair_survival.max():
        surviving = pre.surviving.copy()
    else:
        # survivors grouped by pair, each pair's in stored (sorted) order; keep the first kappa
        alive = np.flatnonzero(pre.surviving)
        pair_ids = g.pair[alive]
        alive = alive[stable_order(pair_ids, len(g.pair_table))]
        # in that order a pair's run starts after the survivors of all lower pairs
        counts = np.bincount(pair_ids, minlength=len(g.pair_table))
        running = np.arange(len(alive)) - np.repeat(np.cumsum(counts) - counts, counts)
        surviving = np.zeros(g.num_edges, dtype=bool)
        surviving[alive[running < kappa]] = True
    rho = 1 - Fraction(kappa, g.alpha)
    return DeletionResult(surviving=surviving, pair_survival=np.minimum(pre.pair_survival, kappa),
                          kappa=kappa, rho=rho, degenerate=(kappa == 0))


def _check_eta(eta) -> None:
    if not isinstance(eta, numbers.Real) or math.isnan(eta) or eta < 1:
        raise ValueError(f"eta must be a number >= 1 (or math.inf), got {eta!r}")


def predicted_deletion_fraction(k: int, n: int, r: int, level: int, eta,
                                thresholds: dict[int, int]) -> Fraction:
    """Upper bound on the per-pair deletion fraction from the decomposition's
    thresholds tau_s:
        (4^k / eta) * sum_{s=level}^{floor((k+level)/2)} tau_s * (r/n)^{floor((k+level)/2) - s}
    """
    _check_eta(eta)
    if eta == math.inf:
        return Fraction(0)
    top = (k + level) // 2
    total = Fraction(0)
    for s in range(level, top + 1):
        tau = thresholds.get(s)
        if tau is None:
            raise ValueError(f"threshold tau_{s} missing")
        total += tau * Fraction(r, n) ** (top - s)
    return Fraction(4**k, 1) / eta * total


def measured_deletion_fractions(g: ColoredKikuchiGraph, result: DeletionResult) -> dict:
    """Per ordered pair (group, C, C'), the fraction of its edges deleted."""
    if g.alpha in (None, 0):
        return {}
    return {tuple(key): 1 - Fraction(cnt, g.alpha)
            for key, cnt in zip(g.pair_table[:, :3].tolist(), result.pair_survival.tolist())}


def dump_colored(g: ColoredKikuchiGraph) -> str:
    """Text edge list: header then 'S_rank T_rank group C_index C'_index' lines."""
    return dump_edges(f"kikuchi-odd {g.n} {g.r} {g.t} {g.p}", g)
