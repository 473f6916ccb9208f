"""Colored Kikuchi graphs for odd arity: green/blue vertex pairs, the heavy-edge
deletion process with parameter eta, the equalizing step and the predicted
deletion-rate bound.

A vertex is a pair (S1, S2) of subsets of [n] with |S1| + |S2| = r, encoded as
an r-subset of [2n] (green bits 0..n-1, blue bits n..2n-1). For an ordered
clause pair (C, C') of a group with center U, edges connect S to
T = S xor (green C~ xor blue C~') subject to the balanced intersection rule.
Edge bookkeeping is per ordered pair; alpha is the per-ordered-pair count of
unordered edges that the index patterns produce (the closed form is reported,
never assumed). Each ordered pair is a row (group, C, C') of a pair table.

An ordered pair's edges depend on its reduced sides (C~, C~') alone: the edge
joins S to S xor (green C~ xor blue C~'), and the intersection rule counts S
against C~ and C~' only. Pairs with equal sides have equal edges, and on few
vertices they are common: at level k - 1 each C~ is one vertex, so a level has
at most n^2 distinct side pairs however large its groups grow. So a level is
a kikuchi_even.KikuchiEdges whose sides are its distinct side pairs and whose
provenance rows are the rows of its pair table, each signed b_C b_C'. Its
edges are distinct: two side pairs never share an edge's endpoints, since
S xor T is green C~ with blue C~'. The build numbers the distinct reduced
sets, codes each ordered pair id(C~) * u + id(C~'), u the number of distinct
sets, and makes one pattern_edges call with one row per distinct code, as the
even build makes with one row per clause, alpha edges per row.

An ordered pair's edges join S to S xor M for one fixed M, so they form a
matching: a (vertex, group, clause) incidence is met at most once per ordered
pair of the group holding the clause, 2(|G| - 1) times in all. Deletion cuts
nothing when 2(max |G| - 1) <= eta, and then keeps every cell without
building the grid. Equalization keeps each row's first kappa survivors, and
never builds the grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import Optional

import numpy as np

from .core import Hypergraph
from .decomposition import Decomposition, Group
from .kikuchi_even import DEFAULT_CAPS, Caps, KikuchiEdges, dump_edges, pattern_edges
from .subsets import combination_rows, complement_rows, joined_rows


@dataclass(eq=False)
class ColoredKikuchiGraph(KikuchiEdges):
    """A colored level: its sides are its distinct side pairs, and its
    provenance rows the rows of its pair table (see the module docstring)."""

    t: int                                   # common center size of the groups
    groups: tuple[Group, ...]
    pair_table: np.ndarray                   # ordered_pair_table(groups)
    alpha_closed_form: int                   # per unordered pair, as displayed

    COLORS = 2

    @property
    def p(self) -> int:
        return len(self.groups)

    def pair_signs(self, signs) -> np.ndarray:
        """b_C b_C' per row of the pair table, from per-clause signs."""
        return signs[self.pair_table[:, 1]] * signs[self.pair_table[:, 2]]

    def provenance(self, rows: np.ndarray) -> np.ndarray:
        return self.pair_table[rows, :3]


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

    # pair_table rows are sorted by (group, C, C'), so the per-pair edges sort
    # like the tuples (s, t, group, C, C')
    s_rank, t_rank, side = pattern_edges(sides, 2 * h.n, r, s_pat, t_pat)
    return ColoredKikuchiGraph(n=h.n, k=h.k, r=r, s_rank=s_rank, t_rank=t_rank, t=level,
                               groups=groups, pair_table=pair_table, side=side, of_pair=side_row,
                               alpha=len(s_pat) if len(pair_table) else None,
                               alpha_closed_form=closed)


@dataclass
class DeletionResult:
    """An equalized deletion: every ordered pair keeps kappa of its alpha
    edges, so the quadratic form scales by exactly 1 - rho."""

    surviving: np.ndarray                    # (pairs, alpha) bool over graph.pair_grid
    kappa: Optional[int]                     # common per-pair count; None: no rows or edges
    rho: Fraction                            # 1 - kappa/alpha; 0 when kappa is None

    num_surviving = property(lambda self: int(np.count_nonzero(self.surviving)))


def delete_heavy_edges(g: ColoredKikuchiGraph, eta) -> np.ndarray:
    """One-shot deletion: drop every edge {S,T} from pair (C,C') such that S or T
    is incident (within the same group) to more than eta edges involving C or C'.
    Returns the (pairs, alpha) bool mask of survivors over g.pair_grid.

    eta = math.inf is the no-op sentinel. Surviving per-vertex per-clause
    incidence is <= eta afterwards. An incidence count is at most 2(|G| - 1)
    (see the module docstring), so when 2(max |G| - 1) <= eta every edge is
    kept, and the pair grid is not built.
    """
    _check_eta(eta)
    surviving = np.ones((len(g.pair_table), g.alpha or 0), dtype=bool)
    if not g.num_edges or 2 * (max(len(grp.clause_indices) for grp in g.groups) - 1) <= eta:
        return surviving
    # one key per (vertex, group, clause) incidence, (group, clause) as its
    # slot, packed in the narrowest dtype that holds every key
    num_slots = sum(len(grp.clause_indices) for grp in g.groups)
    key_type = np.min_scalar_type(g.num_vertices * num_slots - 1)
    # each row gathers per-edge vertex keys through the grid straight into the
    # stack (a take with mode="raise" would buffer the row), then adds its slots
    keys = np.empty((4, *surviving.shape), dtype=key_type)
    for row, (v, col) in zip(keys, product((g.s_rank, g.t_rank), (3, 4))):
        np.take(v.astype(key_type) * key_type.type(num_slots), g.pair_grid, out=row, mode="clip")
        row += g.pair_table[:, col, None].astype(key_type)
    ordered = np.sort(keys, axis=None)
    # in sorted order, a key met more than eta times recurs eta places on
    e = math.floor(eta)
    heavy = np.unique(ordered[e:][ordered[e:] == ordered[:-e]])
    del ordered
    # one key row at a time, as np.isin on the whole stack sorts all of it at once
    for row in keys:
        surviving &= np.isin(row, heavy, invert=True)
    return surviving


def equalize_deletion(g: ColoredKikuchiGraph, surviving: np.ndarray) -> DeletionResult:
    """Cut every ordered pair of the mask surviving down to kappa = min
    survival, dropping the lexicographically largest surviving edges;
    rho = 1 - kappa/alpha. The mask is left unmodified and is never the
    result's; an equalized mask comes back equal, with its kappa and rho.

    The resulting quadratic form satisfies x' A_hat x = (1 - rho) x' A x for
    every assignment-induced x, exactly.
    """
    surviving = surviving.copy()
    if g.alpha is None or not g.num_edges:
        return DeletionResult(surviving=surviving, kappa=None, rho=Fraction(0))
    kappa = g.alpha if surviving.all() else int(surviving.sum(axis=1).min())
    if kappa < g.alpha:
        # a row's cells are its pair's edges in stored (sorted) order; keep the first kappa
        surviving &= np.cumsum(surviving, axis=1, dtype=np.min_scalar_type(g.alpha)) <= kappa
    return DeletionResult(surviving=surviving, kappa=kappa, rho=1 - Fraction(kappa, g.alpha))


def _check_eta(eta) -> None:
    if not isinstance(eta, numbers.Real) or isinstance(eta, bool) or math.isnan(eta) or eta < 1:
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


def measured_deletion_fractions(g: ColoredKikuchiGraph, surviving: np.ndarray) -> dict:
    """Per ordered pair (group, C, C'), the fraction of its edges that the
    mask surviving deletes."""
    if g.alpha in (None, 0):
        return {}
    return {tuple(key): 1 - Fraction(cnt, g.alpha)
            for key, cnt in zip(g.pair_table[:, :3].tolist(), surviving.sum(axis=1).tolist())}


def dump_colored(g: ColoredKikuchiGraph) -> str:
    """Text edge list: header then 'S_rank T_rank group C_index C'_index' lines."""
    return dump_edges(f"kikuchi-odd {g.n} {g.r} {g.t} {g.p}", g)
