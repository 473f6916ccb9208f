"""Even-arity Kikuchi graphs: explicit construction, reweighting data, signed
variant, and even-cover extraction from closed walks; also the edge-array
layout that the colored graphs of kikuchi_odd share.

Vertices are the r-subsets S of the vertex set, indexed by colex rank; S ~ T
iff S xor T is a hyperedge, and the edge remembers which one. Every clause
contributes exactly alpha = C(k-1, k/2-1) * C(n-k, r-k/2) unordered edges.

Edges live in parallel int64 arrays (s_rank, t_rank, provenance), sorted as the
tuples (s_rank, t_rank, *provenance) sort. Builds gather the subsets of whole
blocks of edges through index patterns every clause shares and rank them
through a binomial table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import TYPE_CHECKING, ClassVar, Optional

import numpy as np

from .core import CapacityError, EvenCover, Hypergraph, XorInstance, odd_use_cover
from .subsets import (all_subset_masks_colex, binomial_table, colex_ranks, combination_rows,
                      complement_rows, joined_rows)

if TYPE_CHECKING:
    import scipy.sparse as sp

# edges generated per block; bounds the working arrays of a build
BLOCK_EDGES = 1 << 15


@dataclass(frozen=True)
class Caps:
    """Hard enumeration limits; exceeding them is an explicit error."""

    max_vertices: int = 5_000_000
    max_edges: int = 50_000_000


DEFAULT_CAPS = Caps()


@dataclass(eq=False)
class KikuchiEdges:
    """Edge arrays of a Kikuchi graph on the r-subsets of range(COLORS * n);
    s_rank < t_rank are endpoint colex ranks. Subclasses add the provenance,
    named in PROVENANCE, and edge_signs(signs): per-edge from per-clause signs."""

    n: int
    k: int
    r: int
    s_rank: np.ndarray
    t_rank: np.ndarray

    COLORS = 1
    PROVENANCE: ClassVar[tuple[str, ...]] = ()

    @property
    def num_vertices(self) -> int:
        return comb(self.COLORS * self.n, self.r)

    @property
    def num_edges(self) -> int:
        return len(self.s_rank)

    @property
    def average_degree(self) -> Fraction:
        return Fraction(2 * self.num_edges, self.num_vertices)

    @cached_property
    def vertex_masks(self) -> list[int]:
        """Vertex bitmasks in colex order; built only when first asked for."""
        return all_subset_masks_colex(self.COLORS * self.n, self.r)

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Read-only tuple view (s_rank, t_rank, *provenance), in stored order."""
        cols = [self.s_rank, self.t_rank] + [getattr(self, f) for f in self.PROVENANCE]
        return tuple(zip(*(c.tolist() for c in cols)))

    # per-vertex degree, edge multiplicity counted
    degrees = property(lambda self: self.subgraph_degrees())

    def subgraph_degrees(self, keep=None) -> np.ndarray:
        s, t = self.s_rank, self.t_rank
        if keep is not None:
            s, t = s[keep], t[keep]
        nv = self.num_vertices
        return np.bincount(s, minlength=nv) + np.bincount(t, minlength=nv)

    def _degrees_and_d(self, degrees) -> tuple[np.ndarray, Fraction]:
        deg = self.degrees if degrees is None else np.asarray(degrees)
        return deg, Fraction(int(np.sum(deg)), self.num_vertices)

    def gamma_diagonal(self, degrees=None) -> list[Fraction]:
        """Gamma = D + d*Id of the graph, or of the subgraph with these degrees."""
        deg, d = self._degrees_and_d(degrees)
        return [Fraction(x) + d for x in deg.tolist()]

    def gamma_floats(self, degrees=None) -> np.ndarray:
        """gamma_diagonal(degrees) as float64, equal to float() of each entry:
        under Caps every numerator deg * q + p stays below 2^53, so the one
        rounding is that of the division."""
        deg, d = self._degrees_and_d(degrees)
        return (deg * d.denominator + d.numerator) / d.denominator

    def adjacency(self, signs=None, keep=None) -> sp.csr_matrix:
        """Symmetric adjacency of the subgraph kept by the boolean edge mask keep
        (default all), signed by per-clause signs; parallel edges accumulate.
        SciPy is imported here, on first use, to keep it out of `import kcert`."""
        import scipy.sparse as sp

        nv = self.num_vertices
        s, t = self.s_rank, self.t_rank
        w = np.ones(len(s)) if signs is None else self.edge_signs(np.asarray(signs, dtype=float))
        if keep is not None:
            s, t, w = s[keep], t[keep], w[keep]
        rows, cols = np.concatenate([s, t]), np.concatenate([t, s])
        a = sp.coo_matrix((np.concatenate([w, w]), (rows, cols)), shape=(nv, nv), dtype=np.float64)
        return a.tocsr()


def sorted_edge_arrays(s: np.ndarray, t: np.ndarray, tiebreak: np.ndarray) -> list[np.ndarray]:
    """Orient every edge as s < t and sort by (s, t, tiebreak)."""
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    order = np.lexsort((tiebreak, hi, lo))
    return [lo[order], hi[order], tiebreak[order]]


@dataclass(eq=False)
class EvenKikuchiGraph(KikuchiEdges):
    m: int
    clause: np.ndarray                         # per-edge clause index
    alpha: int                                 # unordered edges per clause
    clause_masks: tuple[int, ...]              # hyperedge bitmasks, by clause index

    PROVENANCE = ("clause",)

    def edge_signs(self, signs) -> np.ndarray:
        return signs[self.clause]


@dataclass
class SignedEvenKikuchi:
    graph: EvenKikuchiGraph
    edge_signs: list[int]          # aligned with graph.edges; b of the edge's clause


def build_even_kikuchi(h: Hypergraph, r: int, caps: Caps = DEFAULT_CAPS) -> EvenKikuchiGraph:
    """Enumerate the Kikuchi graph explicitly, with per-clause edge provenance."""
    if h.k % 2 != 0:
        raise ValueError(f"k = {h.k} is odd; use the colored Kikuchi construction instead")
    half = h.k // 2
    if r < half or r > h.n:
        raise ValueError(f"level parameter must satisfy k/2 <= r <= n, got r = {r}")
    nv = comb(h.n, r)
    alpha = comb(h.k - 1, half - 1) * comb(h.n - h.k, r - half) if r - half <= h.n - h.k else 0
    if nv > caps.max_vertices:
        raise CapacityError(f"C({h.n},{r}) = {nv} vertices exceeds cap {caps.max_vertices}")
    if alpha * h.m > caps.max_edges:
        raise CapacityError(
            f"estimated {alpha * h.m} edges (alpha = {alpha}, m = {h.m}) exceeds cap {caps.max_edges}"
        )

    clauses = np.array(h.edges, dtype=np.int64).reshape(h.m, h.k)
    s_all, t_all = np.empty((2, alpha * h.m), dtype=np.int64)
    if alpha:
        table = binomial_table(h.n, r)
        # column patterns into [clause | rest of range(n)]: one side takes a
        # split half, both sides the same r - k/2 vertices of the rest; the
        # halves holding the clause minimum (the first C(k-1, k/2-1) in
        # lexicographic order) go to S, so each edge shows up once
        s_half = combination_rows(h.k, half)[:comb(h.k - 1, half - 1)]
        w = combination_rows(h.n - h.k, r - half) + h.k
        s_pat, t_pat = joined_rows(s_half, w), joined_rows(complement_rows(s_half, h.k), w)
        step = max(1, BLOCK_EDGES // alpha)
        for lo in range(0, h.m, step):
            block = clauses[lo:lo + step]
            ground = np.hstack([block, complement_rows(block, h.n)])
            out = slice(lo * alpha, (lo + len(block)) * alpha)
            s_all[out] = colex_ranks(ground[:, s_pat].reshape(-1, r), table)
            t_all[out] = colex_ranks(ground[:, t_pat].reshape(-1, r), table)
    s_rank, t_rank, clause = sorted_edge_arrays(
        s_all, t_all, np.repeat(np.arange(h.m, dtype=np.int64), alpha))

    per_clause = set(np.bincount(clause, minlength=h.m).tolist())
    if per_clause - {alpha}:
        raise AssertionError(f"clauses contributed {sorted(per_clause)} edges, not alpha = {alpha}")

    return EvenKikuchiGraph(n=h.n, k=h.k, r=r, s_rank=s_rank, t_rank=t_rank, m=h.m,
                            clause=clause, alpha=alpha, clause_masks=h.edge_masks())


def signed_even_kikuchi(inst: XorInstance, r: int, caps: Caps = DEFAULT_CAPS) -> SignedEvenKikuchi:
    g = build_even_kikuchi(inst.hypergraph, r, caps)
    return SignedEvenKikuchi(graph=g, edge_signs=g.edge_signs(np.asarray(inst.signs)).tolist())


def kikuchi_stats(g: EvenKikuchiGraph) -> dict:
    """Exact summary: alpha, sizes, average degree, degree histogram, Gamma diagonal."""
    d = g.average_degree
    hist = Counter(int(x) for x in g.degrees)
    return {
        "alpha": g.alpha,
        "num_vertices": g.num_vertices,
        "num_edges": g.num_edges,
        "average_degree": d,
        "degree_histogram": dict(sorted(hist.items())),
        "gamma_diagonal": g.gamma_diagonal(),
        "degenerate": g.num_edges == 0,
    }


def extract_cover_from_closed_walk(g: EvenKikuchiGraph, walk: list[int]) -> EvenCover:
    """Clause indices used an odd number of times along a closed walk.

    The walk is a vertex-rank sequence [v0, ..., v_{L-1}], closing v_{L-1} -> v0;
    each consecutive pair must be a Kikuchi edge. The result always verifies
    (possibly as the empty cover, when the walk is trivial). Steps along a
    duplicated clause resolve to the smallest matching index.
    """
    if len(walk) < 2:
        raise ValueError("walk must have at least two vertices")
    lookup: dict[int, int] = {}
    for i, mk in enumerate(g.clause_masks):
        lookup.setdefault(mk, i)
    steps = []
    for i, s in enumerate(walk):
        t = walk[(i + 1) % len(walk)]
        diff = g.vertex_masks[s] ^ g.vertex_masks[t]
        ci = lookup.get(diff)
        if ci is None:
            raise ValueError(f"walk step {i}: symmetric difference is not a hyperedge")
        steps.append(ci)
    return odd_use_cover(steps)


def shortest_even_cover_via_kikuchi(h: Hypergraph, r: int, caps: Caps = DEFAULT_CAPS,
                                    max_len: Optional[int] = None
                                    ) -> Optional[tuple[int, EvenCover]]:
    """Search short non-trivial closed walks and extract an even cover.

    Strategy: duplicate clauses give a 2-step walk immediately; otherwise BFS
    from every vertex, and every non-tree edge closing two root paths yields a
    candidate closed walk whose odd-multiplicity clause set is tested. Returns
    (walk length, cover) for the shortest candidate with a nonempty extraction,
    or None. The walk length proves cover size <= length; minimality is the
    exhaustive oracle's job, not this routine's.
    """
    g = build_even_kikuchi(h, r, caps)
    cap = max_len if max_len is not None else g.num_vertices + 1

    by_mask: dict[int, list[int]] = {}
    for i, mk in enumerate(h.edge_masks()):
        by_mask.setdefault(mk, []).append(i)
    if g.alpha >= 1:
        for mk, idxs in by_mask.items():
            if len(idxs) >= 2 and 2 <= cap:
                cover = EvenCover(frozenset(idxs[:2]))
                return 2, cover

    # the edges are sorted, so each vertex lists its (neighbour, clause) steps
    # ascending; the covers the BFS finds depend on this order
    adj: dict[int, list[tuple[int, int]]] = {}
    for s, t, c in zip(g.s_rank.tolist(), g.t_rank.tolist(), g.clause.tolist()):
        adj.setdefault(s, []).append((t, c))
        adj.setdefault(t, []).append((s, c))

    best: Optional[tuple[int, EvenCover]] = None
    roots = sorted(adj)
    for root in roots:
        dist = {root: 0}
        parent: dict[int, tuple[int, int]] = {}
        frontier = [root]
        limit = (best[0] if best else cap + 1)
        while frontier:
            nxt = []
            for u in frontier:
                if 2 * dist[u] + 1 >= limit:
                    continue
                for v, c in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = (u, c)
                        nxt.append(v)
                    elif parent.get(u, (None, None))[0] != v:
                        length = dist[u] + dist[v] + 1
                        if length > cap or (best and length >= best[0]):
                            continue
                        steps = [c]
                        for end in (u, v):
                            x = end
                            while x != root:
                                x, pc = parent[x]
                                steps.append(pc)
                        cover = odd_use_cover(steps)
                        if cover.edge_indices:
                            best = (length, cover)
                            limit = length
            frontier = nxt
    return best


def dump_even(g: EvenKikuchiGraph) -> str:
    """Text edge list: header then one 'S_rank T_rank clause_index' line per edge."""
    lines = [f"kikuchi-even {g.n} {g.r} {g.m}"]
    lines += [f"{s} {t} {c}" for (s, t, c) in g.edges]
    return "\n".join(lines) + "\n"
