"""Even-arity Kikuchi graphs: explicit construction, reweighting data, signed
variant, and even-cover extraction from closed walks; also what the colored
graphs of kikuchi_odd share: the edge-array layout, the edge generator, the
capacity check and the text dump.

Vertices are the r-subsets S of the vertex set, indexed by colex rank; S ~ T
iff S xor T is a hyperedge, and the edge remembers which one. Every clause
contributes exactly alpha = C(k-1, k/2-1) * C(n-k, r-k/2) unordered edges.

Edges live in parallel int64 arrays (s_rank, t_rank, provenance), sorted as the
tuples (s_rank, t_rank, *provenance) sort. pattern_edges builds them for both
graph kinds: every item (a clause here, an ordered clause pair there) yields
its edges through the same index patterns, so whole blocks of items are
gathered at once and ranked through a binomial table.
"""

from __future__ import annotations

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

    def check(self, ground: int, r: int, edges: int, why: str) -> None:
        """Raise CapacityError before a graph on the r-subsets of range(ground)
        with an estimated `edges` edges is built; why explains the estimate."""
        nv = comb(ground, r)
        if nv > self.max_vertices:
            raise CapacityError(f"C({ground},{r}) = {nv} vertices exceeds cap {self.max_vertices}")
        if edges > self.max_edges:
            raise CapacityError(f"estimated {edges} edges ({why}) exceeds cap {self.max_edges}")


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


def pattern_edges(num_items: int, front, ground: int, r: int, s_pat: np.ndarray,
                  t_pat: np.ndarray) -> list[np.ndarray]:
    """Edges of a Kikuchi graph on the r-subsets of range(ground) whose items all
    share one set of index patterns: s_rank < t_rank and each edge's item,
    sorted by (s_rank, t_rank, item).

    front(lo, hi) gives one row per item lo..hi-1, the vertices the item fixes;
    the rest of range(ground), ascending, follows it. Row j of s_pat and t_pat
    picks the columns of the two endpoints of each item's j-th edge. Items are
    taken BLOCK_EDGES edges at a time, which bounds the working arrays.
    """
    per_item = len(s_pat)
    s_all, t_all = np.empty((2, num_items * per_item), dtype=np.int64)
    if per_item:
        table = binomial_table(ground, r)
        step = max(1, BLOCK_EDGES // per_item)
        for lo in range(0, num_items, step):
            rows = front(lo, min(lo + step, num_items))
            rows = np.hstack([rows, complement_rows(rows, ground)])
            out = slice(lo * per_item, (lo + len(rows)) * per_item)
            s_all[out] = colex_ranks(rows[:, s_pat].reshape(-1, r), table)
            t_all[out] = colex_ranks(rows[:, t_pat].reshape(-1, r), table)
    item = np.repeat(np.arange(num_items, dtype=np.int64), per_item)
    s, t = np.minimum(s_all, t_all), np.maximum(s_all, t_all)
    order = np.lexsort((item, t, s))
    return [s[order], t[order], item[order]]


def dump_edges(header: str, g: KikuchiEdges) -> str:
    """Text edge list: the header, then one line per edge of its stored tuple
    (s_rank, t_rank, *provenance)."""
    lines = [header] + [" ".join(map(str, e)) for e in g.edges]
    return "\n".join(lines) + "\n"


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
    alpha = comb(h.k - 1, half - 1) * comb(h.n - h.k, r - half) if r - half <= h.n - h.k else 0
    caps.check(h.n, r, alpha * h.m, f"alpha = {alpha}, m = {h.m}")

    # column patterns into [clause | rest of range(n)]: one side takes a split
    # half, both sides the same r - k/2 vertices of the rest; the halves holding
    # the clause minimum (the first C(k-1, k/2-1) in lexicographic order) go to
    # S, so each edge shows up once
    s_half = combination_rows(h.k, half)[:comb(h.k - 1, half - 1)]
    w = combination_rows(h.n - h.k, r - half) + h.k
    s_pat, t_pat = joined_rows(s_half, w), joined_rows(complement_rows(s_half, h.k), w)
    assert len(s_pat) == alpha, (len(s_pat), alpha)
    clauses = np.array(h.edges, dtype=np.int64).reshape(h.m, h.k)
    s_rank, t_rank, clause = pattern_edges(h.m, lambda lo, hi: clauses[lo:hi], h.n, r,
                                           s_pat, t_pat)

    return EvenKikuchiGraph(n=h.n, k=h.k, r=r, s_rank=s_rank, t_rank=t_rank, m=h.m,
                            clause=clause, alpha=alpha, clause_masks=h.edge_masks())


def signed_even_kikuchi(inst: XorInstance, r: int, caps: Caps = DEFAULT_CAPS) -> SignedEvenKikuchi:
    g = build_even_kikuchi(inst.hypergraph, r, caps)
    return SignedEvenKikuchi(graph=g, edge_signs=g.edge_signs(np.asarray(inst.signs)).tolist())


def kikuchi_stats(g: EvenKikuchiGraph) -> dict:
    """Exact summary: alpha, sizes, average degree, degree histogram."""
    degree, count = np.unique(g.degrees, return_counts=True)
    return {
        "alpha": g.alpha,
        "num_vertices": g.num_vertices,
        "num_edges": g.num_edges,
        "average_degree": g.average_degree,
        "degree_histogram": dict(zip(degree.tolist(), count.tolist())),
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
    return dump_edges(f"kikuchi-even {g.n} {g.r} {g.m}", g)
