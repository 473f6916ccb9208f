"""Kikuchi levels: the layout both kinds share (KikuchiEdges), with its edge
generator, capacity check and text dump; the even-arity level, its signed
variant, and the even-cover search over closed walks.

Vertices are the r-subsets S of the vertex set, indexed by colex rank; S ~ T
iff S xor T is a hyperedge, and the edge remembers which one, so a closed
walk's clauses are read off the edge arrays: no vertex or clause is ever held
as a bitmask. Every clause contributes exactly
alpha = C(k-1, k/2-1) * C(n-k, r-k/2) unordered edges, so an even level is a
KikuchiEdges whose sides are its clauses, each its own provenance row
(of_pair the identity); duplicate clauses stay apart, as parallel edges.

pattern_edges builds the edges of both kinds, in one call per level: every
item (a clause here, a distinct reduced side pair of ordered clause pairs
there) yields its edges through the same index patterns, so whole blocks of
items are gathered at once and ranked through a binomial table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import TYPE_CHECKING, Optional

import numpy as np

from .core import CapacityError, EvenCover, Hypergraph, XorInstance, odd_use_cover
from .subsets import (binomial_table, colex_ranks, combination_rows, complement_rows, joined_rows,
                      stable_order, stable_sort)

if TYPE_CHECKING:
    import scipy.sparse as sp

# edges generated per block, and wedges per block of the cover search's
# triangle pass; bounds the working arrays of a build and of that pass
BLOCK_EDGES = 1 << 15
# pattern_edges sorts by the key (s_rank << b) | t_rank, b the bit length of
# C - 1 on C vertices, and the cover search by edge_keys, s_rank * C + t_rank;
# both must fit in 64 bits, so no cap admits C >= 2^32
KEY_VERTEX_LIMIT = (1 << 32) - 1


@dataclass(frozen=True)
class Caps:
    """Hard enumeration limits; exceeding them is an explicit error."""

    max_vertices: int = 5_000_000
    max_edges: int = 50_000_000

    def check(self, ground: int, r: int, edges: int, why: str) -> None:
        """Raise CapacityError before a graph on the r-subsets of range(ground)
        with an estimated `edges` edges is built; why explains the estimate."""
        nv, cap = comb(ground, r), min(self.max_vertices, KEY_VERTEX_LIMIT)
        if nv > cap:
            raise CapacityError(f"C({ground},{r}) = {nv} vertices exceeds cap {cap}")
        if edges > self.max_edges:
            raise CapacityError(f"estimated {edges} edges ({why}) exceeds cap {self.max_edges}")


DEFAULT_CAPS = Caps()


@dataclass(eq=False)
class KikuchiEdges:
    """A Kikuchi level on the r-subsets of range(COLORS * n): its edges
    s_rank < t_rank (endpoint colex ranks, sorted by (s_rank, t_rank)), each
    edge's side, and the side of each provenance row (of_pair): a row is a
    clause of an even level, or an ordered clause pair of a colored one. A
    row stands for all alpha edges of its side, so row p's j-th edge is the
    cell (p, j) of the pair grid (pair_grid): each side's edges in stored
    order, alpha to a row, one row per provenance row. A cut level is its
    built level with keep, a boolean mask over the cells. No method changes
    a field.

    The edge count, degrees, Gamma and signed adjacency weigh each edge by
    the rows that keep it, or under per-clause signs by the sum of their
    pair_signs (sums of +-1, exact in float64): by one np.bincount over
    of_pair, or in a cut level of the kept cells, dropping the edges no row
    keeps. They take no edge mask, and d is average_degree throughout. The
    per-row edges (pair_edges), the kept cells in stable order of their
    edges, are made for edges and dumps alone. Subclasses give
    pair_signs(signs), each row's sign from per-clause signs, and
    provenance(rows), the columns an edge of those rows lists after its ranks.
    """

    n: int
    k: int
    r: int
    s_rank: np.ndarray
    t_rank: np.ndarray
    side: np.ndarray                         # per-edge side
    of_pair: np.ndarray                      # side of each provenance row
    alpha: Optional[int]                     # edges per side and per row; None: no rows
    # (rows, alpha) bool over pair_grid; None: every cell
    keep: Optional[np.ndarray] = field(default=None, kw_only=True)

    COLORS = 1

    @property
    def num_vertices(self) -> int:
        return comb(self.COLORS * self.n, self.r)

    @cached_property
    def num_edges(self) -> int:
        if self.keep is None:
            return int(np.bincount(self.of_pair)[self.side].sum())
        return int(np.count_nonzero(self.keep))

    @property
    def average_degree(self) -> Fraction:
        return Fraction(2 * self.num_edges, self.num_vertices)

    @property
    def tr_gamma(self) -> Fraction:
        """The trace of Gamma = D + d*Id: 2|E| + |V| d."""
        return 2 * self.num_edges + self.num_vertices * self.average_degree

    def cut(self, keep: np.ndarray) -> KikuchiEdges:
        """This level keeping only the cells keep of its pair grid; the cut
        level takes over the grid, so it is built once."""
        level = replace(self, keep=keep)
        level.pair_grid = self.pair_grid
        return level

    @cached_property
    def pair_grid(self) -> np.ndarray:
        """(rows, alpha) edge indices, read-only: row p holds the edges of
        row p's side in stored order, so cell (p, j) is its j-th edge."""
        sides = int(self.of_pair.max(initial=-1)) + 1
        grid = stable_order(self.side, sides).reshape(sides, self.alpha or 0)[self.of_pair]
        grid.flags.writeable = False
        return grid

    @cached_property
    def pair_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """s_rank, t_rank and provenance row of every kept cell of the pair
        grid, sorted by (s_rank, t_rank, row), read-only: each edge once per
        row that keeps it."""
        cells = self.pair_grid.reshape(-1)
        order = stable_order(cells, len(self.s_rank))
        if self.keep is not None:
            order = order[self.keep.reshape(-1)[order]]
        edge = cells[order]
        arrays = self.s_rank[edge], self.t_rank[edge], order // (self.alpha or 1)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Read-only tuple view (s_rank, t_rank, *provenance) of pair_edges."""
        s, t, rows = self.pair_edges
        return tuple(zip(*np.column_stack([s, t, self.provenance(rows)]).T.tolist()))

    # per-vertex degree, edge multiplicity counted
    degrees = property(lambda self: self.subgraph_degrees())

    def _weighted_edges(self, signs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each edge weighs the number of rows that keep it, or under signs
        the sum of their pair_signs (zero where they cancel)."""
        w = np.ones(len(self.of_pair)) if signs is None else self.pair_signs(signs)
        if self.keep is None:
            return self.s_rank, self.t_rank, np.bincount(self.of_pair, w)[self.side]
        cells = self.pair_grid[self.keep]
        held = np.bincount(cells, minlength=len(self.s_rank)) > 0
        weight = np.bincount(cells, np.broadcast_to(w[:, None], self.keep.shape)[self.keep],
                             len(self.s_rank))
        return self.s_rank[held], self.t_rank[held], weight[held]

    def subgraph_degrees(self) -> np.ndarray:
        """The degrees property; perfbench/spans.py times it under this name.
        Weights are whole numbers, so the float64 sums are exact."""
        nv = self.num_vertices
        s, t, w = self._weighted_edges(None)
        return (np.bincount(s, w, nv) + np.bincount(t, w, nv)).astype(np.int64)

    def gamma_diagonal(self) -> list[Fraction]:
        """Gamma = D + d*Id, d the average degree."""
        d = self.average_degree
        return [Fraction(x) + d for x in self.degrees.tolist()]

    def gamma_floats(self) -> np.ndarray:
        """gamma_diagonal() as float64, equal to float() of each entry: under
        Caps every numerator deg * q + p stays below 2^53, so the one rounding
        is that of the division."""
        d = self.average_degree
        return (self.degrees * d.denominator + d.numerator) / d.denominator

    def adjacency(self, signs=None) -> sp.csr_matrix:
        """Symmetric adjacency of the weighted edges, signed by per-clause
        signs. The COO to CSR step sums parallel edges, and where they cancel
        the entry stays as an explicit zero.
        SciPy is imported here, on first use, to keep it out of `import kcert`."""
        import scipy.sparse as sp

        nv = self.num_vertices
        s, t, w = self._weighted_edges(None if signs is None else np.asarray(signs, dtype=float))
        rows, cols = np.concatenate([s, t]), np.concatenate([t, s])
        a = sp.coo_matrix((np.concatenate([w, w]), (rows, cols)), shape=(nv, nv), dtype=np.float64)
        return a.tocsr()


def pattern_edges(front: np.ndarray, ground: int, r: int, s_pat: np.ndarray,
                  t_pat: np.ndarray) -> list[np.ndarray]:
    """Edges of a Kikuchi graph on the r-subsets of range(ground) whose items all
    share one set of index patterns: s_rank < t_rank and each edge's item,
    sorted by (s_rank, t_rank, item).

    Each row of front holds the vertices an item fixes; the rest of
    range(ground), ascending, follows it; the rest is built only when a
    pattern reaches past the front. Row j of s_pat and t_pat picks the
    columns of the two endpoints of each item's j-th edge, so an item's edges
    depend on its row alone. Rows are taken BLOCK_EDGES edges at a time,
    which bounds the working arrays.

    Each edge's key is (s_rank << b) | t_rank as uint64, b the bit length of
    C(ground, r) - 1 (Caps keeps C(ground, r) below 2^32, so it fits). The
    keys are filled block by block into one array that spans the whole graph
    when it is sorted. The key sorts as (s_rank, t_rank) does, and
    subsets.stable_sort sorts it stably: keys are laid out item by item, so
    ties keep ascending items. numpy's stable argsort is a radix sort only up
    to 16 bits (keys on up to 256 vertices) and a timsort above, which
    stable_sort replaces by one plain sort of each key packed with its
    position, whose high bits are then the sorted keys. Those give s_rank and
    t_rank back by a shift and a mask.
    """
    per_item = len(s_pat)
    nv = comb(ground, r)
    bits = max(nv - 1, 0).bit_length()
    shift = np.uint64(bits)
    key = np.empty(len(front) * per_item, dtype=np.uint64)
    if per_item:
        table = binomial_table(ground, r)
        step = max(1, BLOCK_EDGES // per_item)
        width = 1 + max(s_pat.max(initial=-1), t_pat.max(initial=-1))
        for lo in range(0, len(front), step):
            rows = front[lo:lo + step]
            if width > rows.shape[1]:
                rows = np.hstack([rows, complement_rows(rows, ground)])
            # ranks are never negative, so their int64 bits read as uint64
            s, t = (colex_ranks(rows[:, pat].reshape(-1, r), table).view(np.uint64)
                    for pat in (s_pat, t_pat))
            block = slice(lo * per_item, (lo + len(rows)) * per_item)
            key[block] = np.minimum(s, t) << shift | np.maximum(s, t)
    key, order = stable_sort(key, 1 << 2 * bits)
    s = key >> shift
    key &= np.uint64((1 << bits) - 1)
    order //= per_item
    return [s.view(np.int64), key.view(np.int64), order]


def dump_edges(header: str, g: KikuchiEdges) -> str:
    """Text edge list: the header, then one line per edge of its stored tuple
    (s_rank, t_rank, *provenance)."""
    lines = [header] + [" ".join(map(str, e)) for e in g.edges]
    return "\n".join(lines) + "\n"


class EvenKikuchiGraph(KikuchiEdges):
    """An even level: each clause is a side and its own provenance row."""

    def pair_signs(self, signs) -> np.ndarray:
        return signs

    def provenance(self, rows: np.ndarray) -> np.ndarray:
        return rows

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """s_rank * C + t_rank per edge on C vertices, sorted as the edges are."""
        key_type = np.min_scalar_type(self.num_vertices ** 2 - 1)
        nv = key_type.type(self.num_vertices)
        return self.s_rank.astype(key_type) * nv + self.t_rank.astype(key_type)


@dataclass
class SignedEvenKikuchi:
    graph: EvenKikuchiGraph
    edge_signs: np.ndarray         # aligned with graph.edges; b of the edge's clause


def _checked_alpha(h: Hypergraph, r: int, caps: Caps) -> int:
    """alpha of the level-r graph of h, once k and r are valid and caps admit it."""
    if h.k % 2 != 0:
        raise ValueError(f"k = {h.k} is odd; use the colored Kikuchi construction instead")
    half = h.k // 2
    if r < half or r > h.n:
        raise ValueError(f"level parameter must satisfy k/2 <= r <= n, got r = {r}")
    alpha = comb(h.k - 1, half - 1) * comb(h.n - h.k, r - half) if r - half <= h.n - h.k else 0
    caps.check(h.n, r, alpha * h.m, f"alpha = {alpha}, m = {h.m}")
    return alpha


def build_even_kikuchi(h: Hypergraph, r: int, caps: Caps = DEFAULT_CAPS) -> EvenKikuchiGraph:
    """Enumerate the Kikuchi graph explicitly, with per-clause edge provenance."""
    alpha = _checked_alpha(h, r, caps)
    half = h.k // 2

    # column patterns into [clause | rest of range(n)]: one side takes a split
    # half, both sides the same r - k/2 vertices of the rest; the halves holding
    # the clause minimum (the first C(k-1, k/2-1) in lexicographic order) go to
    # S, so each edge shows up once
    s_half = combination_rows(h.k, half)[:comb(h.k - 1, half - 1)]
    w = combination_rows(h.n - h.k, r - half) + h.k
    s_pat, t_pat = joined_rows(s_half, w), joined_rows(complement_rows(s_half, h.k), w)
    assert len(s_pat) == alpha, (len(s_pat), alpha)
    clauses = np.array(h.edges, dtype=np.int64).reshape(h.m, h.k)
    s_rank, t_rank, side = pattern_edges(clauses, h.n, r, s_pat, t_pat)
    return EvenKikuchiGraph(n=h.n, k=h.k, r=r, s_rank=s_rank, t_rank=t_rank, side=side,
                            of_pair=np.arange(h.m), alpha=alpha)


def signed_even_kikuchi(inst: XorInstance, r: int, caps: Caps = DEFAULT_CAPS) -> SignedEvenKikuchi:
    g = build_even_kikuchi(inst.hypergraph, r, caps)
    return SignedEvenKikuchi(graph=g, edge_signs=np.asarray(inst.signs)[g.side])


def _first_triangle(g: EvenKikuchiGraph) -> Optional[EvenCover]:
    """The three clauses of the triangle (R, u, v) with R < u < v least in
    lexicographic order, or None when the graph has no triangle. The graph
    must have no parallel edges, so each edge has one clause.

    Every triangle R < u < v is the wedge (u, v) of R's higher neighbours
    (its edges (R, u) and (R, v)) closed by the edge (u, v). The edges are
    sorted by (s_rank, t_rank), so edge e heads the wedges (e, e + 1), ...,
    (e, last edge of its s_rank run), and taking the heads in edge order gives
    the wedges in lexicographic order. Each wedge's key t_rank(u) * C +
    t_rank(v) is looked up by binary search in the sorted edge keys,
    BLOCK_EDGES wedges at a time.
    """
    s, t, keys = g.s_rank, g.t_rank, g.edge_keys
    nv, key_type = g.num_vertices, keys.dtype.type
    # edge e heads one wedge per later edge of its s_rank run; the run ends
    # at the number of edges with s_rank <= s_rank[e]
    heads = np.cumsum(np.bincount(s, minlength=nv))[s] - 1 - np.arange(len(s))
    before = np.concatenate([[0], np.cumsum(heads)])     # wedges headed by edges < e
    lo = 0
    while lo < len(s):
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + BLOCK_EDGES, side="right")) - 1)
        count = heads[lo:hi]
        u = np.repeat(np.arange(lo, hi), count)
        v = u + 1 + np.arange(len(u)) - np.repeat(before[lo:hi] - before[lo], count)
        wedge = t[u].astype(key_type) * key_type(nv) + t[v].astype(key_type)
        closing = np.minimum(np.searchsorted(keys, wedge), len(keys) - 1)
        hit = np.flatnonzero(keys[closing] == wedge)
        if len(hit):
            i = hit[0]
            return EvenCover(frozenset(g.side[[u[i], v[i], closing[i]]].tolist()))
        lo = hi
    return None


def _triple_clauses(h: Hypergraph, alpha: int) -> np.ndarray:
    """The clauses that lie in a zero-xor triple of distinct clauses, ascending,
    in a hypergraph with no duplicate clauses; every clause when the candidate
    pairs outnumber the m * alpha edges of its Kikuchi graph.

    Ca xor Cb is a k-set only if the clauses share exactly k/2 vertices, one
    k/2-subset H, and then the triple closes with (Ca - H) | (Cb - H). So each
    clause's C(k, k/2) (half, complement) incidences are keyed by the colex
    ranks of both sides, half * C + complement on C = C(n, k/2) subsets, and
    sorted; the candidate pairs are the incidences with one half, and a pair
    closes a triple when the key of its two complements is some incidence's.
    When alpha > 0, k/2 <= r <= n - k/2, so C(n, k/2) <= C(n, r) < 2^32 and
    the keys fit in 64 bits. Memory is O(m C(k, k/2) + candidate pairs).
    """
    half = h.k // 2
    # in lexicographic order, row j's complement in range(k) is row -1 - j
    sides = combination_rows(h.k, half)
    per, nh = len(sides), comb(h.n, half)
    key_type = np.min_scalar_type(nh * nh - 1).type
    c = key_type(nh)
    clauses = np.array(h.edges, dtype=np.int64).reshape(h.m, h.k)
    ranks = colex_ranks(clauses[:, sides].reshape(-1, half), binomial_table(h.n, half))
    ranks = ranks.astype(key_type).reshape(h.m, per)
    keys = (ranks * c + ranks[:, ::-1]).reshape(-1)
    order = np.argsort(keys)
    keys = keys[order]
    halves, rests = keys // c, keys % c
    # incidence i pairs with every later one up to the end of its half's run
    count = np.searchsorted(halves, halves, side="right") - 1 - np.arange(len(keys))
    total = int(count.sum())
    if total > h.m * alpha:
        return np.arange(h.m)
    a = np.repeat(np.arange(len(keys)), count)
    b = a + 1 + np.arange(total) - np.repeat(np.cumsum(count) - count, count)
    wanted = rests[a] * c + rests[b]
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    hit = keys[at] == wanted
    in_triple = np.zeros(h.m, dtype=bool)
    for i in (a[hit], b[hit], at[hit]):
        in_triple[order[i] // per] = True
    return np.flatnonzero(in_triple)


def shortest_even_cover_via_kikuchi(h: Hypergraph, r: int, caps: Caps = DEFAULT_CAPS,
                                    max_len: Optional[int] = None
                                    ) -> Optional[tuple[int, EvenCover]]:
    """Search short non-trivial closed walks and extract an even cover.

    Returns (walk length, cover) for the walk a BFS from every vertex of
    positive degree, in rank order, takes first among the shortest with a
    nonempty odd-use set, or None when no walk of at most max_len steps has
    one: every non-tree edge closing two root paths yields a candidate walk,
    and a later root replaces the best walk only with a strictly shorter one.
    The walk length proves cover size <= length; minimality is the exhaustive
    oracle's job, not this routine's.

    The search runs in stages, each exact because a stage is reached only when
    no shorter walk exists:
    - Length 2: two steps between the same vertices take clauses of one vertex
      set, so duplicate clauses give every 2-step walk; with none there are no
      parallel edges, and with max_len < 3 the answer is None.
    - Length 3: a closed 3-step walk is a triangle, and the BFS first closes
      one from the least vertex R on any triangle: the triangle (R, u, v) with
      u the least neighbour of R on one and v the least neighbour of u that
      closes it. One array pass over the wedges finds it (_first_triangle).
      A triangle's three clauses are distinct and xor to zero, so the pass
      runs on the graph of the kept clauses (_triple_clauses: those in such a
      triple, or all of them where the candidate pairs outnumber the whole
      graph's edges), with the same n and r and so the same vertex ranks: it
      holds every triangle of the whole graph and no other, so its least
      triangle is the same. When every clause is kept, that graph is h's own.
    - Length 4 and up: in a graph with no triangle and no parallel edges, no
      closed walk with a nonempty odd-use set is shorter than 4, so the BFS
      stops at its first such 4-step walk; past that it scans every root.
      The whole graph is built here unless the triangle pass built it, so at
      most once; but its capacity check comes first of all, so a graph over
      the caps is refused even where a shorter stage would have found a walk.

    The BFS stores each vertex's parent vertex only: with no parallel edges a
    vertex pair has one clause, looked up in the sorted edge_keys when a
    candidate walk is rebuilt, up to where its two root paths meet (the steps
    above are used twice and cancel). A vertex's neighbours, ascending, are
    a slice of one list, taken on its first expansion: the stable order of
    the endpoint ranks (t_rank, then s_rank; subsets.stable_order), as the
    edges are sorted by (s_rank, t_rank). The covers found depend on this
    order. Only numpy is used, so the search never loads SciPy.
    """
    alpha = _checked_alpha(h, r, caps)
    cap = max_len if max_len is not None else comb(h.n, r) + 1
    if not alpha * h.m or cap < 2:
        return None

    # clauses are sorted vertex tuples, so equal tuples are duplicate clauses
    by_clause: dict[tuple[int, ...], list[int]] = {}
    for i, e in enumerate(h.edges):
        by_clause.setdefault(e, []).append(i)
    for idxs in by_clause.values():
        if len(idxs) >= 2:
            return 2, EvenCover(frozenset(idxs[:2]))
    if cap < 3:
        return None
    keep = _triple_clauses(h, alpha)
    part = h if len(keep) == h.m else Hypergraph._of_valid_rows(
        h.n, h.k, tuple(h.edges[i] for i in keep.tolist()))
    g = build_even_kikuchi(part, r, caps) if len(keep) else None
    triangle = None if g is None else _first_triangle(g)
    if triangle is not None:
        return 3, EvenCover(frozenset(keep[list(triangle.edge_indices)].tolist()))
    if cap < 4:
        return None
    if part is not h:
        g = build_even_kikuchi(h, r, caps)

    # the sorted keys are made before the neighbour lists, so that their
    # temporaries are freed before the lists exist
    nv, keys = g.num_vertices, g.edge_keys
    ends = np.concatenate([g.t_rank, g.s_rank])
    nbr = np.concatenate([g.s_rank, g.t_rank])[stable_order(ends, nv)].tolist()
    degree = np.bincount(ends, minlength=nv)
    start = np.concatenate([[0], np.cumsum(degree)]).tolist()
    adj: list[Optional[list[int]]] = [None] * nv

    found: Optional[EvenCover] = None
    limit = cap + 1                            # then the length of the walk found
    for root in np.flatnonzero(degree).tolist():
        dist = {root: 0}
        parent = {root: root}
        frontier, d = [root], 0
        while frontier:
            nxt = []
            for u in frontier:
                if 2 * d + 1 >= limit:
                    break
                if adj[u] is None:
                    adj[u] = nbr[start[u]:start[u + 1]]
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = d + 1
                        parent[v] = u
                        nxt.append(v)
                    elif parent[u] != v:
                        length = d + dist[v] + 1
                        if length >= limit:
                            continue
                        walk, x, y = [min(u, v) * nv + max(u, v)], u, v
                        while x != y:
                            if dist[x] < dist[y]:
                                x, y = y, x
                            p = parent[x]
                            walk.append(min(x, p) * nv + max(x, p))
                            x = p
                        steps = np.searchsorted(keys, np.array(walk, keys.dtype))
                        cover = odd_use_cover(g.side[steps].tolist())
                        if cover.edge_indices:
                            if length == 4:
                                return length, cover
                            found, limit = cover, length
            frontier, d = nxt, d + 1
    return None if found is None else (limit, found)


def dump_even(g: EvenKikuchiGraph) -> str:
    """Text edge list: header then one 'S_rank T_rank clause_index' line per edge."""
    return dump_edges(f"kikuchi-even {g.n} {g.r} {len(g.of_pair)}", g)
