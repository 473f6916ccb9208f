"""Property tests: the edge-array Kikuchi core against plain loops over edges,
and the array kernels against the numpy passes they replaced: np.sort per row
for colex ranks, np.lexsort((item, t, s)) for the edge order,
np.argsort(kind="stable") for stable_order, a COO to CSR conversion of every
edge for the adjacency, the full deletion and equalization passes over the
per-pair edges for the passes over the pair grid, the per-pair degrees and
adjacency, summed run by run, for a level's weighted distinct edges, and the
subgraph of the kept per-pair edges for a cut level."""

import dataclasses
import math
import pathlib
import random
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kcert import Hypergraph, XorInstance, gen_random, kikuchi_even, kikuchi_odd, load_xor
from kcert.decomposition import Decomposition, Group, decompose_for_refutation
from kcert.kikuchi_even import BLOCK_EDGES, build_even_kikuchi, pattern_edges
from kcert.kikuchi_odd import (build_colored_kikuchi, delete_heavy_edges, equalize_deletion,
                               ordered_pair_table)
from kcert.refuter import refute_odd, verify_certificate
from kcert.subsets import (binomial_table, colex_ranks, complement_rows, mask_from, stable_order,
                           stable_sort)
from pair_cells import cell_positions, edge_mask
from subset_masks import all_subset_masks_colex

SEEDS = st.integers(0, 2**30 - 1)


def random_even_graph(seed):
    rng = random.Random(seed)
    k = rng.choice([2, 4])
    n = rng.randrange(k + 1, 10)
    h = gen_random(n, k, rng.randrange(0, 12), seed, mode="hyg-multi")
    return h, build_even_kikuchi(h, rng.randrange(k // 2, min(n, 4) + 1))


def random_colored_graph(seed):
    """A level with one to three groups; clauses may repeat or overlap beyond
    their center, so deletion has something to do."""
    rng = random.Random(seed)
    k = rng.choice([3, 5])
    level = rng.randrange(1, 3)
    n = rng.randrange(k + 1, 8)
    edges, groups = [], []
    for _ in range(rng.randrange(1, 4)):
        center = tuple(sorted(rng.sample(range(n), level)))
        others = [v for v in range(n) if v not in center]
        ids = []
        for _ in range(rng.randrange(1, 5)):
            ids.append(len(edges))
            edges.append(tuple(sorted(center + tuple(rng.sample(others, k - level)))))
        groups.append(Group(center=center, clause_indices=tuple(ids)))
    h = Hypergraph(n=n, k=k, edges=tuple(edges))
    pieces = {t: (tuple(groups) if t == level else ()) for t in range(1, k)}
    decomp = Decomposition(mode="refute", n=n, k=k, r=2, eps=Fraction(1, 4), pieces=pieces,
                           thresholds={t: 2 for t in range(1, k)})
    r = rng.randrange(max(1, k - level - 1), k - level + 3)
    return h, build_colored_kikuchi(h, decomp, level, r), rng


def masked(g, keep):
    """The level of the edges the boolean mask keep over g.edges keeps: g cut
    by keep's cells."""
    return g.cut(keep[cell_positions(g)])


def per_edge(g, signs=None):
    """s_rank, t_rank and float64 weight of every edge, one per provenance row
    that keeps it: 1, or the row's sign under per-clause signs."""
    s, t, row = g.pair_edges
    if signs is None:
        return s, t, np.ones(len(s))
    return s, t, g.pair_signs(np.asarray(signs, dtype=float))[row]


def masks_and_ranks(g):
    """Vertex bitmasks in colex order, and the rank of each mask."""
    vm = all_subset_masks_colex(g.COLORS * g.n, g.r)
    return vm, {mk: i for i, mk in enumerate(vm)}


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_even_build_matches_subset_scan(seed):
    # every S meeting a clause C in k/2 vertices is joined to S xor C
    h, g = random_even_graph(seed)
    vm, rank = masks_and_ranks(g)
    want = []
    for c, cm in enumerate(h.edge_masks()):
        for s, sm in enumerate(vm):
            if (sm & cm).bit_count() == h.k // 2 and rank[sm ^ cm] > s:
                want.append((s, rank[sm ^ cm], c))
    assert list(g.edges) == sorted(want)


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_colored_build_matches_subset_scan(seed):
    # S meets green C~ in ceil((k-t)/2) and blue C~' in floor((k-t)/2); for even
    # k - t, S also holds min(C~), so each unordered edge shows up once
    h, g, _ = random_colored_graph(seed)
    vm, rank = masks_and_ranks(g)
    kt = g.k - g.t
    masks = h.edge_masks()
    want = []
    for gi, grp in enumerate(g.groups):
        umask = mask_from(grp.center)
        for a in grp.clause_indices:
            for b in grp.clause_indices:
                if a == b:
                    continue
                green, blue = masks[a] ^ umask, (masks[b] ^ umask) << g.n
                pin = green & -green if kt % 2 == 0 else 0
                for s, sm in enumerate(vm):
                    if ((sm & green).bit_count() == (kt + 1) // 2
                            and (sm & blue).bit_count() == kt // 2 and sm & pin == pin):
                        t = rank[sm ^ green ^ blue]
                        want.append((min(s, t), max(s, t), gi, a, b))
    assert list(g.edges) == sorted(want)


@given(SEEDS, st.booleans())
@settings(max_examples=40, deadline=None)
def test_adjacency_and_degrees_match_edge_loop(seed, colored):
    if colored:
        h, g, rng = random_colored_graph(seed)
    else:
        (h, g), rng = random_even_graph(seed), random.Random(seed)
    signs = [rng.choice([-1, 1]) for _ in range(h.m)]
    keep = np.array([rng.random() < 0.6 for _ in range(g.num_edges)], dtype=bool)
    nv = g.num_vertices
    entries = Counter()
    deg = np.zeros(nv, dtype=np.int64)
    sub = np.zeros(nv, dtype=np.int64)
    for pos, (s, t, *prov) in enumerate(g.edges):
        w = signs[prov[0]] if not colored else signs[prov[1]] * signs[prov[2]]
        deg[[s, t]] += 1
        if keep[pos]:
            entries[(s, t)] += w
            entries[(t, s)] += w
            sub[[s, t]] += 1
    kept = masked(g, keep)
    a = kept.adjacency(signs=signs).tocoo()
    assert a.shape == (nv, nv)
    # parallel edges that cancel leave an explicit zero
    assert dict(zip(zip(a.row.tolist(), a.col.tolist()), a.data.tolist())) == dict(entries)
    assert np.array_equal(g.degrees, deg)
    assert np.array_equal(kept.subgraph_degrees(), sub)
    assert kept.gamma_diagonal() == [Fraction(int(x)) + Fraction(int(sub.sum()), nv) for x in sub]
    for graph in (g, kept):
        assert graph.gamma_floats().tolist() == [float(x) for x in graph.gamma_diagonal()]


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_a_cut_level_lists_the_kept_edges_and_shares_every_other_field(seed):
    # the built level with a mask over its grid cells; its edges are the kept per-pair edges
    _, g, rng = random_colored_graph(seed)
    keep = np.array([rng.random() < 0.6 for _ in range(g.num_edges)], dtype=bool)
    kept = masked(g, keep)
    assert type(kept) is type(g) and g.keep is None
    assert kept.keep.shape == g.pair_grid.shape == (len(g.pair_table), g.alpha or 0)
    assert np.array_equal(edge_mask(g, kept.keep), keep)
    assert kept.edges == tuple(e for e, k in zip(g.edges, keep.tolist()) if k)
    assert kept.num_edges == len(kept.pair_edges[0]) == int(keep.sum())
    for field in dataclasses.fields(g):
        if field.name != "keep":
            assert getattr(kept, field.name) is getattr(g, field.name), field.name


def pair_keys(g):
    """(group, C, C') of every row of the pair table, in row order."""
    return [tuple(row) for row in g.pair_table[:, :3].tolist()]


def incidences(g, keep=None):
    inc = Counter()
    for pos, (s, t, gi, a, b) in enumerate(g.edges):
        if keep is None or keep[pos]:
            for v in (s, t):
                for c in (a, b):
                    inc[(v, gi, c)] += 1
    return inc


@given(SEEDS, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_deletion_drops_exactly_the_heavy_edges(seed, eta):
    _, g, _ = random_colored_graph(seed)
    pre = delete_heavy_edges(g, eta)
    survived = edge_mask(g, pre)
    before, after = incidences(g), incidences(g, survived)
    assert all(cnt <= eta for cnt in after.values())
    for pos, (s, t, gi, a, b) in enumerate(g.edges):
        touches_heavy = any(before[(v, gi, c)] > eta for v in (s, t) for c in (a, b))
        assert survived[pos] == (not touches_heavy)
    per_pair = Counter(e[2:] for pos, e in enumerate(g.edges) if survived[pos])
    assert dict(zip(pair_keys(g), pre.sum(axis=1).tolist())) == {
        (gi, a, b): per_pair[(gi, a, b)] for gi, grp in enumerate(g.groups)
        for a in grp.clause_indices for b in grp.clause_indices if a != b}
    assert np.count_nonzero(delete_heavy_edges(g, math.inf)) == g.num_edges


@given(SEEDS, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_equalization_keeps_the_first_kappa_of_each_pair(seed, eta):
    _, g, _ = random_colored_graph(seed)
    if g.alpha is None or not g.num_edges:
        return
    pre = delete_heavy_edges(g, eta)
    res = equalize_deletion(g, pre)
    before, after = edge_mask(g, pre), edge_mask(g, res.surviving)
    survivors: dict = {}
    for pos, edge in enumerate(g.edges):
        if before[pos]:
            survivors.setdefault(edge[2:], []).append(pos)
    kept = {key: [] for key in pair_keys(g)}
    for pos, edge in enumerate(g.edges):
        if after[pos]:
            kept[edge[2:]].append(pos)
    for key, positions in kept.items():
        assert len(positions) == res.kappa
        assert positions == survivors.get(key, [])[:res.kappa]
    assert dict(zip(pair_keys(g), res.surviving.sum(axis=1).tolist())) == {
        key: res.kappa for key in kept}


@given(SEEDS)
@settings(max_examples=60, deadline=None)
@example(seed=2)                         # k - t even
@example(seed=0)                         # k - t odd
def test_each_ordered_pair_is_a_matching(seed):
    """The deletion shortcut's premise: no vertex has two edges of one ordered
    pair, so a (vertex, group, clause) key is met at most 2(|G| - 1) times."""
    _, g, _ = random_colored_graph(seed)
    s, t, pair = g.pair_edges
    ends = np.concatenate([s, t])
    pairs = np.concatenate([pair, pair])
    assert len(set(zip(ends.tolist(), pairs.tolist()))) == len(ends)
    if g.num_edges:
        most = max(incidences(g).values())
        assert most <= 2 * (max(len(grp.clause_indices) for grp in g.groups) - 1)


def reference_ordered_pair_table(groups):
    """ordered_pair_table as one block per group."""
    blocks, first = [np.empty((0, 5), dtype=np.int64)], 0
    for gi, grp in enumerate(groups):
        clauses = np.array(sorted(grp.clause_indices), dtype=np.int64)
        ia, ib = np.nonzero(~np.eye(len(clauses), dtype=bool))
        blocks.append(np.column_stack([np.full(len(ia), gi), clauses[ia], clauses[ib],
                                       first + ia, first + ib]))
        first += len(clauses)
    return np.concatenate(blocks)


@given(st.lists(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True), max_size=5))
@settings(max_examples=60, deadline=None)
def test_ordered_pair_table_matches_the_per_group_loop(clause_lists):
    groups = [Group(center=(0,), clause_indices=tuple(ids)) for ids in clause_lists]
    got, want = ordered_pair_table(groups), reference_ordered_pair_table(groups)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape and np.array_equal(got, want)


# delete_heavy_edges and equalize_deletion as they were before their
# shortcuts and the pair grid, over the per-pair edges of pair_edges, each
# mask a mask over the edges: the passes over the grid's cells and their
# shortcuts must give the same results on either side of the bound
Equalized = namedtuple("Equalized", "surviving kappa rho")


def reference_delete_heavy_edges(g, eta) -> np.ndarray:
    if eta != math.inf and eta < 1:
        raise ValueError("eta must be >= 1 (or math.inf)")
    s_rank, t_rank, pair = g.pair_edges
    surviving = np.ones(g.num_edges, dtype=bool)
    if eta != math.inf and g.num_edges:
        # one key per (vertex, group, clause) incidence, (group, clause) as its
        # slot, packed in the narrowest dtype that holds every key
        num_slots = sum(len(grp.clause_indices) for grp in g.groups)
        key_type = np.min_scalar_type(g.num_vertices * num_slots - 1)
        slots = [g.pair_table[pair, col].astype(key_type) for col in (3, 4)]
        ends = [v.astype(key_type) * key_type.type(num_slots) for v in (s_rank, t_rank)]
        keys = np.stack([v + slot for v in ends for slot in slots])
        ordered = np.sort(keys, axis=None)
        # in sorted order, a key met more than eta times recurs eta places on
        e = math.floor(eta)
        heavy = np.unique(ordered[e:][ordered[e:] == ordered[:-e]])
        surviving = ~np.isin(keys, heavy).any(axis=0)
    return surviving


def reference_equalize_deletion(g, pre: np.ndarray) -> Equalized:
    if g.alpha is None or not g.num_edges:
        return Equalized(surviving=pre.copy(), kappa=None, rho=Fraction(0))
    kappa = int(np.bincount(g.pair_edges[2][pre], minlength=len(g.pair_table)).min())
    # survivors grouped by pair, each pair's in stored (sorted) order; keep the first kappa
    alive = np.flatnonzero(pre)
    pair_ids = g.pair_edges[2][alive].astype(np.min_scalar_type(len(g.pair_table) - 1))
    order = np.argsort(pair_ids, kind="stable")
    alive, pairs = alive[order], pair_ids[order]
    running = np.arange(len(alive)) - np.searchsorted(pairs, pairs)
    surviving = np.zeros(g.num_edges, dtype=bool)
    surviving[alive[running < kappa]] = True
    return Equalized(surviving=surviving, kappa=kappa, rho=1 - Fraction(kappa, g.alpha))


def assert_same_mask(g, got, want):
    """A (pairs, alpha) mask over the grid's cells against a mask over the
    edges; equal masks have equal per-pair survival counts."""
    assert got.dtype == want.dtype == bool
    assert got.shape == (len(g.pair_table), g.alpha or 0)
    assert np.array_equal(edge_mask(g, got), want)


@given(SEEDS, st.data())
@settings(max_examples=80, deadline=None)
def test_deletion_shortcuts_match_the_full_passes(seed, data):
    """Both sides of the bound 2(max |G| - 1) <= eta against copies of the
    passes without shortcuts, over the per-pair edges."""
    _, g, _ = random_colored_graph(seed)
    largest = max(len(grp.clause_indices) for grp in g.groups)
    eta = data.draw(st.integers(1, 2 * largest + 1) | st.just(math.inf), label="eta")
    pre, want_pre = delete_heavy_edges(g, eta), reference_delete_heavy_edges(g, eta)
    assert_same_mask(g, pre, want_pre)
    got, want = equalize_deletion(g, pre), reference_equalize_deletion(g, want_pre)
    assert_same_mask(g, got.surviving, want.surviving)
    assert (got.kappa, got.rho) == (want.kappa, want.rho)


def coo_reference(g, signs, keep):
    """The adjacency as a COO matrix of every kept edge, both orientations,
    converted to CSR, which sums the parallel edges."""
    import scipy.sparse as sp

    s, t, w = (x[keep] for x in per_edge(g, signs))
    nv = g.num_vertices
    return sp.coo_matrix((np.concatenate([w, w]), (np.concatenate([s, t]), np.concatenate([t, s]))),
                         shape=(nv, nv), dtype=np.float64).tocsr()


def assert_same_csr(a, b):
    assert a.shape == b.shape and a.format == b.format == "csr"
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


@given(SEEDS, st.booleans(), st.sampled_from(["random", "all", "none"]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_adjacency_equals_the_coo_reference(seed, colored, mask, signed):
    if colored:
        h, g, rng = random_colored_graph(seed)
    else:
        (h, g), rng = random_even_graph(seed), random.Random(seed)
    signs = [rng.choice([-1, 1]) for _ in range(h.m)] if signed else None
    keep = {"random": np.array([rng.random() < 0.6 for _ in range(g.num_edges)], dtype=bool),
            "all": np.ones(g.num_edges, dtype=bool),
            "none": np.zeros(g.num_edges, dtype=bool)}[mask]
    want = coo_reference(g, signs, keep)
    assert_same_csr(masked(g, keep).adjacency(signs=signs), want)
    if mask == "all":
        assert_same_csr(g.adjacency(signs=signs), want)


def test_cancelling_parallel_edges_stay_explicit_zeros():
    # clauses 0 and 1 are the same pair with opposite signs: their edges
    # {0}-{1} cancel, and the entry is kept as a stored zero
    h = Hypergraph(n=3, k=2, edges=((0, 1), (0, 1), (1, 2)))
    g = build_even_kikuchi(h, 1)
    a = g.adjacency(signs=[1, -1, 1])
    assert_same_csr(a, coo_reference(g, [1, -1, 1], np.ones(g.num_edges, dtype=bool)))
    assert_same_csr(a, reference_adjacency(g, [1, -1, 1]))
    coo = a.tocoo()
    assert list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())) == [
        (0, 1, 0.0), (1, 0, 0.0), (1, 2, 1.0), (2, 1, 1.0)]


def test_binomial_table_is_comb_on_its_band():
    # the colex tests take their expected ranks from this table, so it is
    # checked against math.comb here
    for n, r in [(n, r) for n in range(41) for r in range(n + 1)] + [(96, 6)]:
        want = [[math.comb(v, j) if v - j < n - r else 0 for j in range(r + 1)] for v in range(n)]
        table = binomial_table(n, r)
        assert table.dtype == np.int64 and table.shape == (n, r + 1), (n, r)
        assert table.tolist() == want, (n, r)


@given(st.integers(1, 6), st.integers(0, 64), SEEDS)
@settings(max_examples=100, deadline=None)
def test_colex_ranks_match_the_sorted_row_reference(r, extra, seed):
    ground = r + extra
    rng = np.random.default_rng(seed)
    rows = np.array([rng.permutation(ground)[:r] for _ in range(50)], dtype=np.int64)
    table = binomial_table(ground, r)
    sorted_rows = np.sort(rows, axis=1)
    want = table[sorted_rows, np.arange(1, r + 1)].sum(axis=1)
    got = colex_ranks(rows, table)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    if ground <= 12:
        masks = all_subset_masks_colex(ground, r)
        assert [masks[i] for i in got.tolist()] == [mask_from(row) for row in rows.tolist()]


@given(st.integers(0, 12), st.data())
@settings(max_examples=100, deadline=None)
def test_complement_rows_match_setdiff(n, data):
    r = data.draw(st.integers(0, n), label="r")
    drawn = data.draw(st.lists(st.permutations(range(n)).map(lambda p: p[:r]), max_size=8),
                      label="rows")
    rows = np.array(drawn, dtype=np.int64).reshape(len(drawn), r)
    got = complement_rows(rows, n)
    assert got.dtype == np.int64 and got.shape == (len(rows), n - r)
    for row, rest in zip(rows, got):
        assert np.array_equal(rest, np.setdiff1d(np.arange(n), row))


# bounds for each branch of stable_order: up to 2^16 a stable (radix) argsort
# of the values cast to 16 bits or fewer; above, one plain sort of
# (value << b) | position; and a stable argsort again where value and position
# need more than 64 bits together (2^62 from 5 values on, 2^63 from 3 on)
ORDER_BOUNDS = [1, 3, 1 << 8, 1 << 16, (1 << 16) + 1, 1 << 33, 1 << 62, 1 << 63]


@pytest.mark.parametrize("bound", ORDER_BOUNDS)
@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_stable_order_matches_the_stable_argsort(bound, dtype, data):
    # values drawn from a pool of at most three, so ties are heavy
    pool = data.draw(st.lists(st.integers(0, bound - 1), min_size=1, max_size=3), label="pool")
    values = np.array(data.draw(st.lists(st.sampled_from(pool), max_size=60), label="values"),
                      dtype=dtype)
    kept = values.copy()
    got = stable_order(values, bound)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(values, kind="stable"))
    assert np.array_equal(values, kept)


@pytest.mark.parametrize("bound", ORDER_BOUNDS)
def test_stable_order_of_empty_and_one_element_input(bound):
    for values in ([], [bound - 1]):
        got = stable_order(np.array(values, dtype=np.int64), bound)
        assert got.dtype == np.intp and got.tolist() == list(range(len(values)))


BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def popcount(x):
    return BYTE_POPCOUNT[x.view(np.uint8)].reshape(len(x), 8).sum(axis=1)


def scanned_edges(masks, items, one_side):
    """Edges found by scanning every vertex mask, in the order of
    np.lexsort((item, t, s)), as int64 arrays (s, t, item). items yields
    (item, mask, parts, pin): S is joined to S xor mask when S meets each part
    mask in its count of vertices and holds pin; with one_side, both ends of
    an edge pass the scan and only the one with the lower rank is kept."""
    cols = [[np.empty(0, dtype=np.int64)] for _ in range(3)]
    for item, mask, parts, pin in items:
        hit = np.all([popcount(masks & p) == c for p, c in parts], axis=0)
        s = np.flatnonzero(hit & ((masks & pin) == pin))
        t = np.searchsorted(masks, masks[s] ^ mask)
        assert np.array_equal(masks[t], masks[s] ^ mask)
        if one_side:
            s, t = s[s < t], t[s < t]
        cols[0].append(np.minimum(s, t))
        cols[1].append(np.maximum(s, t))
        cols[2].append(np.full(len(s), item))
    s, t, item = (np.concatenate(c).astype(np.int64) for c in cols)
    order = np.lexsort((item, t, s))
    return s[order], t[order], item[order]


# vertex counts on both sides of 256 and of 65,536, where the sort key widens
# from 16 to 32 and from 32 to 64 bits
EVEN_SIZES = [(5, 2, 8), (12, 2, 30), (12, 4, 30), (40, 4, 3)]
COLORED_SIZES = [(6, 3), (7, 3), (20, 4)]


@given(st.sampled_from(EVEN_SIZES), SEEDS)
@settings(max_examples=12, deadline=None)
def test_even_edge_order_matches_lexsort_across_key_widths(size, seed):
    n, r, max_m = size
    h = gen_random(n, 4, random.Random(seed).randrange(1, max_m + 1), seed, mode="hyg-multi")
    g = build_even_kikuchi(h, r)
    masks = np.array(all_subset_masks_colex(n, r), dtype=np.uint64)
    want = scanned_edges(masks, [(c, np.uint64(cm), [(np.uint64(cm), 2)], np.uint64(0))
                                 for c, cm in enumerate(h.edge_masks())], one_side=True)
    for got, ref in zip((g.s_rank, g.t_rank, g.side), want):
        assert got.dtype == np.int64
        assert np.array_equal(got, ref)


@given(st.sampled_from(COLORED_SIZES), SEEDS)
@settings(max_examples=9, deadline=None)
def test_colored_edge_order_matches_lexsort_across_key_widths(size, seed):
    n, r = size
    rng = random.Random(seed)
    level = rng.randrange(1, 3)
    edges, groups = [], []
    for _ in range(rng.randrange(1, 3)):
        center = tuple(sorted(rng.sample(range(n), level)))
        others = [v for v in range(n) if v not in center]
        ids = []
        for _ in range(rng.randrange(2, 4)):
            ids.append(len(edges))
            edges.append(tuple(sorted(center + tuple(rng.sample(others, 3 - level)))))
        groups.append(Group(center=center, clause_indices=tuple(ids)))
    h = Hypergraph(n=n, k=3, edges=tuple(edges))
    pieces = {t: (tuple(groups) if t == level else ()) for t in range(1, 3)}
    decomp = Decomposition(mode="refute", n=n, k=3, r=r, eps=Fraction(1, 4), pieces=pieces,
                           thresholds={1: 2, 2: 2})
    g = build_colored_kikuchi(h, decomp, level, r)
    kt, masks = 3 - level, h.edge_masks()
    items = []
    for row, (gi, a, b) in enumerate(g.pair_table[:, :3].tolist()):
        umask = mask_from(g.groups[gi].center)
        green, blue = masks[a] ^ umask, (masks[b] ^ umask) << n
        pin = green & -green if kt % 2 == 0 else 0
        parts = [(np.uint64(green), (kt + 1) // 2), (np.uint64(blue), kt // 2)]
        items.append((row, np.uint64(green | blue), parts, np.uint64(pin)))
    want = scanned_edges(np.array(all_subset_masks_colex(2 * n, r), dtype=np.uint64), items,
                         one_side=False)
    for got, ref in zip(g.pair_edges, want):
        assert got.dtype == np.int64
        assert np.array_equal(got, ref)


# pattern_edges verbatim as it was when it ranked every item's row, shared or
# not: the equality tests below hold the row-sharing generator to it
def reference_pattern_edges(num_items: int, front, ground: int, r: int, s_pat: np.ndarray,
                            t_pat: np.ndarray) -> list[np.ndarray]:
    per_item = len(s_pat)
    nv = math.comb(ground, r)
    bits = max(nv - 1, 0).bit_length()
    shift = np.uint64(bits)
    key = np.empty(num_items * per_item, dtype=np.uint64)
    if per_item:
        table = binomial_table(ground, r)
        step = max(1, BLOCK_EDGES // per_item)
        width = 1 + max(s_pat.max(initial=-1), t_pat.max(initial=-1))
        for lo in range(0, num_items, step):
            rows = front(lo, min(lo + step, num_items))
            if width > rows.shape[1]:
                rows = np.hstack([rows, complement_rows(rows, ground)])
            # ranks are never negative, so their int64 bits read as uint64
            s, t = (colex_ranks(rows[:, pat].reshape(-1, r), table).view(np.uint64)
                    for pat in (s_pat, t_pat))
            block = slice(lo * per_item, (lo + len(rows)) * per_item)
            key[block] = np.minimum(s, t) << shift | np.maximum(s, t)
    order = stable_order(key, 1 << 2 * bits)
    key = key[order]
    s = key >> shift
    key &= np.uint64((1 << bits) - 1)
    order //= per_item
    return [s.view(np.int64), key.view(np.int64), order]


def patterns_of(build, module, *args):
    """The graph build(*args) returns and the (ground, r, s_pat, t_pat) it
    passed to module.pattern_edges."""
    seen = []

    def spy(front, ground, r, s_pat, t_pat):
        seen.append((ground, r, s_pat, t_pat))
        return pattern_edges(front, ground, r, s_pat, t_pat)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "pattern_edges", spy)
        g = build(*args)
    (patterns,) = seen
    return g, patterns


def side_rows(h, g):
    """Per row of the pair table, green C~ then blue C~' + n, each ascending."""
    rows = []
    for gi, a, b in g.pair_table[:, :3].tolist():
        center = set(g.groups[gi].center)
        rows.append([v for v in h.edges[a] if v not in center]
                    + [v + h.n for v in h.edges[b] if v not in center])
    return np.array(rows, dtype=np.int64).reshape(len(rows), 2 * (h.k - g.t))


def assert_same_bytes(got, want):
    for x, y in zip(got, want):
        assert x.dtype == y.dtype == np.int64
        assert x.tobytes() == y.tobytes()


@st.composite
def shared_side_levels(draw):
    """A level of a k-XOR multi-hypergraph on few vertices, k in {3, 5}: up to
    four groups of up to five clauses, each clause its center plus one of at
    most three (k - t)-sets drawn per group, so side pairs repeat within a
    group and, on so few vertices, often across groups; r on both sides of
    k - t, below which no pair has an edge."""
    k = draw(st.sampled_from([3, 5]), label="k")
    level = draw(st.integers(1, k - 1), label="t")
    n = draw(st.integers(k + 1, 7), label="n")
    edges, groups = [], []
    for _ in range(draw(st.integers(0, 4), label="groups")):
        center = tuple(sorted(draw(st.permutations(range(n)), label="center")[:level]))
        others = [v for v in range(n) if v not in center]
        rests = draw(st.lists(st.permutations(others).map(lambda p: p[:k - level]),
                              min_size=1, max_size=3), label="rests")
        ids = []
        for _ in range(draw(st.integers(1, 5), label="size")):
            ids.append(len(edges))
            edges.append(tuple(sorted(center + tuple(draw(st.sampled_from(rests))))))
        groups.append(Group(center=center, clause_indices=tuple(ids)))
    h = Hypergraph(n=n, k=k, edges=tuple(edges))
    pieces = {t: (tuple(groups) if t == level else ()) for t in range(1, k)}
    decomp = Decomposition(mode="refute", n=n, k=k, r=2, eps=Fraction(1, 4), pieces=pieces,
                           thresholds={t: 2 for t in range(1, k)})
    r = draw(st.integers(1, min(k - level + 2, 2 * n)), label="r")
    return h, decomp, level, r


@given(shared_side_levels())
@settings(max_examples=150, deadline=None)
def test_colored_build_equals_the_per_pair_reference(level_case):
    h, decomp, level, r = level_case
    g, (ground, r_, s_pat, t_pat) = patterns_of(build_colored_kikuchi, kikuchi_odd, h,
                                                decomp, level, r)
    rows = side_rows(h, g)
    want = reference_pattern_edges(len(rows), lambda lo, hi: rows[lo:hi], ground, r_, s_pat, t_pat)
    assert_same_bytes(g.pair_edges, want)
    # the grid's premise: each side of of_pair holds alpha edges, and no other side exists
    sides = int(g.of_pair.max(initial=-1)) + 1
    assert np.bincount(g.side, minlength=sides).tolist() == [g.alpha or 0] * sides
    # cell (p, j) is the j-th edge of pair p in the per-pair order
    s, t, _ = g.pair_edges
    positions = cell_positions(g)
    assert np.array_equal(g.s_rank[g.pair_grid], s[positions])
    assert np.array_equal(g.t_rank[g.pair_grid], t[positions])


def test_colored_build_equals_the_reference_with_no_pairs_and_one_group():
    center, n = (0,), 6
    one = [(0, 1, 2), (0, 3, 4), (0, 1, 2), (0, 2, 5)]
    for edges, sizes in [((), []), (((0, 1, 2),), [1]), (((0, 1, 2), (0, 3, 4)), [1, 1]),
                         (tuple(one), [4])]:
        ids = iter(range(len(edges)))
        groups = tuple(Group(center=center, clause_indices=tuple(next(ids) for _ in range(size)))
                       for size in sizes)
        h = Hypergraph(n=n, k=3, edges=edges)
        decomp = Decomposition(mode="refute", n=n, k=3, r=2, eps=Fraction(1, 4),
                               pieces={1: groups, 2: ()}, thresholds={1: 2, 2: 2})
        for r in (1, 2, 3):
            g, (ground, r_, s_pat, t_pat) = patterns_of(build_colored_kikuchi, kikuchi_odd,
                                                        h, decomp, 1, r)
            rows = side_rows(h, g)
            want = reference_pattern_edges(len(rows), lambda lo, hi: rows[lo:hi], ground, r_,
                                           s_pat, t_pat)
            assert_same_bytes(g.pair_edges, want)
            assert g.num_edges == len(s_pat) * len(g.pair_table)


@st.composite
def repeated_clause_graphs(draw):
    """A multi-hypergraph, k in {2, 4}, with some clauses repeated, so several
    items share a row and parallel edges are common; and an r for it."""
    seed, k = draw(SEEDS, label="seed"), draw(st.sampled_from([2, 4]), label="k")
    rng = random.Random(seed)
    n = draw(st.integers(k + 1, 9), label="n")
    h = gen_random(n, k, draw(st.integers(0, 30), label="m"), seed, mode="hyg-multi")
    h = Hypergraph(n=n, k=k, edges=h.edges + tuple(rng.choice(h.edges) for _ in h.edges[:5]))
    return h, draw(st.integers(k // 2, min(n, 4)), label="r")


@given(repeated_clause_graphs())
@settings(max_examples=40, deadline=None)
def test_even_build_equals_the_reference_on_repeated_clauses(case):
    h, r = case
    g, (ground, r_, s_pat, t_pat) = patterns_of(build_even_kikuchi, kikuchi_even, h, r)
    clauses = np.array(h.edges, dtype=np.int64).reshape(h.m, h.k)
    want = reference_pattern_edges(h.m, lambda lo, hi: clauses[lo:hi], ground, r_, s_pat, t_pat)
    assert_same_bytes((g.s_rank, g.t_rank, g.side), want)


@given(repeated_clause_graphs())
@settings(max_examples=40, deadline=None)
def test_even_sides_are_the_clauses_on_repeated_clauses(case):
    # every clause, a repeated one too, is its own side of alpha edges, so the
    # per-row edges that dumps and g.edges list are the stored arrays
    h, r = case
    assume(len(set(h.edges)) < h.m)
    g = build_even_kikuchi(h, r)
    assert g.of_pair.tobytes() == np.arange(h.m).tobytes()
    assert np.bincount(g.side, minlength=h.m).tolist() == [g.alpha] * h.m
    assert len(g.pair_edges) == 3
    assert_same_bytes(g.pair_edges, (g.s_rank, g.t_rank, g.side))


def planted_instance(seed):
    """Like the odd benchmark workload: 200 random 3-clauses on 10 vertices
    and 55 more through one planted center {a, b}."""
    rng = random.Random(seed)
    edges = list(gen_random(10, 3, 200, seed, mode="hyg-multi").edges)
    a, b = sorted(rng.sample(range(10), 2))
    others = [v for v in range(10) if v not in (a, b)]
    edges += [tuple(sorted((a, b, rng.choice(others)))) for _ in range(55)]
    rng.shuffle(edges)
    return Hypergraph(n=10, k=3, edges=tuple(edges))


@pytest.mark.parametrize("seed", [0, 1])
def test_each_distinct_side_pair_is_ranked_once(seed, monkeypatch):
    """The colored build ranks at most (distinct side pairs) * alpha rows per
    side on each level: pairs that share their sides share their ranks."""
    h = planted_instance(seed)
    decomp = decompose_for_refutation(h, 2, Fraction(49, 100), enforce_ranges=False)
    ranked = []

    def counted(rows, table):
        ranked.append(len(rows))
        return colex_ranks(rows, table)

    for level in (1, 2):
        ranked.clear()
        monkeypatch.setattr(kikuchi_even, "colex_ranks", counted)
        g = build_colored_kikuchi(h, decomp, level, 2)
        monkeypatch.undo()
        distinct = len({tuple(row) for row in side_rows(h, g).tolist()})
        assert 0 < distinct < len(g.pair_table)
        assert g.alpha and g.num_edges == g.alpha * len(g.pair_table)
        assert sum(ranked[0::2]) <= distinct * g.alpha
        assert sum(ranked[1::2]) <= distinct * g.alpha


@pytest.mark.parametrize("bound", ORDER_BOUNDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_stable_sort_is_the_values_in_stable_order(bound, data):
    pool = data.draw(st.lists(st.integers(0, bound - 1), min_size=1, max_size=3), label="pool")
    values = np.array(data.draw(st.lists(st.sampled_from(pool), max_size=60), label="values"),
                      dtype=np.uint64)
    kept = values.copy()
    got, order = stable_sort(values, bound)
    assert np.array_equal(order, stable_order(values, bound))
    assert got.dtype == values.dtype and got.tobytes() == values[order].tobytes()
    assert np.array_equal(values, kept)


# KikuchiEdges.subgraph_degrees and adjacency as they were when a colored
# level held one edge per ordered pair and the adjacency summed each run of
# parallel edges before the COO to CSR step, and the float Gamma from them,
# over the per-pair edges of per_edge: a level's weighted distinct edges, its
# cut subgraphs and even graphs with parallel edges must give the same bytes
def reference_subgraph_degrees(g):
    nv = g.num_vertices
    s, t, _ = per_edge(g)
    return np.bincount(s, minlength=nv) + np.bincount(t, minlength=nv)


def reference_adjacency(g, signs=None):
    import scipy.sparse as sp

    nv = g.num_vertices
    s, t, w = per_edge(g, signs)
    if len(s):
        first = np.flatnonzero(np.concatenate([[True], (s[1:] != s[:-1]) | (t[1:] != t[:-1])]))
        s, t, w = s[first], t[first], np.add.reduceat(w, first)
    rows, cols = np.concatenate([s, t]), np.concatenate([t, s])
    a = sp.coo_matrix((np.concatenate([w, w]), (rows, cols)), shape=(nv, nv), dtype=np.float64)
    return a.tocsr()


def reference_subgraph(g, keep):
    """A cut level as ColoredKikuchiGraph.subgraph built it: the per-pair
    edges the boolean mask keep over g.edges keeps, each ordered pair its own
    side, so the built level's formulas weigh each edge once."""
    s, t, pair = g.pair_edges
    return dataclasses.replace(g, s_rank=s[keep], t_rank=t[keep], side=pair[keep],
                               of_pair=np.arange(len(g.pair_table)))


def reference_gamma_floats(g):
    d = Fraction(2 * len(per_edge(g)[0]), g.num_vertices)
    return (reference_subgraph_degrees(g) * d.denominator + d.numerator) / d.denominator


def assembled(g, signs):
    """What the spectral step reads of g, in the order it reads it."""
    return {"adjacency": g.adjacency(signs=signs), "degrees": g.degrees,
            "num_edges": g.num_edges, "gamma": g.gamma_floats()}


def assert_assembled_as_the_reference(got, g, signs):
    assert_same_csr(got["adjacency"], reference_adjacency(g, signs))
    want = reference_subgraph_degrees(g)
    assert got["degrees"].dtype == want.dtype and got["degrees"].tobytes() == want.tobytes()
    assert type(got["num_edges"]) is int and got["num_edges"] == len(per_edge(g)[0])
    assert got["gamma"].tobytes() == reference_gamma_floats(g).tobytes()


@given(shared_side_levels(), st.data())
@settings(max_examples=150, deadline=None)
def test_side_pair_assembly_equals_the_per_pair_reference(level_case, data):
    h, decomp, level, r = level_case
    g = build_colored_kikuchi(h, decomp, level, r)
    signs = data.draw(st.none() | st.lists(st.sampled_from([-1, 1]), min_size=h.m, max_size=h.m),
                      label="signs")
    got = assembled(g, signs)
    assert "pair_edges" not in vars(g)              # nothing above made the per-pair edges
    assert_assembled_as_the_reference(got, g, signs)
    share = data.draw(st.sampled_from([0.0, 0.6, 1.0]), label="kept share")
    rng = np.random.default_rng(data.draw(SEEDS, label="mask seed"))
    cells = rng.random((len(g.pair_table), g.alpha or 0)) < share
    kept = dataclasses.replace(g, keep=cells)
    got = assembled(kept, signs)
    assert "pair_edges" not in vars(kept)           # a cut level is assembled from its grid
    want = assembled(reference_subgraph(g, edge_mask(g, cells)), signs)
    assert_same_csr(got["adjacency"], want["adjacency"])
    for key in ("degrees", "gamma"):
        assert got[key].dtype == want[key].dtype and got[key].tobytes() == want[key].tobytes()
    assert type(got["num_edges"]) is int and got["num_edges"] == want["num_edges"]
    assert_assembled_as_the_reference(got, kept, signs)


@given(repeated_clause_graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_even_assembly_equals_the_run_sum_reference_on_repeated_clauses(case, data):
    h, r = case
    g = build_even_kikuchi(h, r)
    signs = data.draw(st.none() | st.lists(st.sampled_from([-1, 1]), min_size=h.m, max_size=h.m),
                      label="signs")
    assert_assembled_as_the_reference(assembled(g, signs), g, signs)
    keep = np.random.default_rng(data.draw(SEEDS, label="mask seed")).random(g.num_edges) < 0.6
    kept = masked(g, keep)
    assert_assembled_as_the_reference(assembled(kept, signs), kept, signs)


def test_reading_a_built_level_leaves_its_distinct_edges():
    # repr and dataclasses.replace read every field; neither makes the
    # per-pair edges or changes what s_rank holds
    h = gen_random(9, 3, 30, 4, mode="hyg-multi")
    decomp = decompose_for_refutation(h, 2, Fraction(1, 3), enforce_ranges=False)
    g = build_colored_kikuchi(h, decomp, 1, 2)
    s_rank = g.s_rank
    repr(g)
    copy = dataclasses.replace(g)
    assert not {"pair_grid", "pair_edges"} & (vars(g).keys() | vars(copy).keys())
    assert g.s_rank is s_rank and copy.s_rank is s_rank
    assert len(s_rank) < g.num_edges
    assert g.num_edges == len(g.pair_edges[0])
    assert not any(a.flags.writeable for a in g.pair_edges)
    # distinct edges, sorted: the keys s_rank * C + t_rank strictly increase
    keys = s_rank * g.num_vertices + g.t_rank
    assert np.all(keys[1:] > keys[:-1])


def spied_calls(monkeypatch):
    """Names of the colored-level arrays made (pair_grid, pair_edges), in order."""
    calls = []
    cls = kikuchi_odd.ColoredKikuchiGraph
    for name in ("pair_grid", "pair_edges"):
        def spied(self, make=getattr(cls, name).func, name=name):
            calls.append(name)
            return make(self)

        spy = cached_property(spied)
        spy.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, spy)
    return calls


@pytest.mark.parametrize("seed", [0, 1])
def test_shortcut_levels_neither_expand_the_pairs_nor_take_a_subgraph(seed, monkeypatch):
    # levels that keep every edge build neither the pair grid nor the per-pair edges
    h = planted_instance(seed)
    rng = random.Random(seed)
    inst = XorInstance(hypergraph=h, signs=tuple(rng.choice((1, -1)) for _ in h.edges))
    calls = spied_calls(monkeypatch)
    cert = refute_odd(inst, 2, Fraction(49, 100), relax_r_range=True)
    assert [(lv["method"], lv["rho"]) for lv in cert["levels"]] == [("spectral", "0/1")] * 2
    assert calls == []
    assert verify_certificate(inst, cert) == (True, [])
    assert calls == []


@pytest.mark.parametrize("case", ["ci-eta-8", "golden-odd"])
def test_cutting_levels_never_expand_the_pairs(case, monkeypatch):
    # the CI instance at eta 8, where level 1 keeps 134 of its 268 edges, and
    # the golden odd instance at its eta 80, where level 2 keeps 9,800 of
    # 14,700: deletion and the cut level's assembly read the pair grid, and
    # nothing makes the per-pair edges
    if case == "ci-eta-8":
        inst = gen_random(9, 3, 30, 4, mode="xor-multi")
        args = {"r": 2, "eps": Fraction(1, 3), "eta": 8, "seed": 7, "relax_r_range": True}
    else:
        inst = load_xor(pathlib.Path(__file__).parent / "golden" / "odd_k3_n4_two_levels.xor")
        args = {"r": 2, "eps": Fraction(49, 100), "eta": 80, "relax_r_range": True}
    calls = spied_calls(monkeypatch)
    cert = refute_odd(inst, **args)
    cut = [lv for lv in cert["levels"] if lv["method"] == "spectral"
           and lv["surviving_edges"] < lv["edges"]]
    # deletion builds each cut level's grid once, and the cut level takes it over
    assert cut and calls.count("pair_grid") == len(cut) and "pair_edges" not in calls
    want = (1, 134, 268) if case == "ci-eta-8" else (2, 9800, 14700)
    assert [(lv["t"], lv["surviving_edges"], lv["edges"]) for lv in cut] == [want]
    made = len(calls)
    assert verify_certificate(inst, cert) == (True, [])
    assert calls == 2 * calls[:made]
