"""Property tests: the edge-array Kikuchi core against plain loops over edges."""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kcert import Hypergraph, gen_random
from kcert.decomposition import Decomposition, Group
from kcert.kikuchi_even import build_even_kikuchi
from kcert.kikuchi_odd import build_colored_kikuchi, delete_heavy_edges, equalize_deletion
from kcert.subsets import mask_from

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
        groups.append(Group(center=center, clause_indices=tuple(ids), level=level))
    h = Hypergraph(n=n, k=k, edges=tuple(edges))
    pieces = {t: (tuple(groups) if t == level else ()) for t in range(1, k)}
    decomp = Decomposition(mode="refute", n=n, k=k, r=2, eps=Fraction(1, 4), pieces=pieces,
                           thresholds={t: 2 for t in range(1, k)})
    r = rng.randrange(max(1, k - level - 1), k - level + 3)
    return h, build_colored_kikuchi(h, decomp, level, r), rng


def rank_of(g):
    return {mk: i for i, mk in enumerate(g.vertex_masks)}


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_even_build_matches_subset_scan(seed):
    # every S meeting a clause C in k/2 vertices is joined to S xor C
    h, g = random_even_graph(seed)
    rank = rank_of(g)
    want = []
    for c, cm in enumerate(h.edge_masks()):
        for s, sm in enumerate(g.vertex_masks):
            if (sm & cm).bit_count() == h.k // 2 and rank[sm ^ cm] > s:
                want.append((s, rank[sm ^ cm], c))
    assert list(g.edges) == sorted(want)


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_colored_build_matches_subset_scan(seed):
    # S meets green C~ in ceil((k-t)/2) and blue C~' in floor((k-t)/2); for even
    # k - t, S also holds min(C~), so each unordered edge shows up once
    h, g, _ = random_colored_graph(seed)
    rank = rank_of(g)
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
                for s, sm in enumerate(g.vertex_masks):
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
    a = g.adjacency(signs=signs, keep=keep).tocoo()
    assert a.shape == (nv, nv)
    got = {(i, j): v for i, j, v in zip(a.row.tolist(), a.col.tolist(), a.data.tolist()) if v}
    assert got == {key: v for key, v in entries.items() if v}
    assert np.array_equal(g.degrees, deg)
    assert np.array_equal(g.subgraph_degrees(keep), sub)
    assert g.gamma_diagonal(sub) == [Fraction(int(x)) + Fraction(int(sub.sum()), nv) for x in sub]
    for degrees in (None, sub):
        assert g.gamma_floats(degrees).tolist() == [float(x) for x in g.gamma_diagonal(degrees)]


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
    res = delete_heavy_edges(g, eta)
    before, after = incidences(g), incidences(g, res.surviving)
    assert all(cnt <= eta for cnt in after.values())
    for pos, (s, t, gi, a, b) in enumerate(g.edges):
        touches_heavy = any(before[(v, gi, c)] > eta for v in (s, t) for c in (a, b))
        assert res.surviving[pos] == (not touches_heavy)
    per_pair = Counter(e[2:] for pos, e in enumerate(g.edges) if res.surviving[pos])
    assert dict(zip(pair_keys(g), res.pair_survival.tolist())) == {
        (gi, a, b): per_pair[(gi, a, b)] for gi, grp in enumerate(g.groups)
        for a in grp.clause_indices for b in grp.clause_indices if a != b}
    assert delete_heavy_edges(g, math.inf).num_surviving == g.num_edges


@given(SEEDS, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_equalization_keeps_the_first_kappa_of_each_pair(seed, eta):
    _, g, _ = random_colored_graph(seed)
    if g.alpha is None or not g.num_edges:
        return
    pre = delete_heavy_edges(g, eta)
    res = equalize_deletion(g, pre)
    survivors: dict = {}
    for pos, edge in enumerate(g.edges):
        if pre.surviving[pos]:
            survivors.setdefault(edge[2:], []).append(pos)
    kept = {key: [] for key in pair_keys(g)}
    for pos, edge in enumerate(g.edges):
        if res.surviving[pos]:
            kept[edge[2:]].append(pos)
    for key, positions in kept.items():
        assert len(positions) == res.kappa
        assert positions == survivors.get(key, [])[:res.kappa]
    assert dict(zip(pair_keys(g), res.pair_survival.tolist())) == {key: res.kappa for key in kept}
