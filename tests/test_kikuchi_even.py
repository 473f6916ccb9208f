import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcert import (CapacityError, Caps, EvenCover, Hypergraph, eval_xor, gen_random,
                   min_even_cover_oracle, verify_even_cover)
from kcert.core import odd_use_cover
from kcert import kikuchi_even
from kcert.kikuchi_even import (_first_triangle, _triple_clauses, build_even_kikuchi, dump_even,
                                shortest_even_cover_via_kikuchi, signed_even_kikuchi)
from kcert.subsets import combination_rows
from assignments import random_assignment
from subset_masks import all_subset_masks_colex

TRIANGLE = Hypergraph(n=3, k=2, edges=((0, 1), (1, 2), (0, 2)))
ONE_QUAD = Hypergraph(n=6, k=4, edges=((0, 1, 2, 3),))


def test_k2_r1_is_the_graph_itself():
    g = build_even_kikuchi(TRIANGLE, 1)
    assert g.num_vertices == 3
    assert [(s, t) for s, t, _ in g.edges] == [(0, 1), (0, 2), (1, 2)]


def test_single_quad_example():
    g = build_even_kikuchi(ONE_QUAD, 2)
    assert g.num_vertices == 15
    assert g.num_edges == 3 and g.alpha == 3
    assert g.average_degree == Fraction(2, 5)
    # the three edges split the clause into complementary halves
    vm = all_subset_masks_colex(g.n, g.r)
    masks = [frozenset({vm[s], vm[t]}) for s, t, _ in g.edges]
    want = [frozenset({0b0011, 0b1100}), frozenset({0b0101, 0b1010}), frozenset({0b1001, 0b0110})]
    assert sorted(map(sorted, masks)) == sorted(map(sorted, want))


def test_stats_gamma_and_degenerate():
    g = build_even_kikuchi(TRIANGLE, 1)
    assert g.gamma_diagonal() == [Fraction(4)] * 3    # d_S = 2, d = 2
    assert g.degrees.tolist() == [2, 2, 2]
    empty = build_even_kikuchi(Hypergraph(n=4, k=2, edges=()), 1)
    assert empty.num_edges == 0 and empty.average_degree == 0


@pytest.mark.parametrize("n, k, r", [(3, 4, 2), (1, 2, 1)])
def test_fewer_vertices_than_arity_gives_an_empty_graph(n, k, r):
    # C(n - k, 0) is 0 for n < k: no free vertices to share, so no edges
    assert combination_rows(n - k, 0).shape == (0, 0)
    h = Hypergraph(n=n, k=k, edges=())
    g = build_even_kikuchi(h, r)
    assert (g.num_vertices, g.num_edges, g.alpha) == (comb(n, r), 0, 0)
    assert shortest_even_cover_via_kikuchi(h, r) is None


def test_degree_sum_and_clause_counts():
    from math import comb

    h = gen_random(10, 4, 25, seed=8, mode="hyg-multi")
    g = build_even_kikuchi(h, 2)
    assert int(g.degrees.sum()) == 2 * g.num_edges
    assert g.num_edges == g.alpha * h.m
    # displayed closed form for the average degree, cross-checked against 2|E|/|V|
    assert g.average_degree == Fraction(comb(4, 2) * comb(10 - 4, 2 - 2) * h.m, comb(10, 2))


def test_build_rejects_odd_k_and_caps():
    with pytest.raises(ValueError):
        build_even_kikuchi(Hypergraph(n=5, k=3, edges=((0, 1, 2),)), 2)
    with pytest.raises(CapacityError, match=r"^C\(6,3\) = 20 vertices exceeds cap 10$"):
        build_even_kikuchi(ONE_QUAD, 3, caps=Caps(max_vertices=10))
    with pytest.raises(CapacityError,
                       match=r"^estimated 3 edges \(alpha = 3, m = 1\) exceeds cap 2$"):
        build_even_kikuchi(ONE_QUAD, 2, caps=Caps(max_edges=2))


def test_no_cap_admits_two_to_the_32_vertices():
    # the edge sort key s_rank * C + t_rank must fit in 64 bits; these graphs
    # are refused before anything of their size is built
    wide = Caps(max_vertices=10**15, max_edges=10**15)
    wide.check(92682, 2, 0, "")                      # C = 4,294,930,221 < 2^32
    with pytest.raises(CapacityError,
                       match=r"^C\(92683,2\) = 4295022903 vertices exceeds cap 4294967295$"):
        wide.check(92683, 2, 0, "")
    with pytest.raises(CapacityError, match=r"^C\(100,7\) = 16007560800 vertices exceeds cap"):
        build_even_kikuchi(Hypergraph(n=100, k=4, edges=((0, 1, 2, 3),)), 7, caps=wide)


def test_quadratic_form_identity():
    # psi(x) * C(n,r) * d equals the signed quadratic form, exactly
    from math import comb

    rng = random.Random(12)
    inst = gen_random(8, 4, 20, seed=12, mode="xor-multi")
    g = signed_even_kikuchi(inst, 2)
    d = g.average_degree
    vm = all_subset_masks_colex(g.n, g.r)
    for _ in range(20):
        x = random_assignment(8, rng)
        quad = 0
        for s, t, c in g.edges:
            xs = xt = 1
            for v in range(8):
                if (vm[s] >> v) & 1:
                    xs *= x[v]
                if (vm[t] >> v) & 1:
                    xt *= x[v]
            quad += 2 * inst.signs[c] * xs * xt
        assert eval_xor(inst, x) * comb(8, 2) * d == quad


def test_four_cycle_dependency():
    # four 4-clauses forming an F2 dependency; the Kikuchi 4-cycle recovers it
    h = Hypergraph(n=8, k=4, edges=((0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7), (0, 1, 6, 7)))
    res = shortest_even_cover_via_kikuchi(h, 2)
    assert res is not None
    length, cover = res
    assert verify_even_cover(h, cover)
    assert cover.edge_indices == frozenset({0, 1, 2, 3})
    oracle = min_even_cover_oracle(h, 8)
    assert oracle is not None and oracle[0] == 4
    assert length >= oracle[0]


def test_shortest_cover_duplicate_clause():
    h = Hypergraph(n=6, k=4, edges=((0, 1, 2, 3), (0, 1, 2, 3)))
    res = shortest_even_cover_via_kikuchi(h, 2)
    assert res is not None and res[0] == 2
    assert verify_even_cover(h, res[1])


def test_shortest_cover_triangle():
    res = shortest_even_cover_via_kikuchi(TRIANGLE, 1)
    assert res is not None
    assert res[0] == 3 and res[1].edge_indices == frozenset({0, 1, 2})


def test_search_scans_on_past_a_four_step_walk():
    # r = 1 gives the graph itself; the BFS from vertex 0 closes the 4-cycle
    # 0-2-1-4 first, and only the later root 1 finds the triangle 1-2-3
    h = Hypergraph(n=5, k=2, edges=((2, 3), (1, 4), (0, 2), (1, 2), (1, 3), (0, 4)))
    length, cover = shortest_even_cover_via_kikuchi(h, 1)
    assert (length, sorted(cover.edge_indices)) == (3, [0, 3, 4])


def test_shortest_cover_respects_oracle():
    h = gen_random(10, 4, 60, seed=5, mode="hyg-multi")
    res = shortest_even_cover_via_kikuchi(h, 2)
    oracle = min_even_cover_oracle(h, h.m) if h.m <= 30 else None
    if res is not None:
        assert verify_even_cover(h, res[1])
        if oracle is not None:
            assert len(res[1].edge_indices) >= oracle[0]


def _reference_search(h, r, max_len=None):
    """The closed-walk search as it was before its neighbour lists became
    numpy arrays: a dict of per-vertex lists, and a BFS from every root."""
    g = build_even_kikuchi(h, r)
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
    for s, t, c in zip(g.s_rank.tolist(), g.t_rank.tolist(), g.side.tolist()):
        adj.setdefault(s, []).append((t, c))
        adj.setdefault(t, []).append((s, c))

    best = None
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


def _walk_and_cover(res):
    return None if res is None else (res[0], sorted(res[1].edge_indices))


@st.composite
def _search_cases(draw):
    k = draw(st.sampled_from([2, 4, 6]))
    n = draw(st.integers(k, k + 5))
    mode = draw(st.sampled_from(["hyg", "hyg-multi"]))
    m = draw(st.integers(0, 3 * n if mode == "hyg-multi" else min(comb(n, k), 3 * n)))
    r = draw(st.integers(k // 2, min(n, k // 2 + 2)))
    return gen_random(n, k, m, draw(st.integers(0, 2**30 - 1)), mode=mode), r


@given(_search_cases())
@settings(max_examples=150, deadline=None)
def test_search_matches_the_reference(case):
    h, r = case
    for max_len in (None, 2, 3, 4, 6):
        got = shortest_even_cover_via_kikuchi(h, r, max_len=max_len)
        assert _walk_and_cover(got) == _walk_and_cover(_reference_search(h, r, max_len))


def _brute_first_triangle(g):
    """The clauses of the triangle the BFS closes first: from the least vertex
    R on any triangle, u is R's least neighbour on one with R, and v is the
    least neighbour of u that is also R's."""
    nbrs, clause = {}, {}
    for s, t, c in g.edges:
        nbrs.setdefault(s, set()).add(t)
        nbrs.setdefault(t, set()).add(s)
        clause[s, t] = clause[t, s] = c
    on_triangle = [x for x in sorted(nbrs) if any(nbrs[x] & nbrs[y] for y in nbrs[x])]
    if not on_triangle:
        return None
    root = on_triangle[0]
    u = min(y for y in nbrs[root] if nbrs[root] & nbrs[y])
    v = min(nbrs[root] & nbrs[u])
    return EvenCover(frozenset({clause[root, u], clause[root, v], clause[u, v]}))


def _simple_graph(n, edges):
    return Hypergraph(n=n, k=2, edges=tuple(sorted({tuple(sorted(e)) for e in edges})))


@pytest.mark.parametrize("blocks", [None, 1, 5], ids=["None", "blocks1", "blocks2"])
@pytest.mark.parametrize("seed", range(40))
def test_first_triangle_matches_brute_force(seed, blocks, monkeypatch):
    # tiny wedge blocks put a block boundary between almost any two edges
    if blocks is not None:
        monkeypatch.setattr(kikuchi_even, "BLOCK_EDGES", blocks)
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    pairs = [(a, b) for b in range(n) for a in range(b)]
    h = _simple_graph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n))))
    for r in (1, 2):
        if r <= n:
            g = build_even_kikuchi(h, r)
            assert _first_triangle(g) == _brute_first_triangle(g)


@pytest.mark.parametrize("leaves", [60, 100])
def test_first_triangle_past_the_first_wedge_block(leaves, monkeypatch):
    # a star on vertex 0 heads C(leaves, 2) wedges that close nothing, several
    # blocks of them; the only triangle lies on the highest three vertices
    monkeypatch.setattr(kikuchi_even, "BLOCK_EDGES", 256)
    tri = [leaves + 1, leaves + 2, leaves + 3]
    h = _simple_graph(leaves + 4, [(0, x) for x in range(1, leaves + 1)]
                      + [(1, tri[0]), (tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])])
    assert comb(leaves, 2) > 4 * kikuchi_even.BLOCK_EDGES
    g = build_even_kikuchi(h, 1)
    want = _brute_first_triangle(g)
    assert want is not None and _first_triangle(g) == want
    assert shortest_even_cover_via_kikuchi(h, 1) == (3, want)


def test_search_refuses_odd_k_before_any_stage():
    # two equal clauses would be a 2-step walk
    h = Hypergraph(n=5, k=3, edges=((0, 1, 2), (0, 1, 2)))
    with pytest.raises(ValueError, match="k = 3 is odd"):
        shortest_even_cover_via_kikuchi(h, 2)


@pytest.mark.parametrize("r", [1, 7])
def test_search_refuses_r_outside_half_k_to_n_before_any_stage(r):
    h = Hypergraph(n=6, k=4, edges=((0, 1, 2, 3), (0, 1, 2, 3)))
    with pytest.raises(ValueError, match=f"got r = {r}$"):
        shortest_even_cover_via_kikuchi(h, r)


@pytest.mark.parametrize("h, r", [
    (Hypergraph(n=6, k=4, edges=((0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 2, 3))), 2),
    (Hypergraph(n=6, k=2, edges=((0, 1), (1, 2), (0, 2), (3, 4))), 1),
])
def test_search_refuses_the_whole_graph_over_the_caps_before_any_stage(h, r):
    # a duplicate clause (first case) or a triangle on 3 of the 4 clauses
    # (second) would be found on far fewer edges than the whole graph has
    edges = build_even_kikuchi(h, r).num_edges
    assert shortest_even_cover_via_kikuchi(h, r, Caps(max_edges=edges)) is not None
    with pytest.raises(CapacityError, match=f"^estimated {edges} edges "):
        shortest_even_cover_via_kikuchi(h, r, Caps(max_edges=edges - 1))
    with pytest.raises(CapacityError, match=r"vertices exceeds cap 2$"):
        shortest_even_cover_via_kikuchi(h, r, Caps(max_vertices=2))


@pytest.mark.parametrize("h, r", [
    # alpha = 0: r - k/2 = 2 exceeds the n - k = 1 vertices outside a clause
    (Hypergraph(n=5, k=4, edges=((0, 1, 2, 3), (0, 1, 2, 3))), 4),
    (Hypergraph(n=6, k=4, edges=()), 2),                          # m = 0
])
def test_search_returns_none_when_alpha_times_m_is_zero(h, r):
    assert build_even_kikuchi(h, r).num_edges == 0
    assert shortest_even_cover_via_kikuchi(h, r) is None


def _brute_triple_clauses(h, alpha):
    """Every clause where the candidate pairs, two clauses sharing one
    k/2-subset, outnumber the m * alpha edges; else the clauses in a zero-xor
    triple of distinct clauses."""
    pairs = sum(comb(len(set(a) & set(b)), h.k // 2) for a, b in combinations(h.edges, 2))
    if pairs > h.m * alpha:
        return list(range(h.m))
    masks = h.edge_masks()
    return [i for i in range(h.m) if any(masks[i] ^ masks[j] == masks[c]
                                        for j in range(h.m) for c in range(h.m)
                                        if len({i, j, c}) == 3)]


def _distinct(n, k, edges):
    return Hypergraph(n=n, k=k, edges=tuple(sorted({tuple(sorted(e)) for e in edges})))


@st.composite
def _triangle_cases(draw):
    """A hypergraph with no duplicate clause and a level r, of one of three
    kinds: 'wide' has n > 64, so vertex masks pass 64 bits, and planted
    zero-xor triples (H | X, H | Y, X | Y for disjoint k/2-sets H, X, Y);
    'dense' has most k-subsets of a few vertices, so its candidate pairs
    outnumber the graph's edges; 'small' is random and sparse."""
    k = draw(st.sampled_from([2, 4, 6]))
    kind = draw(st.sampled_from(["wide", "dense", "small"]))
    rng = random.Random(draw(st.integers(0, 2**30 - 1)))
    if kind == "wide":
        n = draw(st.integers(65, 72))
        edges = [rng.sample(range(n), k) for _ in range(draw(st.integers(0, 40)))]
        for _ in range(draw(st.integers(0, 3))):
            picked = rng.sample(range(n), 3 * (k // 2))
            hh, x, y = (picked[i::3] for i in range(3))
            edges += [hh + x, hh + y, x + y]
        r = draw(st.integers(k // 2, k // 2 + 1 if k < 6 else k // 2))
    else:
        n = draw(st.integers(k, k + (3 if kind == "dense" else 6)))
        every = list(combinations(range(n), k))
        low, high = ((len(every) * 2 // 3, len(every)) if kind == "dense"
                     else (0, min(len(every), 3 * n)))
        edges = rng.sample(every, draw(st.integers(low, high)))
        r = draw(st.integers(k // 2, k // 2 if kind == "dense" else min(n, k // 2 + 2)))
    return _distinct(n, k, edges), r


@given(_triangle_cases())
@settings(max_examples=200, deadline=None)
def test_triangle_stage_equals_the_first_triangle_of_the_whole_graph(case):
    h, r = case
    g = build_even_kikuchi(h, r)
    want = _first_triangle(g)
    got = shortest_even_cover_via_kikuchi(h, r, max_len=3)
    assert got == (None if want is None else (3, want))
    if h.m <= 60:
        assert _triple_clauses(h, g.alpha).tolist() == _brute_triple_clauses(h, g.alpha)


def _clause_counts_of_builds(monkeypatch):
    """A list that gets the clause count of each build_even_kikuchi call the
    cover search makes from here on."""
    built = []
    monkeypatch.setattr(kikuchi_even, "build_even_kikuchi",
                        lambda hh, r, caps: built.append(hh.m) or build_even_kikuchi(hh, r, caps))
    return built


def test_dense_inputs_run_the_triangle_pass_on_every_clause(monkeypatch):
    # every 4-subset of 7 vertices: 35 clauses, 21 halves in 10 clauses each,
    # so 945 candidate pairs against 35 * alpha = 105 edges
    h = Hypergraph(n=7, k=4, edges=tuple(combinations(range(7), 4)))
    g = build_even_kikuchi(h, 2)
    assert g.alpha == 3 and _triple_clauses(h, g.alpha).tolist() == list(range(35))
    built = _clause_counts_of_builds(monkeypatch)
    assert shortest_even_cover_via_kikuchi(h, 2) == (3, _first_triangle(g))
    assert built == [35]


def test_a_triangle_is_found_on_the_clauses_of_zero_xor_triples_alone(monkeypatch):
    # the cover the CI pins for this instance, found on one build of far fewer
    # than its 240 clauses
    h = gen_random(36, 4, 240, seed=1, mode="hyg")
    built = _clause_counts_of_builds(monkeypatch)
    length, cover = shortest_even_cover_via_kikuchi(h, 3)
    assert (length, sorted(cover.edge_indices)) == (3, [27, 50, 59])
    assert len(built) == 1 and 3 <= built[0] < h.m


def test_a_triangle_free_search_builds_the_whole_graph_last(monkeypatch):
    h = Hypergraph(n=8, k=4, edges=((0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7), (0, 1, 6, 7)))
    assert _triple_clauses(h, build_even_kikuchi(h, 2).alpha).tolist() == []
    built = _clause_counts_of_builds(monkeypatch)
    assert shortest_even_cover_via_kikuchi(h, 2, max_len=3) is None
    assert built == []
    assert shortest_even_cover_via_kikuchi(h, 2)[0] == 4
    assert built == [4]


def test_a_dense_triangle_free_search_builds_the_whole_graph_once(monkeypatch):
    # K(2,3): 9 candidate pairs (two clauses sharing a vertex) against 6 edges,
    # so the triangle pass runs on every clause; bipartite, so no triangle
    h = _simple_graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert _triple_clauses(h, 1).tolist() == list(range(6))
    built = _clause_counts_of_builds(monkeypatch)
    assert shortest_even_cover_via_kikuchi(h, 1, max_len=3) is None
    assert shortest_even_cover_via_kikuchi(h, 1)[0] == 4
    assert built == [6, 6]


@st.composite
def _girth_cases(draw):
    """A graph (k = 2) whose shortest cycle has `girth` 4 or 5 edges: one such
    cycle, then random edges that close no shorter one, in shuffled order."""
    girth = draw(st.sampled_from([4, 5]))
    n = draw(st.integers(girth, girth + 5))
    rng = random.Random(draw(st.integers(0, 2**30 - 1)))
    cycle = rng.sample(range(n), girth)
    nbrs = {x: set() for x in range(n)}
    for i, a in enumerate(cycle):
        b = cycle[(i + 1) % girth]
        nbrs[a].add(b)
        nbrs[b].add(a)
    for _ in range(draw(st.integers(0, 3 * n))):
        a, b = rng.sample(range(n), 2)
        # the new edge closes a cycle of (hops from a to b) + 1 edges
        seen, frontier, hops = {a}, {a}, 0
        while frontier and b not in seen:
            frontier = {y for x in frontier for y in nbrs[x]} - seen
            seen |= frontier
            hops += 1
        if b not in seen or hops + 1 >= girth:
            nbrs[a].add(b)
            nbrs[b].add(a)
    edges = sorted({(min(a, b), max(a, b)) for a in nbrs for b in nbrs[a]})
    rng.shuffle(edges)
    return Hypergraph(n=n, k=2, edges=tuple(edges)), girth, draw(st.sampled_from([1, 2]))


@given(_girth_cases())
@settings(max_examples=100, deadline=None)
def test_search_matches_the_reference_past_three_steps(case):
    # no cover has fewer than `girth` clauses, so no accepted walk is shorter;
    # at r = 1 the Kikuchi graph is the graph itself and the cycle is a walk
    h, girth, r = case
    for max_len in (None, 3, 4, 5):
        got = shortest_even_cover_via_kikuchi(h, r, max_len=max_len)
        assert _walk_and_cover(got) == _walk_and_cover(_reference_search(h, r, max_len))
        assert got is None or got[0] >= girth
    if r == 1:
        assert shortest_even_cover_via_kikuchi(h, r)[0] == girth


def _all_closed_walks(adj, length):
    # tiny exhaustive enumeration of closed walks, each as its (vertex, clause) steps
    walks = []

    def extend(start, steps):
        at = steps[-1][0] if steps else start
        if len(steps) == length:
            if at == start:
                walks.append(steps)
            return
        for step in adj[at]:
            extend(start, steps + [step])

    for start in adj:
        extend(start, [])
    return walks


def test_cover_free_implies_all_short_walks_trivial():
    # oracle-certified cover-free at <= 6 forces every closed walk <= 6 trivial
    h = Hypergraph(n=10, k=4, edges=((0, 1, 2, 3), (2, 3, 4, 5), (5, 6, 7, 8)))
    assert min_even_cover_oracle(h, 6) is None
    g = build_even_kikuchi(h, 2)
    adj = {}
    for s, t, c in g.edges:
        adj.setdefault(s, []).append((t, c))
        adj.setdefault(t, []).append((s, c))
    for length in (2, 4, 6):
        for walk in _all_closed_walks(adj, length):
            assert odd_use_cover(c for _v, c in walk).edge_indices == frozenset()
    # odd-length closed walks cannot be trivial, so none may exist at all
    for length in (3, 5):
        assert _all_closed_walks(adj, length) == []


def test_dump_format():
    g = build_even_kikuchi(TRIANGLE, 1)
    text = dump_even(g)
    lines = text.splitlines()
    assert lines[0] == "kikuchi-even 3 1 3"
    assert lines[1] == "0 1 0"
    assert text.endswith("\n")
