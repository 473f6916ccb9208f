import random
from fractions import Fraction

import pytest

from kcert import (CapacityError, Caps, Hypergraph, eval_xor, gen_random,
                   min_even_cover_oracle, random_assignment, verify_even_cover)
from kcert.kikuchi_even import (build_even_kikuchi, dump_even, extract_cover_from_closed_walk,
                                kikuchi_stats, shortest_even_cover_via_kikuchi,
                                signed_even_kikuchi)

TRIANGLE = Hypergraph(n=3, k=2, edges=((0, 1), (1, 2), (0, 2)))
ONE_QUAD = Hypergraph(n=6, k=4, edges=((0, 1, 2, 3),))


def test_k2_r1_is_the_graph_itself():
    g = build_even_kikuchi(TRIANGLE, 1)
    assert g.num_vertices == 3
    assert [(s, t) for s, t, _ in g.edges] == [(0, 1), (0, 2), (1, 2)]


def test_single_quad_example():
    g = build_even_kikuchi(ONE_QUAD, 2)
    st = kikuchi_stats(g)
    assert st["num_vertices"] == 15
    assert st["num_edges"] == 3 and st["alpha"] == 3
    assert st["average_degree"] == Fraction(2, 5)
    # the three edges split the clause into complementary halves
    masks = [frozenset({g.vertex_masks[s], g.vertex_masks[t]}) for s, t, _ in g.edges]
    want = [frozenset({0b0011, 0b1100}), frozenset({0b0101, 0b1010}), frozenset({0b1001, 0b0110})]
    assert sorted(map(sorted, masks)) == sorted(map(sorted, want))


def test_stats_gamma_and_degenerate():
    g = build_even_kikuchi(TRIANGLE, 1)
    assert g.gamma_diagonal() == [Fraction(4)] * 3    # d_S = 2, d = 2
    assert kikuchi_stats(g)["degree_histogram"] == {2: 3}
    empty = build_even_kikuchi(Hypergraph(n=4, k=2, edges=()), 1)
    st2 = kikuchi_stats(empty)
    assert st2["degenerate"] and st2["average_degree"] == 0


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


def test_quadratic_form_identity():
    # psi(x) * C(n,r) * d equals the signed quadratic form, exactly
    from math import comb

    rng = random.Random(12)
    inst = gen_random(8, 4, 20, seed=12, mode="xor-multi")
    skg = signed_even_kikuchi(inst, 2)
    g = skg.graph
    d = g.average_degree
    for _ in range(20):
        x = random_assignment(8, rng)
        quad = 0
        for (s, t, c), sign in zip(g.edges, skg.edge_signs):
            xs = xt = 1
            for v in range(8):
                if (g.vertex_masks[s] >> v) & 1:
                    xs *= x[v]
                if (g.vertex_masks[t] >> v) & 1:
                    xt *= x[v]
            quad += 2 * sign * xs * xt
        assert eval_xor(inst, x) * comb(8, 2) * d == quad


def test_extract_cover_trivial_walk():
    g = build_even_kikuchi(TRIANGLE, 1)
    cover = extract_cover_from_closed_walk(g, [0, 1])
    assert cover.edge_indices == frozenset()


def test_extract_cover_triangle_cycle():
    g = build_even_kikuchi(TRIANGLE, 1)
    cover = extract_cover_from_closed_walk(g, [0, 1, 2])
    assert cover.edge_indices == frozenset({0, 1, 2})
    assert verify_even_cover(TRIANGLE, cover)
    with pytest.raises(ValueError):
        extract_cover_from_closed_walk(g, [0, 0, 1])


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


def test_shortest_cover_respects_oracle():
    h = gen_random(10, 4, 60, seed=5, mode="hyg-multi")
    res = shortest_even_cover_via_kikuchi(h, 2)
    oracle = min_even_cover_oracle(h, h.m) if h.m <= 30 else None
    if res is not None:
        assert verify_even_cover(h, res[1])
        if oracle is not None:
            assert len(res[1].edge_indices) >= oracle[0]


def _all_closed_walks(adj, length):
    # tiny exhaustive enumeration of closed walks (vertex sequences)
    walks = []

    def extend(path):
        if len(path) == length:
            if any(v == path[0] for v, _c in adj[path[-1]]):
                for v, c in adj[path[-1]]:
                    if v == path[0]:
                        walks.append(path)
            return
        for v, _c in adj[path[-1]]:
            extend(path + [v])

    for start in adj:
        extend([start])
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
            cover = extract_cover_from_closed_walk(g, walk)
            assert cover.edge_indices == frozenset()
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
