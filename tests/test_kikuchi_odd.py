import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kcert import CapacityError, Caps, Hypergraph, gen_random
from kcert.decomposition import Decomposition, Group, decompose_for_refutation
from kcert.kikuchi_odd import (build_colored_kikuchi, delete_heavy_edges, dump_colored,
                               equalize_deletion, measured_deletion_fractions,
                               predicted_deletion_fraction)
from assignments import random_assignment
from pair_cells import edge_mask
from subset_masks import all_subset_masks_colex, vertices_from


def _decomp_from_groups(h, groups, r, taus=None):
    level = len(groups[0].center)
    taus = taus or {t: 2 for t in range(1, h.k)}
    pieces = {t: () for t in range(1, h.k)}
    pieces[level] = tuple(groups)
    return Decomposition(mode="refute", n=h.n, k=h.k, r=r, eps=Fraction(1, 4),
                         pieces=pieces, thresholds=taus)


def _quad_form(g, signs, x, keep=None):
    total = 0
    vm = all_subset_masks_colex(g.COLORS * g.n, g.r)
    for pos, (s, t, gi, a, b) in enumerate(g.edges):
        if keep is not None and not keep[pos]:
            continue
        prod = signs[a] * signs[b]
        for sm in (vm[s], vm[t]):
            mm = (sm & ((1 << g.n) - 1)) ^ (sm >> g.n)
            i = 0
            while mm:
                if mm & 1:
                    prod *= x[i]
                mm >>= 1
                i += 1
        total += 2 * prod
    return total


def test_worked_example_k3():
    h = Hypergraph(n=5, k=3, edges=((0, 1, 2), (0, 3, 4)))
    grp = Group(center=(0,), clause_indices=(0, 1))
    d = _decomp_from_groups(h, [grp], 2)
    g = build_colored_kikuchi(h, d, 1, 2)
    assert g.num_vertices == 45           # C(10, 2)
    assert g.alpha == 2                   # per ordered pair, measured
    assert g.alpha_closed_form == 4       # per unordered pair, as displayed
    assert g.num_edges == 4
    # green side of S meets C~ in ceil(1), blue side meets C~' in floor(1)
    n = g.n
    vm = all_subset_masks_colex(g.COLORS * n, g.r)
    for s, t, gi, a, b in g.edges:
        sm = vm[s]
        green = vertices_from(sm & ((1 << n) - 1))
        blue = vertices_from(sm >> n)
        assert len(green) == 1 and len(blue) == 1


def test_singleton_group_no_edges():
    h = Hypergraph(n=5, k=3, edges=((0, 1, 2),))
    grp = Group(center=(0,), clause_indices=(0,))
    d = _decomp_from_groups(h, [grp], 2)
    g = build_colored_kikuchi(h, d, 1, 2)
    assert g.num_edges == 0 and g.alpha is None


def test_disjoint_groups_additive():
    h = Hypergraph(n=10, k=3, edges=((0, 1, 2), (0, 3, 4), (5, 6, 7), (5, 8, 9)))
    g1 = Group(center=(0,), clause_indices=(0, 1))
    g2 = Group(center=(5,), clause_indices=(2, 3))
    d2 = _decomp_from_groups(h, [g1, g2], 2)
    g = build_colored_kikuchi(h, d2, 1, 2)
    per_group = {}
    for _s, _t, gi, _a, _b in g.edges:
        per_group[gi] = per_group.get(gi, 0) + 1
    assert per_group == {0: 4, 1: 4}
    single = build_colored_kikuchi(h, _decomp_from_groups(h, [g1], 2), 1, 2)
    assert single.num_edges == 4


def test_no_cap_admits_two_to_the_32_vertices():
    # 2n = 100 colored positions at r = 7: C(100, 7) >= 2^32, refused before
    # anything of that size is built, however high the caps are set
    h = Hypergraph(n=50, k=3, edges=((0, 1, 2), (0, 3, 4)))
    d = _decomp_from_groups(h, [Group(center=(0,), clause_indices=(0, 1))], 7)
    with pytest.raises(CapacityError,
                       match=r"^C\(100,7\) = 16007560800 vertices exceeds cap 4294967295$"):
        build_colored_kikuchi(h, d, 1, 7, Caps(max_vertices=10**15, max_edges=10**15))


def test_delete_nothing_on_single_pair():
    h = Hypergraph(n=5, k=3, edges=((0, 1, 2), (0, 3, 4)))
    d = _decomp_from_groups(h, [Group(center=(0,), clause_indices=(0, 1))], 2)
    g = build_colored_kikuchi(h, d, 1, 2)
    for eta in (1, 2, 10):
        pre = delete_heavy_edges(g, eta)
        assert np.count_nonzero(pre) == g.num_edges


def test_delete_engineered_overlap():
    # two clauses through vertex 1 make some S see a clause twice at eta = 1
    h = Hypergraph(n=6, k=3, edges=((0, 1, 2), (0, 3, 4), (0, 1, 5)))
    d = _decomp_from_groups(h, [Group(center=(0,), clause_indices=(0, 1, 2))], 2)
    g = build_colored_kikuchi(h, d, 1, 2)
    pre = delete_heavy_edges(g, 1)
    assert np.count_nonzero(pre) < g.num_edges
    # recount survivors: per-vertex per-clause incidence <= 1
    inc = {}
    kept = edge_mask(g, pre)
    for pos, (s, t, gi, a, b) in enumerate(g.edges):
        if kept[pos]:
            for vtx in (s, t):
                for c in (a, b):
                    inc[(vtx, gi, c)] = inc.get((vtx, gi, c), 0) + 1
    assert all(v <= 1 for v in inc.values())
    # eta large enough: no deletions
    assert np.count_nonzero(delete_heavy_edges(g, 10)) == g.num_edges


def test_delete_infinite_eta_sentinel():
    h = Hypergraph(n=6, k=3, edges=((0, 1, 2), (0, 3, 4), (0, 1, 5)))
    d = _decomp_from_groups(h, [Group(center=(0,), clause_indices=(0, 1, 2))], 2)
    g = build_colored_kikuchi(h, d, 1, 2)
    pre = delete_heavy_edges(g, math.inf)
    assert np.count_nonzero(pre) == g.num_edges


@pytest.mark.parametrize("eta", [float("nan"), "3", None, 0, 0.5, -math.inf, True])
def test_delete_rejects_an_eta_that_is_no_number_at_least_one(eta):
    h = Hypergraph(n=6, k=3, edges=((0, 1, 2), (0, 3, 4), (0, 1, 5)))
    d = _decomp_from_groups(h, [Group(center=(0,), clause_indices=(0, 1, 2))], 2)
    g = build_colored_kikuchi(h, d, 1, 2)
    with pytest.raises(ValueError, match="eta must be a number >= 1"):
        delete_heavy_edges(g, eta)
    with pytest.raises(ValueError, match="eta must be a number >= 1"):
        predicted_deletion_fraction(3, 6, 2, 1, eta, d.thresholds)


def test_build_names_the_first_clause_outside_its_center():
    h = Hypergraph(n=6, k=3, edges=((0, 1, 2), (1, 3, 4), (0, 1, 5), (2, 3, 5), (0, 3, 5)))
    groups = [Group(center=(0,), clause_indices=(2, 0)),
              Group(center=(1,), clause_indices=(4, 3, 1))]
    # clauses 4 and 3 both miss vertex 1: the first in stored order is named
    with pytest.raises(ValueError, match="clause 4 does not contain its group center"):
        build_colored_kikuchi(h, _decomp_from_groups(h, groups, 2), 1, 2)
    groups[1] = Group(center=(1, 3), clause_indices=(1,))
    with pytest.raises(ValueError, match=r"group center \(1, 3\) does not have size 1"):
        build_colored_kikuchi(h, _decomp_from_groups(h, groups, 2), 1, 2)


@pytest.mark.parametrize("level", [0, 3])
def test_build_refuses_a_level_outside_1_to_k_minus_1(level):
    h = Hypergraph(n=6, k=3, edges=((0, 1, 2), (0, 3, 4)))
    d = _decomp_from_groups(h, [Group(center=(0,), clause_indices=(0, 1))], 2)
    with pytest.raises(ValueError, match=f"^level must lie in 1..k-1, got {level}$"):
        build_colored_kikuchi(h, d, level, 2)


def test_equalize_cuts_every_pair_to_kappa():
    h = Hypergraph(n=6, k=3, edges=((0, 1, 2), (0, 3, 4), (0, 1, 5)))
    d = _decomp_from_groups(h, [Group(center=(0,), clause_indices=(0, 1, 2))], 2)
    g = build_colored_kikuchi(h, d, 1, 2)
    pre = delete_heavy_edges(g, 1)
    res = equalize_deletion(g, pre)
    counts = set(res.surviving.sum(axis=1).tolist())
    assert counts == {res.kappa}
    assert res.rho == 1 - Fraction(res.kappa, g.alpha)
    per_pair = {}
    kept = edge_mask(g, res.surviving)
    for pos, (s, t, gi, a, b) in enumerate(g.edges):
        if kept[pos]:
            per_pair[(gi, a, b)] = per_pair.get((gi, a, b), 0) + 1
    assert all(v == res.kappa for v in per_pair.values())


def test_equalize_no_deletions_rho_zero():
    h = Hypergraph(n=5, k=3, edges=((0, 1, 2), (0, 3, 4)))
    d = _decomp_from_groups(h, [Group(center=(0,), clause_indices=(0, 1))], 2)
    g = build_colored_kikuchi(h, d, 1, 2)
    res = equalize_deletion(g, delete_heavy_edges(g, 5))
    assert res.rho == 0 and res.kappa == g.alpha


def test_equalize_is_idempotent_and_leaves_its_mask_alone():
    h = Hypergraph(n=6, k=3, edges=((0, 1, 2), (0, 3, 4), (0, 1, 5)))
    d = _decomp_from_groups(h, [Group(center=(0,), clause_indices=(0, 1, 2))], 2)
    # kappa 0, kappa = alpha, 0 < kappa < alpha, and level 2, which has no
    # groups: no rows, kappa None
    for level, r, eta, kappa in ((1, 2, 1, 0), (1, 2, math.inf, 2), (1, 3, 2, 12),
                                 (2, 2, math.inf, None)):
        g = build_colored_kikuchi(h, d, level, r)
        pre = delete_heavy_edges(g, eta)
        before = pre.copy()
        res = equalize_deletion(g, pre)
        assert res.kappa == kappa
        assert not np.shares_memory(res.surviving, pre) and np.array_equal(pre, before)
        again = equalize_deletion(g, res.surviving)
        assert not np.shares_memory(again.surviving, res.surviving)
        assert np.array_equal(again.surviving, res.surviving)
        assert (again.kappa, again.rho) == (res.kappa, res.rho)


def test_equalization_identity_exact():
    rng = random.Random(21)
    for trial in range(5):
        h = gen_random(8, 3, rng.randrange(8, 25), seed=trial + 70, mode="hyg-multi")
        d = decompose_for_refutation(h, 2, Fraction(2, 5), enforce_ranges=False)
        if all(len(g.clause_indices) < 2 for g in d.groups_at(1)):
            continue
        g = build_colored_kikuchi(h, d, 1, 2)
        if not g.alpha:
            continue
        signs = [rng.choice([-1, 1]) for _ in range(h.m)]
        res = equalize_deletion(g, delete_heavy_edges(g, 1))
        kept = edge_mask(g, res.surviving)
        for _ in range(20):
            x = random_assignment(h.n, rng)
            q = _quad_form(g, signs, x)
            qh = _quad_form(g, signs, x, keep=kept)
            assert Fraction(qh) == (1 - res.rho) * Fraction(q)


def test_measured_below_predicted_refutation_form():
    rng = random.Random(31)
    closed_forms = 0
    for trial in range(5):
        k = rng.choice([3, 5])
        n = rng.randrange(2 * k, 2 * k + 5)
        h = gen_random(n, k, rng.randrange(10, 40), seed=trial + 90, mode="hyg-multi")
        d = decompose_for_refutation(h, 2, Fraction(2, 5), enforce_ranges=False)
        for t in d.levels():
            groups = d.groups_at(t)
            if not any(len(g.clause_indices) >= 2 for g in groups):
                continue
            g = build_colored_kikuchi(h, d, t, max(2, k - t))
            if not g.alpha:
                continue
            predicted = {eta: predicted_deletion_fraction(k, n, g.r, t, eta, d.thresholds)
                         for eta in (1, 2)}
            assert predicted[1] == 2 * predicted[2]             # exact 1/eta scaling
            if (k, t) == (3, 1):
                tau, rn = d.thresholds, Fraction(g.r, n)
                assert predicted[1] == 4**3 * (tau[1] * rn + tau[2])
                closed_forms += 1
            for eta in (1, 2):
                res = delete_heavy_edges(g, eta)
                fracs = measured_deletion_fractions(g, res)
                measured = max(fracs.values(), default=Fraction(0))
                assert measured <= predicted[eta]
    assert closed_forms


def test_dump_colored_format():
    h = Hypergraph(n=5, k=3, edges=((0, 1, 2), (0, 3, 4)))
    d = _decomp_from_groups(h, [Group(center=(0,), clause_indices=(0, 1))], 2)
    g = build_colored_kikuchi(h, d, 1, 2)
    lines = dump_colored(g).splitlines()
    assert lines[0] == "kikuchi-odd 5 2 1 1"
    assert len(lines) == 1 + g.num_edges


def test_average_degree_window_in_valid_range():
    # with 2k <= r <= n/8, twice the per-unordered-pair count over C(2n, r)
    # lies between (r/2n)^(k-t) and 2^(2k) (r/2n)^(k-t); the builder measures
    # alpha per ordered pair, so |E| = sum_i C(|H_i|,2) * alpha_closed either way
    from math import comb

    for k, t, r, n in ((3, 1, 6, 48), (3, 2, 6, 64), (5, 2, 10, 80), (5, 4, 12, 96)):
        kt = k - t
        hb, lb = (kt + 1) // 2, kt // 2
        alpha_t = comb(kt, lb) * comb(kt, hb) * comb(2 * n - 2 * kt, r - kt) * (2 if kt % 2 else 1)
        ratio = Fraction(2 * alpha_t, comb(2 * n, r))     # d / sum_i C(|H_i|, 2)
        lo = Fraction(r, 2 * n) ** kt
        hi = Fraction(2) ** (2 * k) * lo
        assert lo <= ratio <= hi, (k, t, r, n, float(lo), float(ratio), float(hi))


def test_measured_alpha_equals_half_closed_form_at_desk_scale():
    rng = random.Random(17)
    for trial in range(6):
        k = rng.choice([3, 5])
        n = rng.randrange(k + 3, 12)
        h = gen_random(n, k, rng.randrange(6, 25), seed=trial + 300, mode="hyg-multi")
        d = decompose_for_refutation(h, 2, Fraction(2, 5), enforce_ranges=False)
        for t in d.levels():
            if k - t > 2:
                continue
            if not any(len(g.clause_indices) >= 2 for g in d.groups_at(t)):
                continue
            g = build_colored_kikuchi(h, d, t, 2)
            if g.alpha is None:
                continue
            assert 2 * g.alpha == g.alpha_closed_form


@pytest.mark.parametrize("k", [3, 5])
def test_predicted_deletion_fraction_sums_up_to_floor_of_half_k_plus_level(k):
    # at level 2 with k odd, (k + level) // 2 stops one term before
    # (k + level + 1) // 2 would; thresholds are given past both
    taus = {s: 10 + s for s in range(1, k + 2)}
    rn = Fraction(4, 30)
    terms = {3: taus[2], 5: taus[2] * rn + taus[3]}[k]
    assert predicted_deletion_fraction(k, 30, 4, 2, 3, taus) == Fraction(4**k, 3) * terms


def test_predicted_deletion_fraction_at_infinite_eta_and_a_missing_threshold():
    assert predicted_deletion_fraction(3, 30, 4, 1, math.inf, {}) == 0
    with pytest.raises(ValueError, match="^threshold tau_2 missing$"):
        predicted_deletion_fraction(3, 30, 4, 1, 3, {1: 10})


def test_measured_deletion_fractions_of_a_level_without_pairs_is_empty():
    # CI's odd instance: every clause lands in a level-1 group, so level 2 has
    # no ordered pairs and no alpha
    h = gen_random(9, 3, 30, 4, mode="hyg-multi")
    d = decompose_for_refutation(h, 2, Fraction(1, 3), enforce_ranges=False)
    g = build_colored_kikuchi(h, d, 2, 2)
    assert d.groups_at(2) == () and g.alpha is None
    assert measured_deletion_fractions(g, delete_heavy_edges(g, math.inf)) == {}
