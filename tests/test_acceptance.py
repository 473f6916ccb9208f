"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines. Every tolerance is pinned here, not configurable.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from kcert import (Hypergraph, brute_force_max_xor, gen_random, graph_girth,
                   min_even_cover_oracle, moore_bound_audit, refute_even, refute_odd,
                   spectral_norm_reweighted, verify_even_cover)
from kcert.decomposition import decompose_for_cover, decompose_for_refutation, validate_decomposition
from kcert.kikuchi_even import build_even_kikuchi, shortest_even_cover_via_kikuchi
from kcert.kikuchi_odd import (build_colored_kikuchi, delete_heavy_edges, equalize_deletion,
                               measured_deletion_fractions, predicted_deletion_fraction)
from kcert.spectral import exact_trace_power, trace_bound_rhs
from kcert.cli import main as cli_main
from pair_cells import edge_mask
from subset_masks import all_subset_masks_colex


def _frac(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _graph_gamma(h):
    deg = [0] * h.n
    for u, v in h.edges:
        deg[u] += 1
        deg[v] += 1
    d = Fraction(2 * h.m, h.n)
    return [Fraction(x) + d for x in deg]


def _graph_adjacency(h):
    a = np.zeros((h.n, h.n))
    for u, v in h.edges:
        a[u, v] += 1
        a[v, u] += 1
    return a


def test_criterion_01_soundness_sweep():
    """200 random instances, certified_bound >= brute-force max, exactly."""
    rng = random.Random(20260809)
    checked = 0
    while checked < 200:
        k = (2, 3, 4, 5)[checked % 4]
        n = rng.randrange(max(k + 1, 6), 13)
        m = rng.randrange(3, 81)
        seed = 1000 + checked
        inst = gen_random(n, k, m, seed, mode="xor-multi")
        if k % 2 == 0:
            r_options = [r for r in (1, 2, 3) if k // 2 <= r <= n - k // 2]
            r = rng.choice(r_options)
            cert = refute_even(inst, r, seed=seed)
        else:
            r = rng.choice((1, 2, 3))
            cert = refute_odd(inst, r, Fraction(2, 5), seed=seed, relax_r_range=True)
        bound = _frac(cert["certified_bound"])
        exact_max = brute_force_max_xor(inst)
        assert bound >= exact_max, (k, n, m, r, seed, float(bound), float(exact_max))
        checked += 1
    print(f"\nCRITERION 1: PASS - {checked} instances, certified_bound >= max psi exactly")


def _subdivide(h, times):
    """Insert `times` midpoints into every edge (multiplies the girth)."""
    if times == 0:
        return h
    edges = []
    n = h.n
    for u, v in h.edges:
        chain = [u] + list(range(n, n + times)) + [v]
        n += times
        edges += [tuple(sorted(p)) for p in zip(chain, chain[1:])]
    return Hypergraph(n=n, k=2, edges=tuple(edges))


def test_criterion_02_reweighted_norm_vs_girth():
    """50 random graphs: ||Gamma^-1/2 A Gamma^-1/2|| < 2 n^(1/l) / sqrt(d) for even l < girth."""
    rng = random.Random(7)
    done = 0
    pairs_checked = 0
    girths = []
    while done < 50:
        n0 = rng.randrange(10, 40)
        m0 = rng.randrange(n0 + 1, 2 * n0)
        h = _subdivide(gen_random(n0, 2, m0, seed=3000 + done, mode="hyg"),
                       done % 3)
        g = graph_girth(h)
        assert g != math.inf
        girths.append(g)
        d = Fraction(2 * h.m, h.n)
        assert d > 1
        lam, resid = spectral_norm_reweighted(_graph_adjacency(h), _graph_gamma(h), seed=done)
        for ell in range(2, g, 2):
            rhs = 2.0 * float(h.n) ** (1.0 / ell) / math.sqrt(float(d))
            assert lam + 1e-8 < rhs, (h.n, h.m, g, ell, lam, rhs)
            pairs_checked += 1
        done += 1
    print(f"\nCRITERION 2: PASS - 50 graphs (girth up to {max(girths)}), "
          f"{pairs_checked} (graph, l) norm bounds strict")


def test_criterion_03_trace_lemma_exact():
    """30 cover-free hypergraphs: exact trace power <= closed-walk bound, rationally."""
    rng = random.Random(99)
    done = 0
    comparisons = 0
    attempt = 0
    while done < 30:
        attempt += 1
        if done % 2 == 0:
            n = rng.randrange(12, 40)
            m = rng.randrange(n - 4, n + 4)
            h = gen_random(n, 2, m, seed=4000 + attempt, mode="hyg")
            r = 1
        else:
            n = rng.randrange(10, 13)
            m = rng.randrange(8, 16)
            h = gen_random(n, 4, m, seed=4000 + attempt, mode="hyg")
            r = 2
        res = min_even_cover_oracle(h, 8)
        girth_cap = res[0] - 1 if res else 8
        ells = [ell for ell in (2, 4, 6, 8) if ell <= girth_cap]
        if not ells:
            continue
        g = build_even_kikuchi(h, r)
        if g.num_edges == 0:
            continue
        nv = g.num_vertices
        a = np.zeros((nv, nv), dtype=object)
        for s, t, _c in g.edges:
            a[s, t] += 1
            a[t, s] += 1
        gamma = g.gamma_diagonal()
        for ell in ells:
            tr = exact_trace_power(a, gamma, ell)
            rhs = trace_bound_rhs(h.n, r, ell, g.average_degree)
            assert tr <= rhs, (n, m, r, ell)
            comparisons += 1
        done += 1
    print(f"\nCRITERION 3: PASS - 30 cover-free instances, {comparisons} exact trace comparisons")


def test_criterion_05_moore_bound_audit():
    """100 graphs with d > 2: girth <= 2(floor(log_(d-1) n) + 1)."""
    rng = random.Random(123)
    audited = 0
    for trial in range(100):
        if trial < 80:
            n = rng.randrange(20, 300)
        elif trial < 95:
            n = rng.randrange(300, 800)
        else:
            n = rng.randrange(800, 2001)
        m = rng.randrange(int(1.1 * n) + 1, 3 * n)
        h = gen_random(n, 2, m, seed=7000 + trial, mode="hyg")
        rep = moore_bound_audit(h)
        assert rep["average_degree"] > 2
        assert rep["girth_le_exact"] is True, (n, m, rep)
        audited += 1
    print(f"\nCRITERION 5: PASS - {audited} graphs obey the exact girth bound")


def test_criterion_06_deletion_process():
    """Measured per-pair deletion fraction <= predicted; equalization identity exact."""
    rng = random.Random(55)
    instances = 0
    identity_checks = 0
    while instances < 50:
        k = 3 if instances % 2 == 0 else 5
        if k == 3:
            n = rng.randrange(8, 13)
            m = rng.randrange(10, 41)
            r = 2
        else:
            n = rng.randrange(10, 14)
            m = rng.randrange(10, 31)
            r = 4
        seed = 8000 + instances
        inst = gen_random(n, k, m, seed, mode="xor-multi")
        h = inst.hypergraph
        d = decompose_for_refutation(h, r, Fraction(2, 5), enforce_ranges=False)
        eta = rng.choice((1, 2, 4))
        used = False
        for t in d.levels():
            if h.k - t > r:
                continue
            groups = d.groups_at(t)
            if not any(len(g.clause_indices) >= 2 for g in groups):
                continue
            g = build_colored_kikuchi(h, d, t, r)
            if not g.alpha:
                continue
            used = True
            pre = delete_heavy_edges(g, eta)
            fracs = measured_deletion_fractions(g, pre)
            measured = max(fracs.values(), default=Fraction(0))
            predicted = predicted_deletion_fraction(k, n, r, t, eta, thresholds=d.thresholds)
            assert measured <= predicted, (k, n, m, t, eta, float(measured), float(predicted))
            res = equalize_deletion(g, pre)
            kept = edge_mask(g, res.surviving)
            nmask = (1 << g.n) - 1
            vm = all_subset_masks_colex(g.COLORS * g.n, g.r)
            for _ in range(20):
                x = [rng.choice((-1, 1)) for _ in range(n)]
                q = qh = 0
                for pos, (s, tt, gi, a, b) in enumerate(g.edges):
                    prod = inst.signs[a] * inst.signs[b]
                    for sm in (vm[s], vm[tt]):
                        mm = (sm & nmask) ^ (sm >> g.n)
                        i = 0
                        while mm:
                            if mm & 1:
                                prod *= x[i]
                            mm >>= 1
                            i += 1
                    q += 2 * prod
                    if kept[pos]:
                        qh += 2 * prod
                assert Fraction(qh) == (1 - res.rho) * Fraction(q)
                identity_checks += 1
        if used:
            instances += 1
    print(f"\nCRITERION 6: PASS - 50 decompositions, {identity_checks} exact equalization identities")


def test_criterion_07_even_mode_strength():
    """k=2, n=200, m=8000, r=1: certified_bound <= 0.5 on at least 9 of 10 seeds."""
    good = 0
    values = []
    for seed in range(10):
        inst = gen_random(200, 2, 8000, seed, mode="xor-multi")
        cert = refute_even(inst, 1, seed=seed)
        b = _frac(cert["certified_bound"])
        values.append(float(b))
        if b <= Fraction(1, 2):
            good += 1
    assert good >= 9, values
    print(f"\nCRITERION 7: PASS - {good}/10 seeds below 0.5 (max bound {max(values):.3f})")


def test_criterion_08_decomposition_postconditions():
    """validate_decomposition passes on 100 random hypergraphs, both modes."""
    rng = random.Random(77)
    for trial in range(100):
        k = 3 if trial % 2 == 0 else 5
        n = rng.randrange(k + 3, 15)
        m = rng.randrange(5, 61)
        h = gen_random(n, k, m, seed=9000 + trial, mode="hyg-multi")
        if trial % 2 == 0:
            d = decompose_for_cover(h, rng.randrange(1, n))
        else:
            d = decompose_for_refutation(h, 2, Fraction(1, 3), enforce_ranges=False)
        failures = validate_decomposition(h, d)
        assert not failures, (trial, k, n, m, failures[:3])
    print("\nCRITERION 8: PASS - 100 decompositions validate (partition, sizes, caps)")


def test_criterion_09_every_emitted_cover_verifies():
    """Oracle and Kikuchi-walk covers all verify; oracle minimality rescans."""
    rng = random.Random(31225)
    oracle_checked = kikuchi_checked = 0

    for trial in range(12):
        k = rng.choice((2, 3, 4))
        n = rng.randrange(max(6, k + 2), 12)
        m = rng.randrange(6, 19)
        h = gen_random(n, k, m, seed=10_000 + trial, mode="hyg-multi")
        res = min_even_cover_oracle(h, m)
        if res is None:
            continue
        size, cover = res
        assert verify_even_cover(h, cover)
        for smaller in range(1, size):
            for sub in combinations(range(h.m), smaller):
                assert not verify_even_cover(h, sub)
        oracle_checked += 1

    for trial in range(12):
        k = rng.choice((2, 4))
        n = rng.randrange(8, 12)
        m = rng.randrange(20, 70)
        h = gen_random(n, k, m, seed=11_000 + trial, mode="hyg-multi")
        r = 1 if k == 2 else 2
        found = shortest_even_cover_via_kikuchi(h, r)
        if found is None:
            continue
        length, cover = found
        assert verify_even_cover(h, cover)
        assert len(cover.edge_indices) >= 2
        oracle = min_even_cover_oracle(h, h.m) if h.m <= 30 else None
        if oracle:
            assert len(cover.edge_indices) >= oracle[0]
        kikuchi_checked += 1

    assert oracle_checked >= 5 and kikuchi_checked >= 5
    print(f"\nCRITERION 9: PASS - {oracle_checked} oracle (minimality rescanned) and "
          f"{kikuchi_checked} walk covers verify")


def test_criterion_10_determinism(tmp_path, capsys):
    """Identical seeds produce byte-identical instances, certificates and dumps."""
    inst_path = tmp_path / "inst.xor"
    assert cli_main(["gen", "--type", "xor", "--n", "10", "--k", "3", "--m", "30",
                     "--seed", "42", "--out", str(inst_path)]) == 0
    inst_path2 = tmp_path / "inst2.xor"
    assert cli_main(["gen", "--type", "xor", "--n", "10", "--k", "3", "--m", "30",
                     "--seed", "42", "--out", str(inst_path2)]) == 0
    assert inst_path.read_bytes() == inst_path2.read_bytes()

    certs = []
    for name in ("c1.json", "c2.json"):
        p = tmp_path / name
        assert cli_main(["refute", str(inst_path), "--r", "2", "--seed", "9",
                         "--eps", "2/5", "--relax-r-range", "--out", str(p)]) == 0
        certs.append(p.read_bytes())
    assert certs[0] == certs[1]

    even_path = tmp_path / "even.xor"
    assert cli_main(["gen", "--type", "xor", "--n", "10", "--k", "4", "--m", "40",
                     "--seed", "5", "--out", str(even_path)]) == 0
    ecerts = []
    for name in ("e1.json", "e2.json"):
        p = tmp_path / name
        assert cli_main(["refute", str(even_path), "--r", "2", "--seed", "3",
                         "--out", str(p)]) == 0
        ecerts.append(p.read_bytes())
    assert ecerts[0] == ecerts[1]

    hyg_path = tmp_path / "h.hyg"
    assert cli_main(["gen", "--type", "hyg", "--n", "8", "--k", "4", "--m", "12",
                     "--seed", "2", "--out", str(hyg_path)]) == 0
    dumps = []
    for name in ("d1.txt", "d2.txt"):
        p = tmp_path / name
        assert cli_main(["kikuchi", "dump", str(hyg_path), "--r", "2", "--out", str(p)]) == 0
        dumps.append(p.read_bytes())
    assert dumps[0] == dumps[1]
    capsys.readouterr()
    print("\nCRITERION 10: PASS - byte-identical instances, certificates and dumps")
