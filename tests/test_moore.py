import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcert import (Hypergraph, gen_random, graph_girth, ihara_moore_certificate,
                   moore_bound_audit, nb_direct_count, nb_matrices)
from kcert.moore import _ceil_log, _floor_log

PETERSEN = Hypergraph(n=10, k=2, edges=tuple(
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
))


def _heawood():
    # 14-cycle plus alternating +/-5 chords (cubic, girth 6)
    edges = [(i, (i + 1) % 14) for i in range(14)]
    for i in range(0, 14, 2):
        edges.append(tuple(sorted((i, (i + 5) % 14))))
    return Hypergraph(n=14, k=2, edges=tuple(sorted(set(edges))))


def _cycle(g):
    return Hypergraph(n=g, k=2, edges=tuple((i, (i + 1) % g) for i in range(g)))


def test_recurrence_base_cases():
    h = gen_random(8, 2, 14, seed=2, mode="hyg-multi")
    nb = nb_matrices(h, 2)
    a = np.zeros((8, 8), dtype=object)
    for u, v in h.edges:
        a[u, v] += 1
        a[v, u] += 1
    deg = a.sum(axis=1)
    assert (nb[1] == a).all()
    assert (nb[2] == a @ a - np.diag(deg)).all()


def test_c4_second_matrix():
    # two non-backtracking 2-walks to the antipodal vertex, zero diagonal
    c4 = _cycle(4)
    nb = nb_matrices(c4, 2)
    expect = np.zeros((4, 4), dtype=object)
    for i in range(4):
        expect[i, (i + 2) % 4] = 2
    assert (nb[2] == expect).all()


def test_tree_walks_are_paths():
    tree = Hypergraph(n=6, k=2, edges=((0, 1), (0, 2), (1, 3), (1, 4), (2, 5)))
    nb = nb_matrices(tree, 4)
    for s in range(5):
        direct = nb_direct_count(tree, s)
        assert (nb[s] == direct).all()
    # no closed non-backtracking walks in a tree
    for s in range(1, 5):
        assert sum(int(nb[s][i, i]) for i in range(6)) == 0


def test_direct_count_matches_recurrence_random():
    rng = random.Random(5)
    for trial in range(12):
        n = rng.randrange(4, 12)
        m = rng.randrange(3, 16)
        h = gen_random(n, 2, m, seed=trial + 10, mode="hyg-multi")
        nb = nb_matrices(h, 6)
        for s in range(7):
            assert (nb[s] == nb_direct_count(h, s)).all(), (trial, s)


def test_petersen_no_nb_closed_4_walks():
    direct = nb_direct_count(PETERSEN, 4)
    assert sum(int(direct[i, i]) for i in range(10)) == 0


def test_entries_zero_one_below_half_girth():
    # girth > ell forces every entry of A^(s) with s <= ell/2 to be 0 or 1
    for h in (PETERSEN, _heawood(), _cycle(9)):
        g = graph_girth(h)
        ell = g - 1 if (g - 1) % 2 == 0 else g - 2
        nb = nb_matrices(h, max(0, ell // 2))
        for s in range(ell // 2 + 1):
            assert all(int(x) in (0, 1) for x in nb[s].flat)


def test_ihara_certificate_cycles_petersen_heawood():
    graphs = [(_cycle(g), g) for g in range(5, 13)]
    graphs.append((PETERSEN, 5))
    graphs.append((_heawood(), 6))
    for h, girth in graphs:
        assert graph_girth(h) == girth
        for ell in range(2, girth, 2):
            ok, margin = ihara_moore_certificate(h, ell)
            assert ok, (girth, ell, margin)


def test_ihara_certificate_forest_passes_all_ell():
    forest = Hypergraph(n=7, k=2, edges=((0, 1), (1, 2), (3, 4), (5, 6)))
    for ell in (2, 4, 6, 8, 10):
        ok, _ = ihara_moore_certificate(forest, ell)
        assert ok


def test_ihara_certificate_rejects_odd_ell():
    with pytest.raises(ValueError):
        ihara_moore_certificate(PETERSEN, 3)


def test_quotient_remainder_trace_inequality():
    rng = random.Random(9)
    for trial in range(20):
        n = rng.randrange(5, 13)
        m = rng.randrange(n, 3 * n)
        h = gen_random(n, 2, m, seed=trial + 60, mode="hyg-multi")
        nb = nb_matrices(h, 6)
        for s in range(1, 7):
            tr = float(sum(int(nb[s][i, i]) for i in range(n)))
            for kk in range(1, s + 1):
                q, r = divmod(s, kk)
                ak = nb[kk].astype(np.float64)
                ar = nb[r].astype(np.float64)
                norm2 = float(np.max(np.abs(np.linalg.eigvalsh(ak))))
                fro = float(np.linalg.norm(ar))
                assert tr <= math.sqrt(n) * norm2**q * fro + 1e-6


def test_moore_audit_k10():
    k10 = Hypergraph(n=10, k=2,
                     edges=tuple((i, j) for i in range(10) for j in range(i + 1, 10)))
    rep = moore_bound_audit(k10)
    assert rep["exact_bound"] == 4 and rep["girth"] == 3 and rep["girth_le_exact"]


def test_moore_audit_petersen():
    rep = moore_bound_audit(PETERSEN)
    assert rep["average_degree"] == 3
    assert rep["exact_bound"] == 2 * (int(math.log(10, 2)) + 1) == 8
    assert rep["girth"] == 5 and rep["girth_le_exact"]
    assert rep["weak_bound"] is None


def test_moore_audit_low_degree_skips():
    rep = moore_bound_audit(_cycle(6))
    assert rep["exact_bound"] is None and rep["girth_le_exact"] is None


def test_moore_audit_weak_bound_dense():
    n = 20
    k20 = Hypergraph(n=n, k=2, edges=tuple((i, j) for i in range(n) for j in range(i + 1, n)))
    rep = moore_bound_audit(k20)
    assert rep["average_degree"] == 19
    assert rep["weak_bound"] is not None and rep["girth_le_weak"]


@st.composite
def log_cases(draw):
    """(base, x) with base > 1 rational and x >= 1, often next to or at a power
    of base (exactly at one whenever base is an integer)."""
    p = draw(st.integers(2, 60))
    base = Fraction(p, draw(st.one_of(st.just(1), st.integers(1, p - 1))))
    near = max(1, math.floor(base ** draw(st.integers(0, 40))) + draw(st.integers(-1, 1)))
    return base, draw(st.one_of(st.just(near), st.integers(1, 10**30)))


@given(log_cases())
@settings(max_examples=300, deadline=None)
def test_floor_and_ceil_log_match_an_exact_scan(case):
    base, x = case
    j, power = 0, Fraction(1)
    while power * base <= x:
        j, power = j + 1, power * base
    assert _floor_log(base, x) == j
    assert _ceil_log(base, x) == (j if power == x else j + 1)
