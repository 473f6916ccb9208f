import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from kcert import (CapacityError, Hypergraph, NonConvergenceError, exact_trace_power, gen_random,
                   graph_girth, ritz_norm_reweighted, spectral_norm_reweighted, trace_bound_rhs)
from kcert.kikuchi_even import build_even_kikuchi, signed_even_kikuchi
from kcert.spectral import _lanczos, _lanczos_vectors, _reweighted
from kcert.refuter import VERIFY_SEED_OFFSET, VERIFY_TOL

# every input check is shared, so each refusal is tested on both
NORMS = (spectral_norm_reweighted, ritz_norm_reweighted)

TRIANGLE = Hypergraph(n=3, k=2, edges=((0, 1), (1, 2), (0, 2)))


def _graph_adjacency(h):
    a = np.zeros((h.n, h.n))
    for u, v in h.edges:
        a[u, v] += 1
        a[v, u] += 1
    return a


def test_norm_triangle():
    a = _graph_adjacency(TRIANGLE)
    lam, resid = spectral_norm_reweighted(a, [Fraction(4)] * 3)
    assert abs(lam - 0.5) < 1e-9
    assert resid < 1e-7


def test_norm_zero_matrix():
    lam, resid = spectral_norm_reweighted(np.zeros((4, 4)), [Fraction(1)] * 4)
    assert lam == 0.0 and resid == 0.0


def test_norm_diagonal_equal_gamma():
    a = np.diag([3.0, 5.0, 7.0])
    lam, _ = spectral_norm_reweighted(a, [Fraction(3), Fraction(5), Fraction(7)])
    assert abs(lam - 1.0) < 1e-9


def test_norm_seed_invariance():
    h = gen_random(30, 2, 70, seed=4, mode="hyg-multi")
    a = _graph_adjacency(h)
    deg = a.sum(axis=1)
    d = 2 * h.m / h.n
    gamma = [Fraction(int(x)) + Fraction(2 * h.m, h.n) for x in deg]
    lam1, _ = spectral_norm_reweighted(a, gamma, seed=1)
    lam2, _ = spectral_norm_reweighted(a, gamma, seed=99)
    assert abs(lam1 - lam2) <= 10 * 1e-9 * max(1.0, abs(lam1))


def test_norm_signed_matches_dense():
    rng = random.Random(5)
    h = gen_random(12, 2, 30, seed=6, mode="hyg-multi")
    signs = [rng.choice([-1, 1]) for _ in range(h.m)]
    a = np.zeros((h.n, h.n))
    for (u, v), s in zip(h.edges, signs):
        a[u, v] += s
        a[v, u] += s
    deg = np.abs(_graph_adjacency(h)).sum(axis=1)
    gamma = [Fraction(int(x)) + Fraction(2 * h.m, h.n) for x in deg]
    lam, resid = spectral_norm_reweighted(a, gamma)
    gf = np.array([float(g) for g in gamma])
    dense = np.diag(1 / np.sqrt(gf)) @ a @ np.diag(1 / np.sqrt(gf))
    expect = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
    assert abs(lam - expect) <= 1e-8 * max(1.0, expect)
    assert lam + resid >= expect


def test_norm_requires_positive_gamma():
    for norm in NORMS:
        with pytest.raises(ValueError, match="^gamma must be strictly positive when A is nonzero$"):
            norm(np.eye(2), [Fraction(0), Fraction(1)])


PATH3 = [[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("sparse", [False, True])
def test_norm_rejects_a_non_finite_matrix_entry(entry, sparse):
    a = np.array(PATH3)
    a[0, 1] = a[1, 0] = entry
    for norm in NORMS:
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            norm(sp.csr_matrix(a) if sparse else a, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_norm_rejects_a_non_finite_gamma(bad):
    # an infinite entry would silently drop its vertex: the norm would read 1.0
    for norm in NORMS:
        with pytest.raises(ValueError, match="^gamma must be finite$"):
            norm(np.array(PATH3), [1.0, 1.0, bad])


def test_norm_matches_dense_top_eigenvalue():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((8, 8))
    m = b @ b.T
    lam_max = float(np.linalg.eigvalsh(m)[-1])
    lam, resid = spectral_norm_reweighted(sp.csr_matrix(m), [Fraction(1)] * 8)
    assert abs(lam_max - lam) <= 1e-7 * max(1.0, lam_max)


def test_exact_trace_power_examples():
    a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=object)
    gamma = [Fraction(4)] * 3
    assert exact_trace_power(a, gamma, 0) == 3
    assert exact_trace_power(a, gamma, 2) == Fraction(6, 16)
    # bipartite graph, odd power, constant gamma -> zero
    c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=object)
    assert exact_trace_power(c4, [Fraction(2)] * 4, 3) == 0
    assert exact_trace_power(c4, [Fraction(2)] * 4, 5) == 0


def test_exact_trace_power_mixed_gamma_matches_float():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 3, size=(6, 6))
    a = a + a.T
    gamma = [Fraction(3), Fraction(7, 2), Fraction(4), Fraction(9, 2), Fraction(5), Fraction(6)]
    exact = exact_trace_power(a.astype(object), gamma, 4)
    gf = np.array([float(g) for g in gamma])
    m = np.diag(1 / gf) @ a
    approx = np.trace(np.linalg.matrix_power(m, 4))
    assert abs(float(exact) - approx) < 1e-9


@st.composite
def trace_cases(draw):
    """(A, gamma, ell): an n x n matrix, n <= 8, as int64, object or float64
    (entries truncated by int()), positive rational gamma and ell in 0..8."""
    nv = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["int", "object", "float"]))
    if kind == "float":
        entries = st.floats(-20, 20, allow_nan=False)
    else:
        entries = st.integers(-10**15 if kind == "object" else -20, 20)
    cells = draw(st.lists(entries, min_size=nv * nv, max_size=nv * nv))
    dtype = {"int": np.int64, "object": object, "float": np.float64}[kind]
    a = np.array(cells, dtype=dtype).reshape(nv, nv)
    gamma = draw(st.lists(st.fractions(min_value=Fraction(1, 12), max_value=50,
                                       max_denominator=12), min_size=nv, max_size=nv))
    return a, gamma, draw(st.integers(0, 8))


@given(trace_cases())
@settings(max_examples=200, deadline=None)
def test_exact_trace_power_matches_fraction_products(case):
    a, gamma, ell = case
    nv = len(gamma)
    step = [[Fraction(int(a[i, j])) / gamma[i] for j in range(nv)] for i in range(nv)]
    power = [[Fraction(int(i == j)) for j in range(nv)] for i in range(nv)]
    for _ in range(ell):
        power = [[sum((power[i][h] * step[h][j] for h in range(nv)), Fraction(0))
                  for j in range(nv)] for i in range(nv)]
    assert exact_trace_power(a, gamma, ell) == sum((power[i][i] for i in range(nv)), Fraction(0))


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_exact_trace_power_rejects_a_non_square_matrix(ell):
    with pytest.raises(ValueError, match="^matrix must be square$"):
        exact_trace_power(np.ones((2, 3)), [Fraction(1)] * 2, ell)


def test_exact_trace_power_capacity():
    with pytest.raises(CapacityError):
        exact_trace_power(np.zeros((3, 3), dtype=object), [Fraction(1)] * 3, 13)


def test_trace_bound_rhs_forms():
    # l = 2, d = l, r = 1: 4n
    assert trace_bound_rhs(7, 1, 2, Fraction(2)) == 28
    # the C(n, r) Kikuchi vertices, not n^r
    assert trace_bound_rhs(6, 3, 2, Fraction(1)) == Fraction(4 * 20 * 2)


def test_theorem_instantiation_factor():
    # l = 2 ceil(r log2 n) makes n^(r/l) <= sqrt(2)
    for n, r in ((10, 2), (50, 3), (7, 1)):
        ell = 2 * math.ceil(r * math.log2(n))
        assert n ** (r / ell) <= math.sqrt(2) + 1e-12


def test_trace_lemma_on_cover_free_instance():
    # girth-certified graph: exact trace power obeys the closed-walk bound
    h = Hypergraph(n=8, k=2, edges=tuple((i, (i + 1) % 8) for i in range(8)))
    assert graph_girth(h) == 8
    g = build_even_kikuchi(h, 1)
    a = np.zeros((8, 8), dtype=object)
    for s, t, _c in g.edges:
        a[s, t] += 1
        a[t, s] += 1
    gamma = g.gamma_diagonal()
    for ell in (2, 4, 6):
        tr = exact_trace_power(a, gamma, ell)
        rhs = trace_bound_rhs(8, 1, ell, g.average_degree)
        assert tr <= rhs


def test_norm_rejects_nonsymmetric():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    for norm in NORMS:
        with pytest.raises(ValueError, match="^matrix must be symmetric$"):
            norm(a, [Fraction(1), Fraction(1)])
        with pytest.raises(ValueError, match="^gamma length must match matrix dimension$"):
            norm(a + a.T, [Fraction(1)] * 3)


@st.composite
def signed_multigraphs(draw):
    """A signed multigraph (loops allowed) as a CSR matrix with its Gamma: one
    to three disconnected blocks, trailing isolated vertices, and parallel
    edges that may cancel, leaving explicit zeros in the matrix."""
    blocks = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    n = sum(blocks) + draw(st.integers(0, 2))
    rows, cols, vals = [], [], []
    start = 0
    for size in blocks:
        ends = st.integers(start, start + size - 1)
        for u, v, w, cancel in draw(st.lists(
                st.tuples(ends, ends, st.sampled_from([-1.0, 1.0]), st.booleans()), max_size=8)):
            for x in ((w, -w) if cancel else (w,)):
                rows += [u] if u == v else [u, v]
                cols += [v] if u == v else [v, u]
                vals += [x] if u == v else [x, x]
        start += size
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    gamma = [Fraction(num, 4) for num in draw(st.lists(st.integers(1, 40), min_size=n,
                                                          max_size=n))]
    return a, gamma


def _dense_norm(a, gamma):
    isq = 1 / np.sqrt(np.array([float(g) for g in gamma]))
    return float(np.max(np.abs(np.linalg.eigvalsh(isq[:, None] * a.toarray() * isq))))


@given(signed_multigraphs(), st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_norm_matches_dense_eigvalsh(graph, seed):
    a, gamma = graph
    before = (a.data.copy(), a.indices.copy(), a.indptr.copy())
    lam, resid = spectral_norm_reweighted(a, gamma, seed=seed)
    expect = _dense_norm(a, gamma)
    assert lam + resid >= expect
    assert abs(lam - expect) <= 1e-8 * max(1.0, expect)
    assert spectral_norm_reweighted(a, gamma, seed=seed) == (lam, resid)
    for old, new in zip(before, (a.data, a.indices, a.indptr)):
        assert np.array_equal(old, new)


@pytest.mark.parametrize("entries, expect", [
    ([[3.0]], 0.75),
    ([[0.0]], 0.0),
    ([[0.0, -2.0], [-2.0, 0.0]], 0.5),
    ([[1.0, 1.0], [1.0, 1.0]], 0.5),
])
def test_norm_one_and_two_dimensional(entries, expect):
    a = sp.csr_matrix(np.array(entries))
    lam, resid = spectral_norm_reweighted(a, [Fraction(4)] * len(entries))
    assert abs(lam - expect) <= 1e-12 and lam + resid >= expect
    assert resid == 0.0 if expect == 0.0 else resid < 1e-12


def test_norm_cancelled_parallel_edges_is_zero():
    a = sp.coo_matrix(([1.0, -1.0, 1.0, -1.0], ([0, 0, 1, 1], [1, 1, 0, 0])), shape=(2, 2))
    assert spectral_norm_reweighted(a.tocsr(), [Fraction(2)] * 2) == (0.0, 0.0)


@st.composite
def reweighted_matrices(draw):
    """A symmetric signed matrix of order 1-80 with its Gamma, in one of four
    shapes: random sparse; the same with isolated vertices; block-diagonal
    with a small block (1-3 vertices, heavier entries, smaller Gamma) on which
    the top eigenvalue may lie, so that a random start holds little of it; or
    all zero."""
    n = draw(st.integers(1, 80))
    shape = draw(st.sampled_from(["sparse", "isolated", "small-block", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(np.where(rng.random((n, n)) < rng.uniform(0.02, 0.5),
                             rng.choice([-2.0, -1.0, 1.0, 3.0], (n, n)), 0.0))
    a = upper + np.triu(upper, 1).T
    gamma = rng.integers(4, 40, n) / 4
    if shape == "isolated":
        alone = rng.random(n) < 0.3
        a[alone, :] = a[:, alone] = 0.0
    elif shape == "small-block":
        size = int(rng.integers(1, min(3, n) + 1))
        a[:size, size:] = a[size:, :size] = 0.0
        a[:size, :size] = rng.choice([-4.0, 4.0]) * (1 + rng.random((size, size)))
        a[:size, :size] += a[:size, :size].T
        gamma[:size] = 1 / 4
    elif shape == "zero":
        a[:] = 0.0
    return sp.csr_matrix(a), gamma


@given(reweighted_matrices(), st.sampled_from([0, VERIFY_SEED_OFFSET]))
@settings(max_examples=300, deadline=None)
def test_ritz_norm_matches_dense_eigvalsh(case, seed):
    a, gamma = case
    before = (a.data.copy(), a.indices.copy(), a.indptr.copy())
    lam = ritz_norm_reweighted(a, gamma, tol=VERIFY_TOL, seed=seed)
    expect = _dense_norm(a, gamma)
    # a Ritz value never leaves the spectrum by more than rounding, and the
    # pass stops only once the top has converged
    assert -1e-9 * expect <= lam - expect <= 1e-12 * expect
    assert ritz_norm_reweighted(a, gamma, tol=VERIFY_TOL, seed=seed) == lam
    for old, new in zip(before, (a.data, a.indices, a.indptr)):
        assert np.array_equal(old, new)


@pytest.mark.parametrize("entries, expect", [
    ([[3.0]], 0.75),
    ([[0.0]], 0.0),
    ([[0.0, -2.0], [-2.0, 0.0]], 0.5),
    ([[1.0, 1.0], [1.0, 1.0]], 0.5),
])
def test_ritz_norm_one_and_two_dimensional(entries, expect):
    lam = ritz_norm_reweighted(sp.csr_matrix(np.array(entries)), [Fraction(4)] * len(entries))
    assert abs(lam - expect) <= 1e-15


def test_ritz_norm_past_an_invariant_krylov_space():
    # the only eigenvalues are 2 and 0, so after two steps beta is rounding
    # noise (about 1e-16, not 0): the pass runs on from that noise to step N
    # and must still read 2, whichever seed starts it
    a = sp.csr_matrix(np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
    for seed in (0, 5, VERIFY_SEED_OFFSET):
        assert abs(ritz_norm_reweighted(a, [Fraction(1, 2)] * 6, seed=seed) - 2.0) <= 1e-15


def test_norm_repeatable_when_arpack_restarts():
    # the Krylov space of the 2-and-0 spectrum turns invariant after two steps,
    # where ARPACK once drew a new start vector; the prover's second Lanczos
    # run must rebuild the same rounding noise from the seed, so reruns repeat
    a = sp.csr_matrix(np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
    for seed in (0, 5, VERIFY_SEED_OFFSET):
        results = {spectral_norm_reweighted(a, [Fraction(1, 2)] * 6, seed=seed) for _ in range(10)}
        assert len(results) == 1
        lam, resid = results.pop()
        assert lam <= 2.0 + 1e-15 <= lam + resid + 1e-15 and resid < 1e-12


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_ritz_norm_refuses_an_overflowing_pass():
    # the scaled copy holds inf, so the recurrence reaches no finite beta;
    # both norms run it first
    a = np.array([[0.0, 1e308], [1e308, 0.0]])
    for norm in NORMS:
        with pytest.raises(NonConvergenceError, match="^the Lanczos recurrence overflowed$"):
            norm(a, [1e-10, 1e-10])


@given(reweighted_matrices(), st.sampled_from([0, 5]))
@settings(max_examples=300, deadline=None)
def test_norm_brackets_the_dense_norm(case, seed):
    # the Rayleigh quotient of a unit vector never exceeds the norm by more
    # than rounding, and the rebuilt Ritz vector's residual reaches up to it
    a, gamma = case
    lam, resid = spectral_norm_reweighted(a, gamma, seed=seed)
    expect = _dense_norm(a, gamma)
    assert lam - expect <= 1e-12 * expect
    assert expect <= lam + resid
    assert spectral_norm_reweighted(a, gamma, seed=seed) == (lam, resid)


def test_norm_sound_after_the_basis_loses_orthogonality():
    # -0.95 lies alone and converges within a few steps, so ghost copies of it
    # spoil the basis long before the top, 1.0 in a cluster 1e-3 apart, passes
    # the stop test: the Ritz vector is rebuilt from a far from orthonormal
    # basis, and only the residual recomputed from A keeps the bracket
    rng = np.random.default_rng(0)
    spectrum = np.concatenate([[-0.95], 1.0 - 1e-3 * np.arange(20), rng.uniform(-0.5, 0.5, 179)])
    m = sp.csr_matrix(sp.diags(spectrum))
    for seed in (0, 5, VERIFY_SEED_OFFSET):
        _, _, alpha, beta = _lanczos(m, 1e-9, seed)
        basis = np.array(list(_lanczos_vectors(m, seed, alpha, beta)))
        assert len(alpha) < 200
        assert np.abs(basis @ basis.T - np.eye(len(alpha))).max() > 0.1
        lam, resid = spectral_norm_reweighted(m, np.ones(200), seed=seed)
        assert lam <= 1.0 + 1e-15 <= lam + resid + 1e-15 and resid < 1e-9


def test_norm_tol_zero_stops_before_n():
    # tol = 0 asks for machine precision, as ARPACK's does, not for all N steps
    inst = gen_random(14, 4, 50, seed=1, mode="xor-multi")
    g = signed_even_kikuchi(inst, 3).graph
    a, gamma = g.adjacency(signs=list(inst.signs)), g.gamma_floats()
    m = _reweighted(a, gamma)[2]
    assert m.shape[0] == 364 and len(_lanczos(m, 0.0, 0)[2]) < 364
    expect = _dense_norm(a, gamma)
    lam, resid = spectral_norm_reweighted(a, gamma, tol=0.0)
    assert abs(lam - expect) <= 1e-14 * expect and expect <= lam + resid < lam + 1e-11
    assert abs(ritz_norm_reweighted(a, gamma, tol=0.0) - expect) <= 1e-14 * expect
