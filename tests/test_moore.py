import math
import random
from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from kcert import Hypergraph, gen_random, graph_girth, min_even_cover_oracle, moore_bound_audit
from kcert.moore import _ceil_log, _floor_log

PETERSEN = Hypergraph(n=10, k=2, edges=tuple(
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
))


def _cycle(g):
    return Hypergraph(n=g, k=2, edges=tuple((i, (i + 1) % g) for i in range(g)))


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
def _graphs(draw):
    """Graphs, multigraphs and forests on 1 to 30 vertices with 0 to 44 edges."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["hyg", "hyg-multi", "forest"]))
    seed = draw(st.integers(0, 2**30 - 1))
    if kind == "forest" or n == 1:
        # a random recursive forest: vertex i joins an earlier vertex or none
        rng = random.Random(seed)
        edges = tuple((rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.8)
        return Hypergraph(n=n, k=2, edges=edges)
    m = draw(st.integers(0, 44 if kind == "hyg-multi" else min(44, comb(n, 2))))
    return gen_random(n, 2, m, seed, mode=kind)


@given(_graphs())
@settings(max_examples=200, deadline=None)
def test_girth_is_the_size_of_a_least_even_cover(h):
    least = min_even_cover_oracle(h, h.m)
    assert graph_girth(h) == (math.inf if least is None else least[0])


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
