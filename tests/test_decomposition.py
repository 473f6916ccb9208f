"""The greedy partitioners and their validator. decompose_for_cover and
decompose_for_refutation are held to golden/decompositions.json, written by the
recount loop that the one ascending pass per level replaced, and to a copy of
that loop kept below as the reference."""

import json
import pathlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcert import (Hypergraph, decompose_for_cover, decompose_for_refutation, gen_random,
                   validate_decomposition)
from kcert.decomposition import (Decomposition, Group, _extract_levels,
                                 ceil_rational_power_half, cover_group_size,
                                 refutation_threshold)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_ceil_rational_power_half():
    # (16/4)^(1/2) = 2, (16/4)^(-1/2) -> 1, (9/2)^(3/2) = 9.545... -> 10
    assert ceil_rational_power_half(16, 4, 1) == 2
    assert ceil_rational_power_half(16, 4, -1) == 1
    assert ceil_rational_power_half(9, 2, 3) == 10
    assert ceil_rational_power_half(8, 2, 2) == 4
    assert ceil_rational_power_half(5, 2, 1) == 2      # sqrt(2.5) = 1.58 -> 2
    with pytest.raises(ValueError, match="^requires num >= den > 0$"):
        ceil_rational_power_half(1, 2, 2)


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(-4, 12))
@settings(max_examples=300, deadline=None)
def test_ceil_rational_power_half_is_the_least_integer_at_least_the_power(a, b, e2):
    num, den = max(a, b), min(a, b)
    c = ceil_rational_power_half(num, den, e2)
    q = Fraction(num, den) ** e2             # c^2 * den^e2 >= num^e2, as a fraction
    assert c >= 1 and c * c >= q and (c - 1) ** 2 < q


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(2, 9), st.data())
@settings(max_examples=200, deadline=None)
def test_refutation_threshold_matches_a_fraction_ceiling(a, b, k, data):
    n, r = max(a, b), min(a, b)
    t = data.draw(st.integers(1, k - 1))
    eps = Fraction(data.draw(st.integers(1, 10**6)), data.draw(st.integers(2, 10**6)))
    head = max(1, ceil_rational_power_half(n, r, k - 2 * t))
    mult, rest = divmod(refutation_threshold(n, r, k, t, eps), head)
    x = Fraction(4 * k) / (eps * eps)
    assert rest == 0 and mult >= x > mult - 1


def test_cover_hand_trace():
    h = Hypergraph(n=16, k=3, edges=((0, 1, 2), (0, 1, 3)))
    d = decompose_for_cover(h, 4)
    assert cover_group_size(16, 4, 3, 2) == 2
    level2 = d.groups_at(2)
    assert len(level2) == 1
    assert level2[0].center == (0, 1)
    assert level2[0].clause_indices == (0, 1)
    assert d.groups_at(1) == () and d.groups_at(0) == ()


def test_cover_disjoint_clauses_all_leftover():
    h = Hypergraph(n=12, k=3, edges=((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)))
    d = decompose_for_cover(h, 3)
    assert d.m_t(0) == 4
    assert all(d.m_t(t) == 0 for t in range(1, 3))


def test_cover_empty_hypergraph():
    h = Hypergraph(n=5, k=3, edges=())
    d = decompose_for_cover(h, 2)
    assert all(d.m_t(t) == 0 for t in d.levels())
    assert validate_decomposition(h, d) == ()


@pytest.mark.parametrize("r", [0, 6])
def test_cover_refuses_r_outside_one_to_n(r):
    h = Hypergraph(n=5, k=3, edges=((0, 1, 2),))
    with pytest.raises(ValueError, match=f"^r must satisfy 1 <= r <= n, got r = {r}$"):
        decompose_for_cover(h, r)


def test_refutation_threshold_multiplier():
    # ceil(4k/eps^2) with k = 3, eps = 1/2 is 48
    assert refutation_threshold(16, 4, 3, 2, Fraction(1, 2)) == 48
    assert refutation_threshold(16, 4, 3, 1, Fraction(1, 2)) == 2 * 48


def test_refutation_leftover_single_part():
    # all clauses contain vertex 0 and m is far below every threshold
    h = Hypergraph(n=20, k=3, edges=((0, 1, 2), (0, 3, 4), (0, 5, 6)))
    d = decompose_for_refutation(h, 2, Fraction(1, 4), enforce_ranges=False)
    level1 = d.groups_at(1)
    assert len(level1) == 1
    assert level1[0].center == (0,)
    assert sorted(level1[0].clause_indices) == [0, 1, 2]


def test_refutation_parameter_ranges():
    h = Hypergraph(n=12, k=3, edges=((0, 1, 2),))
    with pytest.raises(ValueError):
        decompose_for_refutation(h, 6, Fraction(1, 4))     # r > n/8
    with pytest.raises(ValueError):
        decompose_for_refutation(h, 1, Fraction(3, 4), enforce_ranges=False)   # eps out of range
    big = Hypergraph(n=80, k=3, edges=((0, 1, 2),))
    d = decompose_for_refutation(big, 8, Fraction(1, 4))
    assert d.m_t(1) == 1


def test_refutation_determinism():
    h = gen_random(10, 3, 30, seed=5, mode="hyg-multi")
    d1 = decompose_for_refutation(h, 2, Fraction(1, 4), enforce_ranges=False)
    d2 = decompose_for_refutation(h, 2, Fraction(1, 4), enforce_ranges=False)
    assert d1 == d2


def test_refutation_group_sizes():
    rng = random.Random(0)
    for trial in range(10):
        k = rng.choice([3, 5])
        n = rng.randrange(k + 2, 14)
        m = rng.randrange(5, 60)
        h = gen_random(n, k, m, seed=trial, mode="hyg-multi")
        d = decompose_for_refutation(h, 2, Fraction(2, 5), enforce_ranges=False)
        for t in range(2, k):
            for g in d.groups_at(t):
                assert len(g.clause_indices) == d.thresholds[t]
        for g in d.groups_at(1):
            assert len(g.clause_indices) <= d.thresholds[1]
        assert validate_decomposition(h, d) == ()


def test_validate_passes_both_modes():
    rng = random.Random(1)
    for trial in range(10):
        k = rng.choice([3, 5])
        n = rng.randrange(k + 2, 14)
        m = rng.randrange(5, 60)
        h = gen_random(n, k, m, seed=100 + trial, mode="hyg-multi")
        dc = decompose_for_cover(h, max(1, n // 3))
        assert validate_decomposition(h, dc) == ()
        dr = decompose_for_refutation(h, 2, Fraction(1, 3), enforce_ranges=False)
        assert validate_decomposition(h, dr) == ()


def test_validate_detects_corruption():
    h = Hypergraph(n=16, k=3, edges=((0, 1, 2), (0, 1, 3), (4, 5, 6)))
    d = decompose_for_cover(h, 4)
    # move clause 2 into the level-2 group
    g2 = d.groups_at(2)[0]
    bad_groups = (Group(center=g2.center, clause_indices=g2.clause_indices + (2,)),)
    bad = type(d)(mode=d.mode, n=d.n, k=d.k, r=d.r, eps=d.eps,
                  pieces={**d.pieces, 2: bad_groups, 0: ()}, thresholds=d.thresholds)
    assert validate_decomposition(h, bad) == (
        "clause 2 does not contain center of level-2 group 0",
        "level-2 group 0 has size 3, rule requires 2")


def test_validate_detects_oversized_group():
    h = Hypergraph(n=16, k=3, edges=((0, 1, 2), (0, 1, 3), (0, 1, 4)))
    d = decompose_for_cover(h, 4)
    merged = (Group(center=(0, 1), clause_indices=(0, 1, 2)),)
    bad = type(d)(mode=d.mode, n=d.n, k=d.k, r=d.r, eps=d.eps,
                  pieces={2: merged, 1: (), 0: ()}, thresholds=d.thresholds)
    assert validate_decomposition(h, bad) == ("level-2 group 0 has size 3, rule requires 2",)


@pytest.mark.parametrize("mode, edges, pieces, thresholds, fault", [
    ("refute", ((0, 1, 2),), {1: (((0, 1), (0,)),), 2: ()}, {1: 2, 2: 2},
     "level-1 group 0 has center of size 2"),
    ("refute", ((0, 1, 2), (3, 4, 5)), {1: (((0,), (0, 1)),), 2: ()}, {1: 2, 2: 2},
     "clause 1 does not contain center of level-1 group 0"),
    ("cover", ((0, 1, 2), (0, 1, 3), (0, 4, 5)), {2: (((0, 1), (0, 1)),), 1: (((0,), (0, 2)),),
                                                  0: ()}, {2: 2, 1: 2},
     "clause indices do not partition the edge set"),
    ("cover", ((0, 1, 2), (0, 1, 3)), {2: (((0, 1), (0, 1)),), 1: (), 0: ()}, {2: 3, 1: 2},
     "level-2 group 0 has size 2, rule requires 3"),
    ("cover", ((0, 1, 2), (0, 1, 3)), {2: (), 1: (((0,), (0, 1)),), 0: ()}, {2: 2, 1: 2},
     "level-1 piece: set (0, 1) lies in 2 clauses, cap 1 at size 2"),
    ("cover", ((0, 1, 2),), {2: (), 1: (), 0: (((0, 1), (0,)),)}, {2: 2, 1: 2},
     "level-0 group 0 has center of size 2"),
    ("refute", ((0, 1, 2), (0, 1, 3)), {2: (((0, 1), (0, 1)),), 1: ()}, {2: 3, 1: 2},
     "level-2 group 0 has size 2, rule requires exactly 3"),
    ("refute", ((0, 1, 2), (0, 3, 4), (0, 5, 6)), {2: (), 1: (((0,), (0, 1, 2)),)}, {2: 2, 1: 2},
     "level-1 group 0 has size 3 > tau_1 = 2"),
])
def test_validate_names_the_one_fault(mode, edges, pieces, thresholds, fault):
    h = Hypergraph(n=16, k=3, edges=edges)
    d = Decomposition(mode=mode, n=16, k=3, r=4, eps=Fraction(1, 4) if mode == "refute" else None,
                      pieces={t: tuple(Group(center=c, clause_indices=ids) for c, ids in groups)
                              for t, groups in pieces.items()},
                      thresholds=thresholds)
    assert validate_decomposition(h, d) == (fault,)


def test_validate_caps_a_cover_piece_one_below_the_group_size():
    # k=5, n/r = 2: level-2 groups take 2 = ceil(sqrt 2) clauses, so the greedy
    # leaves no pair in 2 clauses of a lower piece; (0, 1) lies in two here
    h = Hypergraph(n=12, k=5, edges=((0, 1, 2, 3, 4), (0, 1, 5, 6, 7), (0, 8, 9, 10, 11)))
    thresholds = decompose_for_cover(h, 6).thresholds
    assert (thresholds[2], thresholds[1]) == (2, 3)
    pieces = {4: (), 3: (), 2: (), 1: (Group(center=(0,), clause_indices=(0, 1, 2)),), 0: ()}
    d = Decomposition(mode="cover", n=12, k=5, r=6, eps=None, pieces=pieces, thresholds=thresholds)
    assert validate_decomposition(h, d) == (
        "level-1 piece: set (0, 1) lies in 2 clauses, cap 1 at size 2",)


def test_cover_level0_multiplicity_below_level1_threshold():
    # the "i != 0" argument at the level of the greedy rule
    rng = random.Random(7)
    for trial in range(6):
        n = rng.randrange(8, 14)
        h = gen_random(n, 3, rng.randrange(10, 50), seed=trial + 40, mode="hyg-multi")
        r = rng.randrange(1, n // 2)
        d = decompose_for_cover(h, r)
        thr1 = d.thresholds[1]
        counts = [0] * h.n
        for g in d.groups_at(0):
            for idx in g.clause_indices:
                for v in h.edges[idx]:
                    counts[v] += 1
        assert max(counts, default=0) < thr1


# --- reference: the recount loop, as it was before the one ascending pass ------

def _ref_greedy_level(h, current, t, need):
    groups = []
    while True:
        counts = {}
        for idx in current:
            for sub in combinations(h.edges[idx], t):
                counts[sub] = counts.get(sub, 0) + 1
        candidates = [u for u, c in counts.items() if c >= need]
        if not candidates:
            return groups
        center = min(candidates)
        cset = set(center)
        chosen = []
        for idx in current:
            if cset.issubset(h.edges[idx]):
                chosen.append(idx)
                if len(chosen) == need:
                    break
        groups.append(Group(center=center, clause_indices=tuple(chosen)))
        chosen_set = set(chosen)
        current[:] = [i for i in current if i not in chosen_set]


def ref_decompose_for_cover(h, r):
    current = list(range(h.m))
    pieces, sizes = {}, {}
    for t in range(h.k - 1, 0, -1):
        need = cover_group_size(h.n, r, h.k, t)
        sizes[t] = need
        pieces[t] = tuple(_ref_greedy_level(h, current, t, need))
    pieces[0] = (Group(center=(), clause_indices=tuple(current)),) if current else ()
    return Decomposition(mode="cover", n=h.n, k=h.k, r=r, eps=None,
                         pieces=pieces, thresholds=sizes)


def ref_decompose_for_refutation(h, r, eps):
    taus = {t: refutation_threshold(h.n, r, h.k, t, eps) for t in range(1, h.k)}
    current = list(range(h.m))
    pieces = {}
    for t in range(h.k - 1, 0, -1):
        pieces[t] = tuple(_ref_greedy_level(h, current, t, taus[t]))
    leftovers = {}
    for idx in current:
        leftovers.setdefault(h.edges[idx][0], []).append(idx)
    extra = tuple(Group(center=(v,), clause_indices=tuple(ids))
                  for v, ids in sorted(leftovers.items()))
    pieces[1] = pieces[1] + extra
    return Decomposition(mode="refute", n=h.n, k=h.k, r=r, eps=eps,
                         pieces=pieces, thresholds=taus)


def test_golden_decompositions():
    """Both modes at k = 3, 4 and 5, on gen_random instances (hyg and
    hyg-multi) and on two planted ones, where one center fills several groups
    and leaves a remainder that a later level or the leftovers take."""
    rows = json.loads((GOLDEN / "decompositions.json").read_text())
    assert {(row["mode"], row["decomposition"]["k"]) for row in rows} == {
        (mode, k) for mode in ("cover", "refute") for k in (3, 4, 5)}
    for row in rows:
        if "gen" in row:
            h = gen_random(**row["gen"])
        else:
            h = Hypergraph(n=row["n"], k=row["k"], edges=tuple(map(tuple, row["edges"])))
        if row["mode"] == "cover":
            d = decompose_for_cover(h, row["r"])
        else:
            d = decompose_for_refutation(h, row["r"], Fraction(row["eps"]), enforce_ranges=False)
        assert d.to_json_dict() == row["decomposition"], row


@st.composite
def _clause_lists(draw):
    """Clauses over few vertices, so centers repeat and duplicates are common."""
    k = draw(st.integers(3, 5))
    n = draw(st.integers(k, k + 4))
    clause = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    return Hypergraph(n=n, k=k, edges=tuple(map(tuple, draw(st.lists(clause, max_size=60)))))


@given(h=_clause_lists(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_decompositions_match_the_recount_loop(h, data):
    r = data.draw(st.integers(1, h.n))
    assert decompose_for_cover(h, r) == ref_decompose_for_cover(h, r)
    # eps near 1/2 keeps tau_t small enough for groups to form
    eps = Fraction(data.draw(st.integers(40, 49)), 100)
    got = decompose_for_refutation(h, r, eps, enforce_ranges=False)
    assert got == ref_decompose_for_refutation(h, r, eps)


@given(h=_clause_lists(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_level_loop_matches_the_recount_loop_at_any_group_size(h, data):
    sizes = {t: data.draw(st.integers(1, 6)) for t in range(1, h.k)}
    current = list(range(h.m))
    want = {t: tuple(_ref_greedy_level(h, current, t, sizes[t])) for t in range(h.k - 1, 0, -1)}
    assert _extract_levels(h, sizes) == (want, current)
