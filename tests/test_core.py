import gc
import math
import random
import weakref
from fractions import Fraction
from itertools import combinations, count

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcert import (CapacityError, Hypergraph, XorInstance, brute_force_max_xor,
                   eval_xor, gen_random, graph_girth, min_even_cover_oracle, verify_even_cover)
from kcert import core
from kcert.core import EvenCover, _span_coordinates, odd_use_cover
from assignments import random_assignment

TRIANGLE = Hypergraph(n=3, k=2, edges=((0, 1), (1, 2), (0, 2)))

PETERSEN = Hypergraph(n=10, k=2, edges=tuple(
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
))


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(n=3, k=2, edges=((0, 0),))
    with pytest.raises(ValueError):
        Hypergraph(n=3, k=2, edges=((0, 3),))
    h = Hypergraph(n=4, k=3, edges=((2, 0, 1),))
    assert h.edges == ((0, 1, 2),)


@pytest.mark.parametrize("n, k, match", [(0, 2, "vertex count must be positive"),
                                          (3, 1, "uniformity k must be >= 2")])
def test_hypergraph_refuses_bad_sizes(n, k, match):
    with pytest.raises(ValueError, match=match):
        Hypergraph(n=n, k=k, edges=())


@pytest.mark.parametrize("signs, match", [((1,), "signs length must equal"),
                                          ((1, 1, 1), "signs length must equal"),
                                          ((1, 0), "signs must be \\+1 or -1")])
def test_xor_instance_refuses_bad_signs(signs, match):
    h = Hypergraph(n=4, k=2, edges=((0, 1), (2, 3)))
    with pytest.raises(ValueError, match=match):
        XorInstance(hypergraph=h, signs=signs)


@pytest.mark.parametrize("n, k, m, match", [(3, 4, 0, "k = 4 exceeds n = 3"),
                                             (5, 2, -1, "parameters must be positive")])
def test_gen_random_refuses_bad_sizes(n, k, m, match):
    with pytest.raises(ValueError, match=match):
        gen_random(n, k, m, seed=0, mode="hyg")


def test_numpy_integer_vertices_are_stored_as_python_ints():
    # numpy ints used to be kept as given: 1 << 70 wrapped around in int64, so a
    # single edge verified as an even cover, the oracle died on bit_length, and
    # an equal hypergraph of Python ints got the same cached masks
    h = Hypergraph(n=80, k=2, edges=tuple(map(tuple, np.array([[0, 70], [70, 71], [0, 71]]))))
    assert all(type(v) is int for e in h.edges for v in e)
    assert not verify_even_cover(h, {1})
    assert min_even_cover_oracle(h, 3) == (3, EvenCover(frozenset({0, 1, 2})))
    same = Hypergraph(n=80, k=2, edges=((0, 70), (70, 71), (0, 71)))
    assert same == h and not verify_even_cover(same, {1})


@pytest.mark.parametrize("vertex", [1.5, 1.0, True, np.float64(1.0)],
                         ids=["float", "integral-float", "bool", "np-float64"])
def test_non_integer_vertices_are_refused(vertex):
    # an integral float used to be stored as given, so a duplicated edge passed
    # construction and verify_even_cover then raised TypeError on 1 << 1.0
    with pytest.raises(ValueError, match=r"hyperedge \(0, .+\) has a vertex that is not"):
        Hypergraph(n=5, k=2, edges=((0, vertex), (0, vertex)))
    with pytest.raises(ValueError, match="not an integer"):
        Hypergraph(n=5, k=2, edges=((0, 2), (vertex, 3)))


def test_verify_even_cover_triangle():
    assert verify_even_cover(TRIANGLE, {0, 1, 2})


def test_verify_even_cover_single_clause_false():
    h = Hypergraph(n=3, k=3, edges=((0, 1, 2),))
    assert not verify_even_cover(h, {0})


def test_verify_even_cover_three_quadruples():
    h = Hypergraph(n=6, k=4, edges=((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)))
    assert verify_even_cover(h, {0, 1, 2})


def test_verify_even_cover_empty_and_errors():
    assert verify_even_cover(TRIANGLE, set())
    with pytest.raises(IndexError):
        verify_even_cover(TRIANGLE, {5})


def test_verify_even_cover_keeps_no_reference_to_the_hypergraph():
    # a cache of edge masks keyed by the hypergraph would keep it, and its
    # masks, alive for the rest of the process
    h = gen_random(200, 4, 300, seed=21, mode="hyg")
    ref = weakref.ref(h)
    assert not verify_even_cover(h, [0, 1])
    del h
    gc.collect()
    assert ref() is None


def test_odd_use_cover():
    assert odd_use_cover([3, 1, 3, 2, 1, 1]) == EvenCover(frozenset({1, 2}))
    assert odd_use_cover(iter([4, 4])) == EvenCover(frozenset())


def test_oracle_triangle():
    size, cover = min_even_cover_oracle(TRIANGLE, 5)
    assert size == 3 and cover.edge_indices == frozenset({0, 1, 2})


def test_oracle_duplicate_pair():
    h = Hypergraph(n=4, k=3, edges=((0, 1, 2), (0, 1, 3), (0, 1, 2)))
    size, cover = min_even_cover_oracle(h, 5)
    assert size == 2 and cover.edge_indices == frozenset({0, 2})


def test_oracle_none_when_capped():
    assert min_even_cover_oracle(TRIANGLE, 2) is None


def test_oracle_matches_direct_enumeration():
    h = gen_random(8, 3, 14, seed=1, mode="hyg-multi")
    res = min_even_cover_oracle(h, 14)
    # independent oracle: scan all 2^m subsets directly
    best = None
    masks = h.edge_masks()
    for sub in range(1, 1 << h.m):
        acc = 0
        i = sub
        while i:
            acc ^= masks[(i & -i).bit_length() - 1]
            i &= i - 1
        if acc == 0:
            size = sub.bit_count()
            if best is None or size < best:
                best = size
    if best is None:
        assert res is None
    else:
        assert res is not None and res[0] == best
        assert verify_even_cover(h, res[1])


def test_oracle_minimality_rescan():
    h = gen_random(9, 3, 13, seed=4, mode="hyg")
    res = min_even_cover_oracle(h, 13)
    if res is None:
        pytest.skip("instance has no even cover")
    size, cover = res
    for smaller in range(1, size):
        for sub in combinations(range(h.m), smaller):
            assert not verify_even_cover(h, sub)


def _least_cover_by_scan(h):
    """The nonempty cover least by (size, low-half bitmask, high-half bitmask),
    low half = the first m // 2 edges, by a scan of all 2^m subsets."""
    masks, a = h.edge_masks(), h.m // 2
    xors = [0] * (1 << h.m)
    best = None
    for sub in range(1, 1 << h.m):
        xors[sub] = xors[sub & (sub - 1)] ^ masks[(sub & -sub).bit_length() - 1]
        if xors[sub] == 0:
            key = (sub.bit_count(), sub & ((1 << a) - 1), sub >> a)
            if best is None or key < best:
                best = key
    return best


@given(st.integers(0, 2**30 - 1), st.integers(2, 5), st.integers(0, 14),
       st.integers(0, 7), st.integers(0, 119), st.data())
@settings(max_examples=80, deadline=None)
def test_oracle_property_least_cover(seed, k, m, extra, wide, data):
    # a multi-hypergraph on few vertices has covers; scattering those vertices
    # over range(n), n up to 119, makes masks wider than 64 bits
    few = k + extra
    h = gen_random(few, k, m, seed=seed, mode="hyg-multi")
    n = max(few, wide)
    rename = random.Random(seed).sample(range(n), few)
    h = Hypergraph(n=n, k=k, edges=tuple(tuple(rename[v] for v in e) for e in h.edges))
    cap = data.draw(st.integers(0, m + 1))
    best = _least_cover_by_scan(h)
    res = min_even_cover_oracle(h, cap)
    if best is None or best[0] > cap:
        assert res is None
        return
    size, low, high = best
    chosen = low | high << (m // 2)
    assert res == (size, EvenCover(frozenset(i for i in range(m) if chosen >> i & 1)))


def _subset_xors(coords):
    """The xor and the size of every subset of coords; bit i of the index selects coords[i]."""
    xs = np.zeros(1, dtype=np.int64)
    sz = np.zeros(1, dtype=np.int64)
    for c in coords:
        xs = np.concatenate((xs, xs ^ c))
        sz = np.concatenate((sz, sz + 1))
    return xs, sz


def _sort_based_oracle(h, size_cap):
    """The oracle as it was before the sort-free pass: every left subset's
    (xor, size, bitmask) key sorted, and each xor's best left subset read off
    the head of its run."""
    m = h.m
    if m > core.ORACLE_EDGE_LIMIT:
        raise CapacityError(
            f"even-cover oracle supports at most {core.ORACLE_EDGE_LIMIT} hyperedges, got {m}"
        )
    if m == 0 or size_cap < 1:
        return None
    coords = _span_coordinates(h.edge_masks())
    a = m // 2
    b = m - a
    left_span = 1 << max(coords[:a], default=0).bit_length()

    # every left subset as one key ordered by (xor, size < 2^6, bitmask); every
    # xor below left_span occurs, so run j of the sorted keys holds xor j and
    # opens with that xor's best (size, bitmask)
    xs, sz = _subset_xors(coords[:a])
    keys = np.sort((xs << (a + 6)) | (sz << a) | np.arange(1 << a))
    del xs, sz
    opens = np.ones(len(keys), dtype=bool)
    opens[1:] = keys[1:] >> (a + 6) != keys[:-1] >> (a + 6)
    best_left = keys[opens] & ((1 << (a + 6)) - 1)        # (size << a) | bitmask per xor

    # a candidate (size, left bitmask, right bitmask) packs into one int64
    # whose numeric order is the lexicographic one
    cands = []
    if len(keys) > 1 and keys[1] >> (a + 6) == 0:
        # the zero run opens with the empty subset; its second row is a left-only cover
        cands.append(keys[1:2] << b)
    rx, rsz = _subset_xors(coords[a:])
    rsub = np.flatnonzero(rx < left_span)[1:]            # right subsets a left one can cancel
    left = best_left[rx[rsub]]
    cands.append((((left >> a) + rsz[rsub]) << m) | ((left & ((1 << a) - 1)) << b) | rsub)

    cands = np.concatenate(cands)
    if not len(cands):
        return None
    best = int(cands.min())
    size = best >> m
    if size > size_cap:
        return None
    chosen = (best >> b & ((1 << a) - 1)) | (best & ((1 << b) - 1)) << a
    cover = EvenCover(frozenset(i for i in range(m) if chosen >> i & 1))
    assert verify_even_cover(h, cover)
    return size, cover


@pytest.mark.parametrize("block", [None, 1, 3])
@given(st.integers(0, 2**30 - 1), st.integers(2, 5), st.integers(0, 26), st.integers(0, 6),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_oracle_matches_sort_based_oracle(block, seed, k, m, extra, split):
    # few vertices leave the halves rank-deficient, so the passes run over many
    # dependent subsets, and blocks of 1 and 3 subsets put block boundaries
    # inside them; split draws the right half on 4 more vertices of its own,
    # where covers are rarer, so about 40% of least covers lie wholly in the
    # left half
    few = k + extra
    h = gen_random(few, k, m, seed=seed, mode="hyg-multi")
    if split:
        right = gen_random(few + 4, k, m - m // 2, seed=seed, mode="hyg-multi")
        h = Hypergraph(n=2 * few + 4, k=k, edges=h.edges[:m // 2] + tuple(
            tuple(v + few for v in e) for e in right.edges))
    # the pass does not depend on the cap, and blocks of 1 and 3 subsets cost a
    # Python iteration each, so there only the caps at and below the least
    # size are compared
    least = _sort_based_oracle(h, m)
    caps = range(m + 2) if block is None else [m] + ([least[0] - 1] if least else [])
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(core, "ORACLE_BLOCK", block)
        for cap in caps:
            assert min_even_cover_oracle(h, cap) == _sort_based_oracle(h, cap)


@given(st.integers(0, 2**30 - 1), st.integers(2, 5), st.integers(27, 30), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_oracle_matches_sort_based_oracle_over_right_blocks(seed, k, m, extra):
    # distinct k-subsets of as few vertices as hold m of them; the edges that
    # take a fresh basis bit move to the front of the left half, so every right
    # edge is dependent, and past 13 of them the right pass at the default
    # block runs in several blocks
    few = next(n for n in count(k) if math.comb(n, k) >= m) + extra
    h = gen_random(few, k, m, seed=seed, mode="hyg")
    coords = _span_coordinates(h.edge_masks())
    # distinct edges have distinct coordinates: a basis edge's is one bit
    order = sorted(range(m), key=lambda i: coords[i].bit_count() != 1)
    h = Hypergraph(n=few, k=k, edges=tuple(h.edges[i] for i in order))
    coords = _span_coordinates(h.edge_masks())
    rank = max(coords).bit_length()
    assert m - rank > m // 2                        # K > m // 2: the split is m // 2
    # a right edge is a row unless it is one of the rank - rho fresh basis edges
    rows = m - m // 2 - (rank - max(coords[:m // 2]).bit_length())
    assert rows > core.ORACLE_BLOCK.bit_length() - 1
    res = min_even_cover_oracle(h, m)
    assert res == _sort_based_oracle(h, m)
    assert min_even_cover_oracle(h, res[0] - 1) == _sort_based_oracle(h, res[0] - 1) is None


@given(st.integers(0, 2**30 - 1), st.integers(2, 5), st.integers(0, 18), st.integers(0, 66),
       st.integers(0, 119))
@example(seed=5, k=4, m=18, extra=66, wide=0)   # 70 vertices, masks up to bit 69, K = 0
@settings(max_examples=60, deadline=None)
def test_codeword_scan_matches_meet_in_the_middle(seed, k, m, extra, wide):
    # split 0 scans the codewords, split m // 2 meets the halves in the middle;
    # few vertices give K up to m - 1, many give K = 0; scattering the
    # vertices over range(n), n up to 119, makes masks wider than 64 bits
    few = k + extra
    h = gen_random(few, k, m, seed=seed, mode="hyg-multi")
    n = max(few, wide)
    rename = random.Random(seed).sample(range(n), few)
    h = Hypergraph(n=n, k=k, edges=tuple(tuple(rename[v] for v in e) for e in h.edges))
    # the oracle's answer at every cap is read off this key
    coords = _span_coordinates(h.edge_masks())
    assert core._least_cover_key(coords, 0) == core._least_cover_key(coords, m // 2)


def test_codeword_scan_runs_in_blocks(monkeypatch):
    # K = 15 <= m // 2 = 17: split 0 takes the 2^15 codewords in 4 blocks of
    # 2^13 at the default block
    h = gen_random(20, 4, 34, seed=1, mode="hyg")
    coords = _span_coordinates(h.edge_masks())
    assert core._least_cover_key(coords, 0) == core._least_cover_key(coords, h.m // 2)
    blocks = []
    least_key = core._least_key

    def counted(columns, key, empty):
        return least_key(columns, lambda *values: blocks.append(values[0].size) or key(*values),
                         empty)

    monkeypatch.setattr(core, "_least_key", counted)
    res = min_even_cover_oracle(h, h.m)
    assert blocks == [core.ORACLE_BLOCK] * 4
    assert res == (5, EvenCover(frozenset({22, 23, 27, 28, 31})))


def test_oracle_capacity():
    h = Hypergraph(n=50, k=2, edges=tuple((i, i + 1) for i in range(45)))
    with pytest.raises(CapacityError):
        min_even_cover_oracle(h, 4)


def test_girth_examples():
    assert graph_girth(TRIANGLE) == 3
    path = Hypergraph(n=4, k=2, edges=((0, 1), (1, 2), (2, 3)))
    assert graph_girth(path) == math.inf
    assert graph_girth(PETERSEN) == 5
    # at r = 1 the 200-cycle and the 300-vertex path run the search's BFS past
    # length 4 over every root
    for g in [*range(5, 13), 200]:
        cycle = Hypergraph(n=g, k=2, edges=tuple((i, (i + 1) % g) for i in range(g)))
        assert graph_girth(cycle) == g
    path300 = Hypergraph(n=300, k=2, edges=tuple((i, i + 1) for i in range(299)))
    assert graph_girth(path300) == math.inf
    # Heawood graph: a 14-cycle plus alternating +5 chords (cubic, girth 6)
    heawood = Hypergraph(n=14, k=2, edges=tuple(
        [(i, (i + 1) % 14) for i in range(14)] + [(i, (i + 5) % 14) for i in range(0, 14, 2)]))
    assert graph_girth(heawood) == 6
    doubled = Hypergraph(n=3, k=2, edges=((0, 1), (0, 1)))
    assert graph_girth(doubled) == 2
    with pytest.raises(ValueError):
        graph_girth(Hypergraph(n=4, k=3, edges=((0, 1, 2),)))


def test_eval_xor_examples():
    inst = XorInstance(hypergraph=Hypergraph(n=2, k=2, edges=((0, 1),)), signs=(1,))
    assert eval_xor(inst, (1, 1)) == 1
    assert eval_xor(inst, (1, -1)) == -1
    contra = XorInstance(hypergraph=Hypergraph(n=2, k=2, edges=((0, 1), (0, 1))),
                         signs=(1, -1))
    for x in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        assert eval_xor(contra, x) == 0


@given(st.integers(0, 2**30 - 1), st.integers(2, 5), st.integers(3, 9))
@settings(max_examples=40, deadline=None)
def test_eval_xor_global_flip_parity(seed, k, n):
    if k > n:
        n = k + 1
    inst = gen_random(n, k, 7, seed, mode="xor-multi")
    rng = random.Random(seed)
    x = random_assignment(n, rng)
    neg = tuple(-v for v in x)
    if k % 2 == 0:
        assert eval_xor(inst, x) == eval_xor(inst, neg)
    else:
        assert eval_xor(inst, x) == -eval_xor(inst, neg)


def test_brute_force_examples():
    single = XorInstance(hypergraph=Hypergraph(n=2, k=2, edges=((0, 1),)), signs=(1,))
    assert brute_force_max_xor(single) == 1
    contra = XorInstance(hypergraph=Hypergraph(n=2, k=2, edges=((0, 1), (0, 1))),
                         signs=(1, -1))
    assert brute_force_max_xor(contra) == 0


def test_brute_force_matches_direct_scan():
    inst = gen_random(10, 3, 40, seed=7, mode="xor-multi")
    fast = brute_force_max_xor(inst)
    best = Fraction(-2)
    for bits in range(1 << 10):
        x = tuple(-1 if (bits >> i) & 1 else 1 for i in range(10))
        best = max(best, eval_xor(inst, x))
    assert fast == best


def test_brute_force_capacity():
    h = Hypergraph(n=25, k=2, edges=((0, 1),))
    with pytest.raises(CapacityError):
        brute_force_max_xor(XorInstance(hypergraph=h, signs=(1,)))


def test_brute_force_dominates_samples():
    rng = random.Random(3)
    for seed in range(8):
        k = rng.choice([3, 5])
        inst = gen_random(8, k, 20, seed, mode="xor-multi")
        mx = brute_force_max_xor(inst)
        for _ in range(10):
            x = random_assignment(8, rng)
            val = eval_xor(inst, x)
            assert mx >= val
            # odd k: the global flip makes both signs attainable
            assert mx >= abs(val)


def test_gen_determinism_and_modes():
    a = gen_random(8, 3, 12, seed=3, mode="xor")
    b = gen_random(8, 3, 12, seed=3, mode="xor")
    assert a == b
    complete = gen_random(6, 2, 15, seed=9, mode="hyg")
    assert set(complete.edges) == set((i, j) for i in range(6) for j in range(i + 1, 6))
    assert len(set(gen_random(10, 3, 30, seed=2, mode="hyg").edges)) == 30
    with pytest.raises(ValueError):
        gen_random(4, 3, 5, seed=0, mode="hyg")   # only C(4,3) = 4 distinct edges
    with pytest.raises(ValueError):
        gen_random(4, 3, 5, seed=0, mode="bogus")


def test_gen_golden_pin(tmp_path):
    from kcert.io import serialize_hypergraph
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "gen_n8_k3_m12_s3.hyg"
    text = serialize_hypergraph(gen_random(8, 3, 12, seed=3, mode="hyg"))
    if not golden.exists():
        golden.write_text(text)
    assert text == golden.read_text()


@given(st.integers(0, 2**30 - 1))
@settings(max_examples=25, deadline=None)
def test_symmetric_difference_of_covers_is_a_cover(seed):
    rng = random.Random(seed)
    h = gen_random(rng.randrange(4, 9), rng.randrange(2, 5) if seed % 2 else 2,
                   rng.randrange(2, 10), seed, mode="hyg-multi")
    subsets = [frozenset(i for i in range(h.m) if rng.random() < 0.5) for _ in range(6)]
    covers = [s for s in subsets if verify_even_cover(h, s)]
    for a in covers:
        for b in covers:
            assert verify_even_cover(h, a ^ b)
