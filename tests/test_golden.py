"""Golden pins for the Kikuchi builders, one odd certificate and oracle covers.

The files under golden/ hold only integers and exact rationals, so they match
on any BLAS. They were written by the per-edge loop builders that the edge
arrays replaced; any change to edge order, provenance or deletion shows here.
dump_digests.json holds the sha256 of dumps on 1,001 to 91,390 vertices, written
by the builders that sorted edges with np.lexsort((item, t, s)) and ranked
sorted rows, before the one-key sort and the sort-free ranks replaced them.
oracle_covers.json was written by the pure-Python meet-in-the-middle oracle
that the array passes replaced, and its rows at m = 40 to 44 on 8 to 28
vertices by the array oracle that sorted every left subset's key, before the
sort-free pass replaced it; kikuchi_covers.json by the closed-walk search
that built its neighbour lists in a dict and scanned every root; deletions.json
by the deletion step that kept its per-pair counts in dicts keyed by
(group, C, C').
"""

import hashlib
import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from kcert import Hypergraph, gen_random, load_xor, min_even_cover_oracle, refute_odd
from kcert.decomposition import Decomposition, Group, decompose_for_refutation
from kcert.kikuchi_even import build_even_kikuchi, dump_even, shortest_even_cover_via_kikuchi
from kcert.kikuchi_odd import (build_colored_kikuchi, delete_heavy_edges, dump_colored,
                               equalize_deletion)
from pair_cells import edge_mask

GOLDEN = pathlib.Path(__file__).parent / "golden"

EVEN_CASES = {
    "even_k4_n9_r3": (gen_random(9, 4, 12, seed=41, mode="hyg-multi"), 3),
    "even_k6_n9_r4": (gen_random(9, 6, 6, seed=42, mode="hyg-multi"), 4),
}

# groups at t = 1 and t = 2 side by side; clause 6 of the k = 3 case repeats
# clause 5, and the t = 1 group there overlaps beyond its center
K3 = Hypergraph(n=6, k=3, edges=((0, 1, 2), (0, 3, 4), (0, 1, 5), (1, 2, 3), (2, 3, 4),
                                 (2, 3, 5), (2, 3, 5), (1, 4, 5), (3, 4, 5)))
K3_PIECES = {1: (Group(center=(0,), clause_indices=(0, 1, 2)),
                 Group(center=(5,), clause_indices=(7, 8))),
             2: (Group(center=(2, 3), clause_indices=(3, 4, 5, 6)),)}
K5 = Hypergraph(n=7, k=5, edges=((0, 1, 2, 3, 4), (0, 2, 4, 5, 6), (0, 1, 3, 5, 6),
                                 (1, 2, 3, 4, 6), (1, 2, 4, 5, 6)))
K5_PIECES = {1: (Group(center=(0,), clause_indices=(0, 1, 2)),),
             2: (Group(center=(1, 2), clause_indices=(3, 4)),)}
COLORED_CASES = {"colored_k3_n6_r3": (K3, K3_PIECES, 3), "colored_k5_n7_r4": (K5, K5_PIECES, 4)}

ODD_INSTANCE = "odd_k3_n4_two_levels.xor"
ODD_ARGS = {"r": 2, "eps": Fraction(49, 100), "eta": 80, "relax_r_range": True}
ODD_FIELDS = ("vertices", "edges", "alpha", "kappa", "rho", "surviving_edges", "d",
              "tr_gamma", "method")


def _decomposition(h, pieces, r):
    full = {t: pieces.get(t, ()) for t in range(1, h.k)}
    return Decomposition(mode="refute", n=h.n, k=h.k, r=r, eps=Fraction(1, 4),
                         pieces=full, thresholds={t: 2 for t in range(1, h.k)})


def even_dump(name):
    h, r = EVEN_CASES[name]
    return dump_even(build_even_kikuchi(h, r))


def colored_dump(name, level):
    h, pieces, r = COLORED_CASES[name]
    return dump_colored(build_colored_kikuchi(h, _decomposition(h, pieces, r), level, r))


def odd_certificate_fields():
    cert = refute_odd(load_xor(GOLDEN / ODD_INSTANCE), **ODD_ARGS)
    return [{key: rec[key] for key in ("t",) + ODD_FIELDS} for rec in cert["levels"]]


@pytest.mark.parametrize("name", sorted(EVEN_CASES))
def test_even_dump_golden(name):
    assert even_dump(name) == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(COLORED_CASES))
@pytest.mark.parametrize("level", [1, 2])
def test_colored_dump_golden(name, level):
    text = colored_dump(name, level)
    assert text.count("\n") > 1
    assert text == (GOLDEN / f"{name}_t{level}.txt").read_text()


@pytest.mark.parametrize("row", json.loads((GOLDEN / "dump_digests.json").read_text()),
                         ids=lambda row: f"{row['kind']}-n{row['n']}-r{row['r']}")
def test_dump_digests_above_256_vertices(row):
    """Dumps where the edge sort key is 32 or 64 bits wide; the colored ones
    are level 1 of the refutation decomposition, as `kcert kikuchi dump --odd
    --relax-r-range` builds it."""
    h = gen_random(row["n"], row["k"], row["m"], seed=row["seed"], mode="hyg-multi")
    if row["kind"] == "even":
        g = build_even_kikuchi(h, row["r"])
        text = dump_even(g)
    else:
        d = decompose_for_refutation(h, row["r"], Fraction(row["eps"]), enforce_ranges=False)
        g = build_colored_kikuchi(h, d, row["level"], row["r"])
        text = dump_colored(g)
    assert (g.num_vertices, g.num_edges) == (row["vertices"], row["edges"])
    assert hashlib.sha256(text.encode()).hexdigest() == row["sha256"]


def test_odd_certificate_golden():
    levels = odd_certificate_fields()
    assert [rec["method"] for rec in levels] == ["spectral", "spectral"]
    assert levels == json.loads((GOLDEN / "odd_k3_n4_two_levels.json").read_text())


def test_deletions():
    """Heavy-edge deletion and equalization on both colored cases at each level
    and eta in {1, 2, 3}: surviving edge positions after each step (in the
    per-pair order of the edges, which the deletions were written in), the
    per-pair counts before equalization as (group, C, C', count) rows, kappa
    and rho."""
    for row in json.loads((GOLDEN / "deletions.json").read_text()):
        h, pieces, r = COLORED_CASES[row["case"]]
        g = build_colored_kikuchi(h, _decomposition(h, pieces, r), row["level"], r)
        pre = delete_heavy_edges(g, row["eta"])
        res = equalize_deletion(g, pre)
        assert pre.sum(axis=1).dtype == np.int64
        got = {"after_delete": np.flatnonzero(edge_mask(g, pre)).tolist(),
               "after_equalize": np.flatnonzero(edge_mask(g, res.surviving)).tolist(),
               "pair_survival": np.column_stack([g.pair_table[:, :3], pre.sum(axis=1)]).tolist(),
               "kappa": res.kappa, "rho": str(res.rho)}
        assert got == {key: row[key] for key in got}, row


def check_oracle_covers():
    for row in json.loads((GOLDEN / "oracle_covers.json").read_text()):
        h = gen_random(row["n"], row["k"], row["m"], seed=row["seed"], mode=row["mode"])
        res = min_even_cover_oracle(h, h.m)
        got = (None, None) if res is None else (res[0], sorted(res[1].edge_indices))
        assert got == (row["size"], row["cover"]), row


def test_oracle_covers():
    """Oracle covers on instances of the cover-find benchmark's shape (n=20,
    k=4, m=34, out of reach of a 2^m scan), one on 70 vertices, and six at
    m = 40 to 44: multi-hypergraphs on 8 and 12 vertices, whose left halves
    are rank-deficient (one of them has its least cover wholly in the left
    half), and one on 28 vertices at the 44-edge limit."""
    check_oracle_covers()


def test_kikuchi_covers():
    """Closed-walk covers on instances of the cover-find benchmark's shape
    (n=36, k=4, m=240, r=3): two walks of length 3, one of length 4, and that
    one again under a cap of 3, which leaves no walk."""
    for row in json.loads((GOLDEN / "kikuchi_covers.json").read_text()):
        h = gen_random(row["n"], row["k"], row["m"], seed=row["seed"], mode=row["mode"])
        res = shortest_even_cover_via_kikuchi(h, row["r"], max_len=row["max_len"])
        got = (None, None) if res is None else (res[0], sorted(res[1].edge_indices))
        assert got == (row["length"], row["cover"]), row


def test_oracle_covers_take_the_path_their_code_dimension_picks(monkeypatch):
    """Rows with K = m - rank <= m // 2 take split 0, a scan of the 2^K
    codewords: the eight 34-edge rows (K = 15), the 70-vertex row (K = 1) and
    the 28-vertex row at 44 edges (K = 17). The five multi-hypergraph rows on 8
    and 12 vertices (K = 31 to 37) take split m // 2, a meet-in-the-middle."""
    from kcert import core

    splits = []
    least_cover_key = core._least_cover_key

    def recorded(coords, split):
        splits.append({0: "0", len(coords) // 2: "m // 2"}[split])
        return least_cover_key(coords, split)

    monkeypatch.setattr(core, "_least_cover_key", recorded)
    check_oracle_covers()
    assert splits == ["0"] * 9 + ["m // 2"] * 5 + ["0"]


@pytest.mark.parametrize("block", [1 << 10, 1 << 15])
def test_oracle_covers_do_not_depend_on_block_size(block, monkeypatch):
    """The oracle's passes run in blocks of ORACLE_BLOCK subsets, and the least
    key wins whatever the block order. At 2^10 the 8-vertex, 44-edge row runs
    its left pass in thousands of blocks; at 2^15 the 34-edge rows scan their
    2^15 codewords in one block, where the default takes four."""
    from kcert import core

    monkeypatch.setattr(core, "ORACLE_BLOCK", block)
    check_oracle_covers()


@pytest.mark.parametrize("block", [1, 7, 100])
def test_dumps_do_not_depend_on_block_size(block, monkeypatch):
    """Builds generate edges in blocks of BLOCK_EDGES; the golden cases all fit
    in one block at the default, so smaller blocks split them at every size."""
    from kcert import kikuchi_even

    monkeypatch.setattr(kikuchi_even, "BLOCK_EDGES", block)
    for name in EVEN_CASES:
        assert even_dump(name) == (GOLDEN / f"{name}.txt").read_text()
    for name in COLORED_CASES:
        for level in (1, 2):
            assert colored_dump(name, level) == (GOLDEN / f"{name}_t{level}.txt").read_text()


@pytest.mark.parametrize("name, level, vertices, edges", [
    ("colored_k3_n6_r3", 1, "C(12,3) = 220 vertices exceeds cap 219",
     "estimated 128 edges (4 pairs, alpha_t = 32) exceeds cap 127"),
    ("colored_k3_n6_r3", 2, "C(12,3) = 220 vertices exceeds cap 219",
     "estimated 540 edges (6 pairs, alpha_t = 90) exceeds cap 10"),
    ("colored_k5_n7_r4", 2, "C(14,4) = 1001 vertices exceeds cap 1000",
     "estimated 144 edges (1 pairs, alpha_t = 144) exceeds cap 10"),
])
def test_colored_caps(name, level, vertices, edges):
    from kcert import CapacityError, Caps

    h, pieces, r = COLORED_CASES[name]
    decomp = _decomposition(h, pieces, r)
    nv, cap = int(vertices.split()[2]), int(edges.split()[-1])
    with pytest.raises(CapacityError) as exc:
        build_colored_kikuchi(h, decomp, level, r, Caps(max_vertices=nv - 1))
    assert str(exc.value) == vertices
    with pytest.raises(CapacityError) as exc:
        build_colored_kikuchi(h, decomp, level, r, Caps(max_edges=cap))
    assert str(exc.value) == edges
    assert build_colored_kikuchi(h, decomp, level, r, Caps(max_vertices=nv)).num_vertices == nv
