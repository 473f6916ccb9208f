"""Golden pins for the Kikuchi builders, one odd certificate and oracle covers.

The files under golden/ hold only integers and exact rationals, so they match
on any BLAS. They were written by the per-edge loop builders that the edge
arrays replaced; any change to edge order, provenance or deletion shows here.
oracle_covers.json was written by the pure-Python meet-in-the-middle oracle
that the array passes replaced.
"""

import json
import pathlib
from fractions import Fraction

import pytest

from kcert import Hypergraph, gen_random, load_xor, min_even_cover_oracle, refute_odd
from kcert.decomposition import Decomposition, Group
from kcert.kikuchi_even import build_even_kikuchi, dump_even
from kcert.kikuchi_odd import build_colored_kikuchi, dump_colored

GOLDEN = pathlib.Path(__file__).parent / "golden"

EVEN_CASES = {
    "even_k4_n9_r3": (gen_random(9, 4, 12, seed=41, mode="hyg-multi"), 3),
    "even_k6_n9_r4": (gen_random(9, 6, 6, seed=42, mode="hyg-multi"), 4),
}

# groups at t = 1 and t = 2 side by side; clause 6 of the k = 3 case repeats
# clause 5, and the t = 1 group there overlaps beyond its center
K3 = Hypergraph(n=6, k=3, edges=((0, 1, 2), (0, 3, 4), (0, 1, 5), (1, 2, 3), (2, 3, 4),
                                 (2, 3, 5), (2, 3, 5), (1, 4, 5), (3, 4, 5)))
K3_PIECES = {1: (Group(center=(0,), clause_indices=(0, 1, 2), level=1),
                 Group(center=(5,), clause_indices=(7, 8), level=1)),
             2: (Group(center=(2, 3), clause_indices=(3, 4, 5, 6), level=2),)}
K5 = Hypergraph(n=7, k=5, edges=((0, 1, 2, 3, 4), (0, 2, 4, 5, 6), (0, 1, 3, 5, 6),
                                 (1, 2, 3, 4, 6), (1, 2, 4, 5, 6)))
K5_PIECES = {1: (Group(center=(0,), clause_indices=(0, 1, 2), level=1),),
             2: (Group(center=(1, 2), clause_indices=(3, 4), level=2),)}
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


def test_odd_certificate_golden():
    levels = odd_certificate_fields()
    assert [rec["method"] for rec in levels] == ["spectral", "spectral"]
    assert levels == json.loads((GOLDEN / "odd_k3_n4_two_levels.json").read_text())


def test_oracle_covers():
    """Oracle covers on instances of the cover-find benchmark's shape (n=20,
    k=4, m=34, out of reach of a 2^m scan) and one on 70 vertices."""
    for row in json.loads((GOLDEN / "oracle_covers.json").read_text()):
        h = gen_random(row["n"], row["k"], row["m"], seed=row["seed"], mode=row["mode"])
        res = min_even_cover_oracle(h, h.m)
        got = (None, None) if res is None else (res[0], sorted(res[1].edge_indices))
        assert got == (row["size"], row["cover"]), row


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
