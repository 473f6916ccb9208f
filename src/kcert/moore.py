"""Non-backtracking walk matrices, the PSD girth certificate, and girth-bound
audits for irregular graphs.

A^(s) counts non-backtracking s-walks between vertex pairs; the certificate
checks n^{2/l} Id + n^{-2/l} (D - Id) - A >= 0, which girth > l implies.
Multigraph inputs are supported: adjacency entries carry multiplicities and a
step may return along a distinct parallel edge.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import CapacityError, Hypergraph, graph_girth
from .spectral import psd_margin

NB_DENSE_LIMIT = 500
NB_DIRECT_WALK_LIMIT = 6
NB_DIRECT_VERTEX_LIMIT = 12


def _adjacency_and_degrees(h: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    if h.k != 2:
        raise ValueError(f"non-backtracking machinery requires k = 2, got k = {h.k}")
    a = np.zeros((h.n, h.n), dtype=object)
    for u, v in h.edges:
        a[u, v] += 1
        a[v, u] += 1
    deg = np.array([int(x) for x in a.sum(axis=1)], dtype=object)
    return a, deg


def nb_matrices(h: Hypergraph, s_max: int) -> tuple[np.ndarray, ...]:
    """Exact integer matrices A^(0) .. A^(s_max): A^(0) = Id, A^(1) = A,
    A^(2) = A^2 - D, then A^(s) = A^(s-1) A - A^(s-2) (D - Id)."""
    if h.n > NB_DENSE_LIMIT:
        raise CapacityError(f"nb_matrices supports n <= {NB_DENSE_LIMIT}, got {h.n}")
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    a, deg = _adjacency_and_degrees(h)
    ident = np.array(np.eye(h.n, dtype=int), dtype=object)
    mats = [ident]
    if s_max >= 1:
        mats.append(a)
    if s_max >= 2:
        mats.append(a @ a - np.diag(deg))
    dm1 = np.diag(deg - 1)
    for _ in range(3, s_max + 1):
        mats.append(mats[-1] @ a - mats[-2] @ dm1)
    for s, m in enumerate(mats):
        if any(int(x) < 0 for x in m.flat):
            raise AssertionError(f"A^({s}) has a negative entry; input is not a graph")
    return tuple(mats)


def nb_direct_count(h: Hypergraph, s: int) -> np.ndarray:
    """Independent oracle: enumerate non-backtracking s-walks over directed edge
    instances (parallel edges are distinct, so returning along the other copy is
    allowed)."""
    if s > NB_DIRECT_WALK_LIMIT or h.n > NB_DIRECT_VERTEX_LIMIT:
        raise CapacityError(
            f"direct count supports s <= {NB_DIRECT_WALK_LIMIT}, n <= {NB_DIRECT_VERTEX_LIMIT}"
        )
    if h.k != 2:
        raise ValueError("nb_direct_count requires k = 2")
    out = np.zeros((h.n, h.n), dtype=object)
    if s == 0:
        for v in range(h.n):
            out[v, v] = 1
        return out
    # directed edge instances: (edge_id, head) with reverse (edge_id, tail)
    darts: list[tuple[int, int, int]] = []     # (edge_id, tail, head)
    for eid, (u, v) in enumerate(h.edges):
        darts.append((eid, u, v))
        darts.append((eid, v, u))
    outgoing: dict[int, list[int]] = {v: [] for v in range(h.n)}
    for di, (_eid, tail, _head) in enumerate(darts):
        outgoing[tail].append(di)
    # darts are appended in forward/backward pairs
    reverse = {di: di ^ 1 for di in range(len(darts))}
    for start in range(h.n):
        counts: dict[int, int] = {di: 1 for di in outgoing[start]}
        for _step in range(s - 1):
            nxt: dict[int, int] = {}
            for di, c in counts.items():
                head = darts[di][2]
                for dj in outgoing[head]:
                    if dj == reverse[di]:
                        continue
                    nxt[dj] = nxt.get(dj, 0) + c
            counts = nxt
        for di, c in counts.items():
            out[start, darts[di][2]] += c
    return out


def ihara_moore_certificate(h: Hypergraph, ell: int, tol: float = 1e-9) -> tuple[bool, float]:
    """PSD check of n^{2/ell} Id + n^{-2/ell} (D - Id) - A.

    Girth > ell implies a pass; a failure therefore certifies a cycle of length
    <= ell. The converse direction is not asserted.
    """
    if ell % 2 != 0 or ell <= 0:
        raise ValueError("ell must be a positive even integer")
    a, deg = _adjacency_and_degrees(h)
    af = a.astype(np.float64)
    degf = np.array([float(x) for x in deg])
    s = float(h.n) ** (2.0 / ell)
    m = s * np.eye(h.n) + (1.0 / s) * np.diag(degf - 1.0) - af
    margin = psd_margin(m)
    return margin >= -tol, margin


def _floor_log(base: Fraction, x: int) -> int:
    """Largest j >= 0 with base^j <= x, for base > 1, exact."""
    if base <= 1:
        raise ValueError("base must exceed 1")
    guess = max(0, int(math.log(x) / math.log(float(base))))
    p, q = base.numerator, base.denominator
    while p**(guess + 1) <= x * q**(guess + 1):
        guess += 1
    while guess > 0 and p**guess > x * q**guess:
        guess -= 1
    return guess


def _ceil_log(base: Fraction, x: int) -> int:
    """Smallest j >= 0 with base^j >= x, for base > 1, exact."""
    j = _floor_log(base, x)
    return j if base**j == x else j + 1


def moore_bound_audit(h: Hypergraph) -> dict:
    """Compare measured girth against the exact and weak girth bounds.

    exact: girth <= 2 (floor(log_{d-1} n) + 1)   whenever d > 2
    weak : girth <= 2 ceil(log_{d/16} n)         whenever d > 16
    """
    if h.k != 2:
        raise ValueError("moore_bound_audit requires k = 2")
    d = Fraction(2 * h.m, h.n)
    girth = graph_girth(h)
    report: dict = {"n": h.n, "m": h.m, "average_degree": d, "girth": girth}
    if d > 2:
        bound = 2 * (_floor_log(d - 1, h.n) + 1)
        report["exact_bound"] = bound
        report["girth_le_exact"] = girth <= bound
    else:
        report["exact_bound"] = None
        report["girth_le_exact"] = None
    if d > 16:
        bound = 2 * _ceil_log(d / 16, h.n)
        report["weak_bound"] = bound
        report["girth_le_weak"] = girth <= bound
    else:
        report["weak_bound"] = None
        report["girth_le_weak"] = None
    return report
