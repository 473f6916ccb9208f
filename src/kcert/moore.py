"""Girth-bound audits for irregular graphs: the measured girth against the
exact Moore bound and a weaker logarithmic bound. The girth is the level-1
Kikuchi cover search, and exactly so: for k = 2 and r = 1 the Kikuchi graph is
the graph itself, an even cover is an edge set with every degree even, and its
least nonempty one is a shortest cycle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Hypergraph
from .kikuchi_even import shortest_even_cover_via_kikuchi


def graph_girth(h: Hypergraph):
    """Exact girth of a graph (k = 2), math.inf for a forest: a least even cover,
    an edge set with every degree even, is a shortest cycle (a repeated edge is
    a 2-cycle), and the level-1 Kikuchi search finds one."""
    if h.k != 2:
        raise ValueError(f"graph_girth requires k = 2, got k = {h.k}")
    found = shortest_even_cover_via_kikuchi(h, 1)
    return math.inf if found is None else found[0]


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
    girth = graph_girth(h)                    # raises for k != 2
    d = Fraction(2 * h.m, h.n)
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
