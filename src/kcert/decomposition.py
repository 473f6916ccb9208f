"""Greedy hypergraph partitioners (cover and refutation modes) and their validator.

Both modes extract groups of clauses sharing a common center set, working
from large centers down to small ones; the refutation mode then splits the
leftovers into per-vertex parts. Tie-breaking is deterministic: the
lexicographically smallest qualifying center wins, and a group takes the
earliest qualifying clause indices. Both modes share one level loop, which
makes one ascending pass per level over the centers that qualify at its start.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, isqrt
from typing import Optional

from .core import Hypergraph


def ceil_rational_power_half(num: int, den: int, e2: int) -> int:
    """Exact ceil((num/den) ** (e2/2)) for num >= den > 0.

    e2 is twice the exponent, so half-integer powers stay exact.
    """
    if num < den or den <= 0:
        raise ValueError("requires num >= den > 0")
    # an integer c has c^2 >= q exactly when c^2 >= ceil(q)
    return isqrt(ceil(Fraction(num, den) ** e2) - 1) + 1


def cover_group_size(n: int, r: int, k: int, t: int) -> int:
    """Group size max{2, ceil((n/r)^(k/2 - t))} used by the cover decomposition."""
    return max(2, ceil_rational_power_half(n, r, k - 2 * t))


def refutation_threshold(n: int, r: int, k: int, t: int, eps: Fraction) -> int:
    """Threshold tau_t = max{1, ceil((n/r)^(k/2 - t))} * ceil(4k / eps^2)."""
    eps = Fraction(eps)
    return max(1, ceil_rational_power_half(n, r, k - 2 * t)) * ceil(Fraction(4 * k) / (eps * eps))


@dataclass(frozen=True)
class Group:
    """Clauses sharing the center set; level = center size (0 for cover leftovers)."""

    center: tuple[int, ...]
    clause_indices: tuple[int, ...]
    level: int


@dataclass(frozen=True)
class Decomposition:
    mode: str                      # "cover" | "refute"
    n: int
    k: int
    r: int
    eps: Optional[Fraction]
    pieces: dict[int, tuple[Group, ...]]
    thresholds: dict[int, int]     # per-level group size (cover) / tau_t (refute)

    def levels(self) -> list[int]:
        return sorted(self.pieces)

    def groups_at(self, t: int) -> tuple[Group, ...]:
        return self.pieces.get(t, ())

    def p(self, t: int) -> int:
        return len(self.pieces.get(t, ()))

    def m_t(self, t: int) -> int:
        return sum(len(g.clause_indices) for g in self.pieces.get(t, ()))

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "k": self.k,
            "r": self.r,
            "eps": None if self.eps is None else f"{self.eps.numerator}/{self.eps.denominator}",
            "thresholds": {str(t): v for t, v in sorted(self.thresholds.items())},
            "levels": {
                str(t): [
                    {"center": list(g.center), "clauses": list(g.clause_indices)}
                    for g in self.pieces[t]
                ]
                for t in self.levels()
            },
        }


def _extract_levels(h: Hypergraph,
                    sizes: dict[int, int]) -> tuple[dict[int, tuple[Group, ...]], list[int]]:
    """Groups of exactly sizes[t] clauses around size-t centers, at levels k-1 .. 1;
    returns the groups per level and the clauses no group took.

    This is the greedy rule "take the least center in at least sizes[t] clauses
    left, with its earliest such clauses, until none is" in one ascending pass
    per level. Counts only fall as clauses leave, so the least qualifying center
    never decreases: the centers that qualify at the start of the level are met
    in ascending order, each once, and no other center takes a clause while one
    is taking groups.
    """
    pieces: dict[int, tuple[Group, ...]] = {}
    current = list(range(h.m))
    for t in range(h.k - 1, 0, -1):
        need = sizes[t]
        clauses_of: dict[tuple[int, ...], list[int]] = {}
        for idx in current:
            for sub in combinations(h.edges[idx], t):
                clauses_of.setdefault(sub, []).append(idx)
        groups = []
        taken: set[int] = set()
        for center in sorted(u for u, ids in clauses_of.items() if len(ids) >= need):
            ids = [i for i in clauses_of[center] if i not in taken]
            for start in range(0, len(ids) - need + 1, need):
                chosen = tuple(ids[start:start + need])
                groups.append(Group(center=center, clause_indices=chosen, level=t))
                taken.update(chosen)
        pieces[t] = tuple(groups)
        current = [i for i in current if i not in taken]
    return pieces, current


def decompose_for_cover(h: Hypergraph, r: int) -> Decomposition:
    """Partition into levels k-1 .. 1 by greedy center extraction; leftovers at level 0."""
    if not 1 <= r <= h.n:
        raise ValueError(f"r must satisfy 1 <= r <= n, got r = {r}")
    sizes = {t: cover_group_size(h.n, r, h.k, t) for t in range(h.k - 1, 0, -1)}
    pieces, rest = _extract_levels(h, sizes)
    pieces[0] = (Group(center=(), clause_indices=tuple(rest), level=0),) if rest else ()
    return Decomposition(mode="cover", n=h.n, k=h.k, r=r, eps=None,
                         pieces=pieces, thresholds=sizes)


def decompose_for_refutation(h: Hypergraph, r: int, eps,
                             enforce_ranges: bool = True) -> Decomposition:
    """Greedy extraction at levels k-1 .. 1 with thresholds tau_t, then leftovers
    are split into per-vertex parts F_i (i = min of the clause) joining level 1.

    Level-t groups for t >= 2 have size exactly tau_t; level-1 groups have size
    <= tau_1 (greedy groups are exactly tau_1, leftover parts are smaller).
    """
    if not 1 <= r <= h.n:
        raise ValueError(f"r must satisfy 1 <= r <= n, got r = {r}")
    eps = Fraction(eps)
    if enforce_ranges:
        if not (2 * h.k <= r and 8 * r <= h.n):
            raise ValueError(f"r must satisfy 2k <= r <= n/8, got r = {r}, k = {h.k}, n = {h.n}")
    if not Fraction(0) < eps < Fraction(1, 2):
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    taus = {t: refutation_threshold(h.n, r, h.k, t, eps) for t in range(1, h.k)}
    pieces, rest = _extract_levels(h, taus)
    leftovers: dict[int, list[int]] = {}
    for idx in rest:
        leftovers.setdefault(h.edges[idx][0], []).append(idx)
    extra = tuple(
        Group(center=(v,), clause_indices=tuple(ids), level=1)
        for v, ids in sorted(leftovers.items())
    )
    pieces[1] = pieces[1] + extra
    return Decomposition(mode="refute", n=h.n, k=h.k, r=r, eps=eps,
                         pieces=pieces, thresholds=taus)


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    failures: tuple[str, ...]


def validate_decomposition(h: Hypergraph, d: Decomposition) -> ValidationReport:
    """Check partition, group sizes, center containment and intersection caps.

    Intersection caps are verified by exhaustive subset counting on each piece:
    a set of size s > t may appear in at most max{1, ceil((n/r)^(k/2-s))} clauses
    of the level-t piece (cover mode) / at most tau_s - 1 (refutation mode) --
    otherwise it would have been extracted at level s.
    """
    failures = []

    seen: list[int] = []
    for t in d.levels():
        for gi, g in enumerate(d.groups_at(t)):
            seen.extend(g.clause_indices)
            if g.level != t:
                failures.append(f"group {gi} at level {t} carries level tag {g.level}")
            if t >= 1 and len(g.center) != t:
                failures.append(f"level-{t} group {gi} has center of size {len(g.center)}")
            for idx in g.clause_indices:
                if not set(g.center).issubset(h.edges[idx]):
                    failures.append(f"clause {idx} does not contain center of level-{t} group {gi}")
    if sorted(seen) != list(range(h.m)):
        failures.append("clause indices do not partition the edge set")

    for t in d.levels():
        for gi, g in enumerate(d.groups_at(t)):
            size = len(g.clause_indices)
            if d.mode == "cover":
                if t >= 1 and size != d.thresholds[t]:
                    failures.append(
                        f"level-{t} group {gi} has size {size}, rule requires {d.thresholds[t]}"
                    )
            else:
                if t >= 2 and size != d.thresholds[t]:
                    failures.append(
                        f"level-{t} group {gi} has size {size}, rule requires exactly {d.thresholds[t]}"
                    )
                if t == 1 and size > d.thresholds[1]:
                    failures.append(
                        f"level-1 group {gi} has size {size} > tau_1 = {d.thresholds[1]}"
                    )

    for t in d.levels():
        piece = [idx for g in d.groups_at(t) for idx in g.clause_indices]
        if not piece:
            continue
        for s in range(t + 1, h.k):
            counts: dict[tuple[int, ...], int] = {}
            for idx in piece:
                for sub in combinations(h.edges[idx], s):
                    counts[sub] = counts.get(sub, 0) + 1
            if d.mode == "cover":
                cap = max(1, ceil_rational_power_half(d.n, d.r, h.k - 2 * s))
            else:
                cap = d.thresholds[s] - 1
            for sub, c in counts.items():
                if c > cap:
                    failures.append(
                        f"level-{t} piece: set {sub} lies in {c} clauses, cap {cap} at size {s}"
                    )
                    break

    return ValidationReport(passed=not failures, failures=tuple(failures))
