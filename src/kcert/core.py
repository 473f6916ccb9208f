"""Core hypergraph types, exact F2 oracles, XOR evaluation and seeded generators.

All combinatorial identities here are exact (integers / fractions); vertex ids
are 0-based everywhere inside the library (files are 1-based, converted at the
I/O boundary).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

import numpy as np

from .subsets import mask_from

ORACLE_EDGE_LIMIT = 44        # one pass over at most 2^(m/2) subsets at a time: the
                              # 2^K codewords when K <= m/2, else each half's subsets,
                              # met in the middle; of the least covers, the least
                              # (left bitmask, right bitmask) wins
ORACLE_BLOCK = 1 << 13        # subsets per block of the oracle's passes: each int64
                              # block temporary is 64 KiB, under glibc's 128 KiB mmap
                              # threshold (reused heap chunks, no fresh mappings) and
                              # within L2
BRUTE_FORCE_VAR_LIMIT = 24    # Walsh-Hadamard scan over 2^n assignments


class KcertError(Exception):
    """Base class for library errors."""


class CapacityError(KcertError):
    """A hard size limit was exceeded; never degrade to a silently wrong answer."""


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph on vertices 0..n-1 with an ordered hyperedge list.

    Hyperedges are stored sorted; duplicates are legal (a duplicated pair is
    itself an even cover of size 2). Vertices are Python or numpy integers,
    not bools, and are stored as Python ints.
    """

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        if self.k < 2:
            raise ValueError("uniformity k must be >= 2")
        norm = []
        for e in self.edges:
            if not all(_is_int(v) for v in e):
                raise ValueError(f"hyperedge {e!r} has a vertex that is not an integer")
            t = tuple(sorted(int(v) for v in e))
            if len(t) != self.k or len(set(t)) != self.k:
                raise ValueError(f"hyperedge {e!r} must have exactly {self.k} distinct vertices")
            if t[0] < 0 or t[-1] >= self.n:
                raise ValueError(f"hyperedge {e!r} has a vertex outside 0..{self.n - 1}")
            norm.append(t)
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def _of_valid_rows(cls, n: int, k: int, edges: tuple[tuple[int, ...], ...]) -> Hypergraph:
        """A hypergraph whose edges are already sorted tuples of k distinct Python
        ints in 0..n-1, as the parsers produce them; nothing is checked again."""
        h = object.__new__(cls)
        object.__setattr__(h, "n", n)
        object.__setattr__(h, "k", k)
        object.__setattr__(h, "edges", edges)
        return h

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_masks(self) -> tuple[int, ...]:
        return tuple(mask_from(e) for e in self.edges)


@dataclass(frozen=True)
class XorInstance:
    """Hypergraph plus a +/-1 sign per hyperedge; numpy integer signs are stored as Python ints."""

    hypergraph: Hypergraph
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.signs) != self.hypergraph.m:
            raise ValueError("signs length must equal the number of hyperedges")
        if not all(_is_int(s) and s in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))

    @property
    def n(self) -> int:
        return self.hypergraph.n

    @property
    def k(self) -> int:
        return self.hypergraph.k

    @property
    def m(self) -> int:
        return self.hypergraph.m


@dataclass(frozen=True)
class EvenCover:
    """Set of hyperedge indices whose mod-2 vertex-indicator sum is zero."""

    edge_indices: frozenset[int]


def odd_use_cover(indices) -> EvenCover:
    """The indices that occur an odd number of times in a sequence of uses."""
    odd: set[int] = set()
    for i in indices:
        odd ^= {i}
    return EvenCover(frozenset(odd))


Assignment = Sequence[int]       # n entries in {-1, +1}


def _check_assignment(n: int, x: Assignment) -> None:
    if len(x) != n:
        raise ValueError(f"assignment has length {len(x)}, expected {n}")
    if not all(_is_int(v) and v in (-1, 1) for v in x):
        raise ValueError("assignment entries must be +1 or -1")


def verify_even_cover(h: Hypergraph, cover) -> bool:
    """True iff every vertex lies in an even number of the selected hyperedges.

    The empty cover verifies (it is the zero vector); callers reporting covers
    must reject it separately.
    """
    indices = cover.edge_indices if isinstance(cover, EvenCover) else tuple(cover)
    for i in indices:
        if not _is_int(i) or not 0 <= i < h.m:
            raise IndexError(f"edge index {i} out of range 0..{h.m - 1}")
    acc = 0
    for i in frozenset(indices):
        acc ^= mask_from(h.edges[i])
    return acc == 0


def _span_coordinates(masks: Sequence[int]) -> list[int]:
    """Each mask's coordinates in the basis of the masks' span that takes, in
    order, every mask independent of the ones before it; bit j is basis mask j.

    The map is linear and injective on the span, so two subsets have equal
    xors exactly when their coordinates do, and the coordinates have at most
    len(masks) bits however wide the masks are. The masks before any cut span
    exactly the coordinates below 2^(their rank).
    """
    rows: dict[int, tuple[int, int]] = {}   # pivot (highest bit) -> (reduced mask, coordinates)
    coords = []
    for v in masks:
        c = 0
        while v and v.bit_length() - 1 in rows:
            rv, rc = rows[v.bit_length() - 1]
            v, c = v ^ rv, c ^ rc
        if v:
            new = 1 << len(rows)
            rows[v.bit_length() - 1] = (v, c ^ new)
            c = new
        coords.append(c)
    return coords


def _subset_table(steps: Sequence[int], op) -> np.ndarray:
    """op folded over the steps each subset selects, for every subset of the
    steps (bit i of the index selects steps[i]), by doubling in place:
    out[h:2h] = op(out[:h], step)."""
    out = np.zeros(1 << len(steps), dtype=np.int64)
    h = 1
    for step in steps:
        op(out[:h], step, out=out[h:2 * h])
        h *= 2
    return out


def _least_key(columns, key, empty: int) -> int:
    """The least key over the nonempty subsets of a list of steps, or `empty`.

    columns holds step lists of one length; a subset's value in a column is
    the xor of the steps it selects, and key maps the columns' values of a
    block of subsets to their keys. A subset is a pair (hi, lo): lo a subset
    of the first s steps, 2^s at most ORACLE_BLOCK, and hi one of the rest; a
    block takes all lo, and as many hi as fit in ORACLE_BLOCK."""
    s = min(len(columns[0]), ORACLE_BLOCK.bit_length() - 1)
    tables = [(_subset_table(steps[s:], np.bitwise_xor), _subset_table(steps[:s], np.bitwise_xor))
              for steps in columns]
    step = ORACLE_BLOCK >> s
    best = empty
    for hi in range(0, len(tables[0][0]), step):
        block = key(*(t_hi[hi:hi + step, None] ^ t_lo for t_hi, t_lo in tables))
        if hi == 0:
            block[0, 0] = empty                     # the empty subset
        best = min(best, int(block.min()))
    return best


def _least_cover_key(coords: Sequence[int], split: int) -> int:
    """The least packed key (size << m) | (left bitmask << b) | right bitmask
    of a nonempty even cover, or (m + 1) << m, on the edges' span coordinates.

    Edge i of the left half (i < a = m // 2) is key bit b + i, and edge a + j
    of the right half is bit j. The edges below `split` (0 or a) are met in
    the middle; exact, with no sort. They split into basis edges, whose
    coordinates are fresh bits, and dependent edges. A subset of them is a
    basis part beta and a dependent part delta; beta's bits are its xor's, so
    the subset's xor is beta ^ c(delta) and its key (size << a) | bitmask is
    Kb[beta] + Kd[delta]. The least key of these subsets with xor x is
    therefore the minimum over delta of Kb[x ^ c(delta)] + Kd[delta]: one pass
    over their 2^split subsets in blocks of delta, or Kb itself when no edge
    below split is dependent.

    The edges from split on split the same way. Each dependent one gives a
    row: its own bit and the bits of the fresh basis edges its coordinates
    select, beside its coordinates below the fresh bits. A subset of them
    whose fresh bits cancel is the xor of a subset of the rows; its size is
    the popcount of its bits, and the least subset below split that closes a
    cover with it is read off its low coordinates. With split = 0 this is a
    scan of all 2^K codewords, K = m - rank."""
    m = len(coords)
    a = m // 2
    b = m - a
    # a cover (size, left bitmask, right bitmask) packs into one int64 whose
    # numeric order is the lexicographic one: (left key << b) + right key;
    # no cover has size m + 1
    best = (m + 1) << m
    rho = 0
    if split:
        basis: list[int] = []                       # key steps of the edges below split
        dependent: list[int] = []
        dep_coords: list[int] = []
        for i, c in enumerate(coords[:split]):
            if c == 1 << len(basis):
                basis.append((1 << a) | (1 << i))
            else:
                dependent.append((1 << a) | (1 << i))
                dep_coords.append(c)
        rho = len(basis)
        kb = _subset_table(basis, np.add)           # index = xor of the basis part
        kd = _subset_table(dependent, np.add)
        cd = _subset_table(dep_coords, np.bitwise_xor)
        best_left = kb                              # least left key per xor
        if len(kd) > 1:
            # delta != 0 and beta = c(delta) make a left-only cover
            best = int((kb[cd[1:]] + kd[1:]).min()) << b
            best_left = kb.copy()
            # a block takes a run of `width` xors and as many delta as fit in ORACLE_BLOCK
            width = 1 << min(rho, ORACLE_BLOCK.bit_length() - 1)
            step = ORACLE_BLOCK // width
            for x0 in range(0, len(kb), width):
                xs, out = np.arange(x0, x0 + width), best_left[x0:x0 + width]
                for lo in range(1, len(kd), step):
                    block = kb[xs ^ cd[lo:lo + step, None]] + kd[lo:lo + step, None]
                    np.minimum(out, block.min(axis=0), out=out)

    fresh = [0] * rho                               # key bit of basis edge j, j >= rho
    rows = []
    lows = []
    low_mask = (1 << rho) - 1
    for i, c in enumerate(coords[split:], split):
        bit = 1 << (b + i if i < a else i - a)
        if c == 1 << len(fresh):
            fresh.append(bit)
            continue
        for j in range(rho, c.bit_length()):
            if c >> j & 1:
                bit |= fresh[j]
        rows.append(bit)
        lows.append(c & low_mask)

    right = lambda bits: (np.bitwise_count(bits).astype(np.int64) << m) | bits
    columns, key = [rows], right
    if split:
        columns.append(lows)
        key = lambda bits, low: (best_left[low] << b) + right(bits)
    return min(best, _least_key(columns, key, (m + 1) << m))


def min_even_cover_oracle(h: Hypergraph, size_cap: int) -> Optional[tuple[int, EvenCover]]:
    """Smallest nonempty even cover of size <= size_cap, by exhaustive F2 search.

    The even covers are the nonzero codewords of the kernel of the edges'
    incidence matrix, of dimension K = m - rank, and the edges' span
    coordinates give its systematic basis. One pass (_least_cover_key) meets
    the subsets of the edges below a split with the rows that the dependent
    edges from it on give. When K <= m // 2 the split is 0, and the pass scans
    all 2^K codewords in blocks; otherwise it is m // 2, and the pass meets
    the 2^(m/2) subsets of each half of the edges, which stays feasible where
    2^K is not.

    Of the covers of least size, the oracle returns the one whose left subset
    bitmask is least, then whose right subset bitmask is least, at either
    split; the left half is the first m // 2 edges, and bit i selects the i-th
    edge of its half.
    Returns None when no nonempty even cover of size <= size_cap exists.
    """
    m = h.m
    if m > ORACLE_EDGE_LIMIT:
        raise CapacityError(
            f"even-cover oracle supports at most {ORACLE_EDGE_LIMIT} hyperedges, got {m}"
        )
    if m == 0 or size_cap < 1:
        return None
    coords = _span_coordinates(h.edge_masks())
    a = m // 2
    b = m - a
    rank = max(coords).bit_length()                # the coordinates fill [0, 2^rank)
    best = _least_cover_key(coords, 0 if m - rank <= a else a)
    size = best >> m
    if size > min(size_cap, m):
        return None
    chosen = (best >> b & ((1 << a) - 1)) | (best & ((1 << b) - 1)) << a
    cover = EvenCover(frozenset(i for i in range(m) if chosen >> i & 1))
    assert verify_even_cover(h, cover)
    return size, cover


def eval_xor(inst: XorInstance, x: Assignment) -> Fraction:
    """Exact instance value: the signed fraction of satisfied parities, in [-1, 1]."""
    h = inst.hypergraph
    if h.m == 0:
        raise ValueError("cannot evaluate an empty instance")
    _check_assignment(h.n, x)
    total = 0
    for sign, edge in zip(inst.signs, h.edges):
        p = sign
        for v in edge:
            p *= x[v]
        total += p
    return Fraction(total, h.m)


def brute_force_max_xor(inst: XorInstance) -> Fraction:
    """Exact max of eval_xor over all 2^n assignments (Walsh-Hadamard scan)."""
    h = inst.hypergraph
    if h.n > BRUTE_FORCE_VAR_LIMIT:
        raise CapacityError(
            f"brute-force oracle supports at most {BRUTE_FORCE_VAR_LIMIT} variables, got {h.n}"
        )
    if h.m == 0:
        raise ValueError("cannot evaluate an empty instance")
    size = 1 << h.n
    g = np.zeros(size, dtype=np.int64)
    for mask, sign in zip(h.edge_masks(), inst.signs):
        g[mask] += sign
    # in-place Walsh-Hadamard transform: g[z] becomes sum_c g[c] * (-1)^{|z & c|}
    step = 1
    while step < size:
        blocks = g.reshape(-1, 2, step)
        a = blocks[:, 0, :].copy()
        b = blocks[:, 1, :].copy()
        blocks[:, 0, :] = a + b
        blocks[:, 1, :] = a - b
        step *= 2
    return Fraction(int(g.max()), h.m)


def _draw_sorted_edge(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    # partial Fisher-Yates, pinned to the rng's randrange stream
    pool = list(range(n))
    for i in range(k):
        j = rng.randrange(i, n)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:k]))


def _unrank_combination(rank: int, n: int, k: int) -> tuple[int, ...]:
    out = []
    prev = -1
    for slot in range(k):
        v = prev + 1
        while comb(n - 1 - v, k - 1 - slot) <= rank:
            rank -= comb(n - 1 - v, k - 1 - slot)
            v += 1
        out.append(v)
        prev = v
    return tuple(out)


def gen_random(n: int, k: int, m: int, seed: int, mode: str = "xor"):
    """Seeded deterministic instance generator.

    mode selects the output type and hyperedge distribution:
      "hyg"        distinct hyperedges, no signs
      "hyg-multi"  hyperedges with replacement, no signs
      "xor"        distinct hyperedges, uniform +/-1 signs
      "xor-multi"  with replacement, uniform +/-1 signs
    """
    if n < 1 or k < 2 or m < 0:
        raise ValueError("parameters must be positive (m may be zero)")
    if k > n:
        raise ValueError(f"k = {k} exceeds n = {n}")
    if mode not in ("hyg", "hyg-multi", "xor", "xor-multi"):
        raise ValueError(f"unknown mode {mode!r}")
    distinct = not mode.endswith("-multi")
    total = comb(n, k)
    if distinct and m > total:
        raise ValueError(f"cannot draw {m} distinct hyperedges from C({n},{k}) = {total}")

    rng = random.Random(seed)
    edges: list[tuple[int, ...]] = []
    if not distinct:
        edges = [_draw_sorted_edge(rng, n, k) for _ in range(m)]
    elif total <= max(100_000, 4 * m):
        # sample combination ranks without replacement (partial Fisher-Yates on ranks)
        ranks = list(range(total))
        for i in range(m):
            j = rng.randrange(i, total)
            ranks[i], ranks[j] = ranks[j], ranks[i]
        edges = [_unrank_combination(ranks[i], n, k) for i in range(m)]
    else:
        seen = set()
        while len(edges) < m:
            e = _draw_sorted_edge(rng, n, k)
            if e not in seen:
                seen.add(e)
                edges.append(e)

    h = Hypergraph(n=n, k=k, edges=tuple(edges))
    if mode.startswith("hyg"):
        return h
    signs = tuple(1 if rng.randrange(2) == 0 else -1 for _ in range(m))
    return XorInstance(hypergraph=h, signs=signs)

