"""A fixed calibration task that tracks how fast the host runs right now.

The benchmark shares its host with other work, and the host's speed drifts by
tens of percent over seconds to minutes. The worker therefore times one pass
of this task right before every op and one right after it, and reports the
op's time multiplied by REFERENCE_S / (the mean of the two): seconds at the
speed the host had when the benchmark was defined. The task does not call kcert, so a change to kcert
moves the scaled times in the same proportion as the raw ones; the raw
medians are kept in result.json.

The mix imitates kcert's: interpreter-bound tuple, sort and dict work like the
Kikuchi builders, a dict of 2^14 integer keys built and probed like the
even-cover oracle's tables, and sparse and dense matrix-vector products like
Lanczos.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# about the median of Calibration.run() on the 2-CPU box where the benchmark was defined
REFERENCE_S = 0.03


class Calibration:
    def __init__(self):
        dim, nnz = 4000, 40000
        rng = np.random.default_rng(12345)
        rows, cols = rng.integers(0, dim, nnz), rng.integers(0, dim, nnz)
        a = sp.coo_matrix((np.ones(nnz), (rows, cols)), shape=(dim, dim)).tocsr()
        self.matrix = (a + a.T).tocsr()
        self.basis = rng.standard_normal((dim, 60))

    def run(self) -> float:
        """Wall time of one pass of the task."""
        t0 = time.perf_counter()
        edges = []
        for i in range(8000):
            a = (i * 2654435761) % 4099
            edges.append((a, (a * 7 + i) % 4099, i))
        edges.sort()
        degree: dict[int, int] = {}
        for s, t, _ in edges:
            degree[s] = degree.get(s, 0) + 1
            degree[t] = degree.get(t, 0) + 1
        table: dict[int, int] = {}
        acc = 0
        for i in range(1 << 14):
            acc ^= (i * 0x9E3779B1) & 0xFFFFFFFF
            table.setdefault(acc, i)
        hits = sum(1 for i in range(1 << 14) if ((i * 0x85EBCA6B) & 0xFFFFFFFF) in table)
        v = self.basis[:, 0].copy()
        for _ in range(20):
            w = self.matrix @ v
            w -= self.basis @ (self.basis.T @ w)
            v = w / np.linalg.norm(w)
        elapsed = time.perf_counter() - t0
        self.sink = (len(degree), hits, float(v[0]))
        return elapsed
