"""Per-op correctness checks. Every op either passes all of its checks or
counts once as failed; an exception raised by the op is a failure too.

refute        certified_bound <= 1; certified_bound >= the brute-force
              optimum when n <= BRUTE_FORCE_VAR_LIMIT; every refute of one
              instance gives byte-identical canonical JSON, traced or not.
verify        verify_certificate returned (True, []).
cover_find    a non-empty cover that passes verify_even_cover and is no
              larger than the walk that produced it.
cover_oracle  a cover that verifies, of the reported size, no larger than
              the walk the Kikuchi search finds on the same instance.
"""

from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path

from kcert.core import BRUTE_FORCE_VAR_LIMIT, brute_force_max_xor, verify_even_cover
from kcert.io import load_hypergraph, load_xor
from kcert.kikuchi_even import shortest_even_cover_via_kikuchi
from kcert.refuter import certificate_from_json


class Checker:
    def __init__(self, plan: dict, work_dir: Path):
        self.plan = plan
        self.work_dir = work_dir
        self.params = plan["params"]
        self.certs: dict[int, str] = {}          # first certificate text per instance
        self.bounds: dict[int, Fraction] = {}
        self.covers: dict[int, int] = {}          # Kikuchi cover size per search instance
        self.brute_force_s: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._optimum: dict[int, Fraction] = {}
        self._oracle_walk: dict[int, int | None] = {}

    def _instance(self, i: int):
        name = self.plan["instances"][i]
        path = self.work_dir / name
        return load_xor(path) if name.endswith(".xor") else load_hypergraph(path)

    def _oracle_instance(self, j: int):
        return load_hypergraph(self.work_dir / self.plan["oracle_instances"][j])

    def optimum(self, i: int) -> Fraction | None:
        if i not in self._optimum:
            inst = self._instance(i)
            if inst.n > BRUTE_FORCE_VAR_LIMIT:
                return None
            t0 = time.perf_counter()
            self._optimum[i] = brute_force_max_xor(inst)
            self.brute_force_s.append(time.perf_counter() - t0)
        return self._optimum[i]

    def oracle_walk(self, j: int) -> int | None:
        if j not in self._oracle_walk:
            res = shortest_even_cover_via_kikuchi(self._oracle_instance(j), self.params["r"])
            self._oracle_walk[j] = None if res is None else res[0]
        return self._oracle_walk[j]

    def problems(self, rec: dict) -> list[str]:
        """Reasons this op failed; empty when it passed every check."""
        if "error" in rec:
            return [rec["error"]]
        kind, i, out = rec["kind"], rec["instance"], rec["output"]
        if kind == "refute":
            bad = []
            bound = Fraction(certificate_from_json(out)["certified_bound"])
            if bound > 1:
                bad.append(f"certified_bound {bound} > 1")
            opt = self.optimum(i)
            if opt is not None and bound < opt:
                bad.append(f"certified_bound {bound} < brute-force optimum {opt}")
            self.bounds.setdefault(i, bound)
            if out != self.certs.setdefault(i, out):
                bad.append("certificate bytes differ from an earlier refute of this instance")
            return bad
        if kind == "verify":
            return [] if out == [True, []] else [f"verify_certificate returned {out!r}"]
        if out is None:
            return [f"{kind} found no cover"]
        length, indices = out
        if kind == "cover_find":
            self.covers.setdefault(i, len(indices))
            h = self._instance(i)
            if not indices:
                return ["empty cover"]
            if not verify_even_cover(h, indices):
                return ["cover does not verify"]
            if len(indices) > length:
                return [f"cover of {len(indices)} clauses from a walk of length {length}"]
            return []
        h = self._oracle_instance(i)
        if not indices or len(indices) != length or not verify_even_cover(h, indices):
            return [f"oracle cover {indices} of reported size {length} does not verify"]
        walk = self.oracle_walk(i)
        if walk is not None and length > walk:
            return [f"oracle size {length} exceeds the Kikuchi walk length {walk}"]
        return []

    def check(self, records: list[dict], tag: str) -> None:
        for rec in records:
            self.attempted += 1
            bad = self.problems(rec)
            if bad:
                self.failed += 1
                self.failures.append(f"{tag} op {rec['op']} {rec['kind']}#{rec['instance']}: "
                                     + "; ".join(bad))

    def answer_size(self) -> float:
        """Mean certified bound (refute workloads) or mean Kikuchi cover size over
        the first answer_batch instances, which every run times."""
        found = self.bounds or self.covers
        values = [Fraction(v) for i, v in found.items() if i < self.params["answer_batch"]]
        return float(sum(values) / len(values)) if values else 0.0
