"""Span recorder that traces kcert from outside the program.

The tracer replaces call-site names with wrappers that record a span each:
name, layer, start, end (wall and process CPU), parent span and op id. Spans
stay in memory; the worker writes them out when it exits. Nothing under
``src/`` is edited, so the wrapped names are the ones the library looks up at
call time:

* ``kcert.refuter`` imports its helpers into its own namespace, so those
  names are replaced there;
* ``kcert.kikuchi_even.build_even_kikuchi`` is looked up at call time by both
  ``signed_even_kikuchi`` and the cover search;
* graph methods are replaced on their classes.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def record(self, name: str, layer: str):
        span = {"id": len(self.spans), "name": name, "layer": layer, "op": self.op_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "cpu_start": time.process_time()}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            span["cpu_end"] = time.process_time()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, layer: str, attrs=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        attrs(args, result) -> dict adds sizes to the span. A call site that no
        longer exists is listed in self.missing rather than failing the run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.record(name, layer) as span:
                result = original(*args, **kwargs)
            if attrs is not None:
                span["attrs"] = attrs(args, result)
            return result

        setattr(owner, attr, traced)


def install_kcert_spans(tracer: Tracer) -> None:
    from kcert import kikuchi_even, kikuchi_odd, refuter

    def graph_size(args, g):
        return {"vertices": g.num_vertices, "edges": g.num_edges}

    def decomposition_groups(args, d):
        return {"groups_t1": d.p(1), "groups_t2": d.p(2)}

    def equalized(args, result):
        return {"built": args[0].num_edges, "surviving": result.num_surviving}

    def spectral_size(args, result):
        a = args[0]
        return {"dim": int(a.shape[0]), "nnz": int(getattr(a, "nnz", 0)),
                "residual": float(result[1])}

    tracer.wrap(refuter, "signed_even_kikuchi", "kikuchi_even.signed_even_kikuchi", "kikuchi_even")
    tracer.wrap(refuter, "decompose_for_refutation", "decomposition.decompose_for_refutation",
                "decomposition", decomposition_groups)
    tracer.wrap(refuter, "build_colored_kikuchi", "kikuchi_odd.build_colored_kikuchi",
                "kikuchi_odd", graph_size)
    tracer.wrap(refuter, "delete_heavy_edges", "kikuchi_odd.delete_heavy_edges", "kikuchi_odd")
    tracer.wrap(refuter, "equalize_deletion", "kikuchi_odd.equalize_deletion", "kikuchi_odd",
                equalized)
    tracer.wrap(refuter, "spectral_norm_reweighted", "spectral.spectral_norm_reweighted",
                "spectral", spectral_size)
    tracer.wrap(kikuchi_even, "build_even_kikuchi", "kikuchi_even.build_even_kikuchi",
                "kikuchi_even", graph_size)
    for method in ("adjacency", "gamma_diagonal"):
        tracer.wrap(kikuchi_even.EvenKikuchiGraph, method, f"kikuchi_even.{method}", "kikuchi_even")
    for method in ("adjacency", "gamma_diagonal", "subgraph_degrees"):
        tracer.wrap(kikuchi_odd.ColoredKikuchiGraph, method, f"kikuchi_odd.{method}", "kikuchi_odd")


def self_times(spans: list[dict]) -> list[dict]:
    """Each span with 'self' and 'cpu_self': its duration minus its children's.

    Spans of one op run sequentially on one thread, so children never overlap
    and the covered part of a span is the sum of its children's durations.
    """
    child_wall = [0.0] * len(spans)
    child_cpu = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_wall[s["parent"]] += s["end"] - s["start"]
            child_cpu[s["parent"]] += s["cpu_end"] - s["cpu_start"]
    out = []
    for s in spans:
        row = dict(s)
        row["self"] = (s["end"] - s["start"]) - child_wall[s["id"]]
        row["cpu_self"] = (s["cpu_end"] - s["cpu_start"]) - child_cpu[s["id"]]
        out.append(row)
    return out
