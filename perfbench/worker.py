"""The timed process: runs one workload's operations for a fixed time.

Run as ``python -m perfbench.worker --dir D --seconds S [--trace]``
with ``src`` on PYTHONPATH. It reads the instance files listed in D/plan.json,
times each operation the way the CLI runs it, and writes D/results-<mode>.json
(and, traced, D/spans.json) when it exits. It reports its own peak resident
set, so the harness starts a fresh worker for every measured run.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from kcert.core import min_even_cover_oracle
from kcert.io import parse_hypergraph, parse_xor
from kcert.kikuchi_even import shortest_even_cover_via_kikuchi
from kcert.refuter import (certificate_from_json, certificate_to_json, refute_even, refute_odd,
                           verify_certificate)

from perfbench.calibrate import Calibration
from perfbench.spans import Tracer, install_kcert_spans

# the layer each op's own (root) span is charged to
OP_LAYER = {"refute": "refuter", "verify": "refuter", "cover_find": "kikuchi_even",
            "cover_oracle": "core"}


def clear_kcert_caches() -> None:
    """Drop every functools cache in kcert's modules.

    A CLI user runs refute and verify-cert in separate processes, so no op may
    reuse what an earlier op cached (e.g. core._edge_masks, keyed by value).
    """
    for name, module in list(sys.modules.items()):
        if name == "kcert" or name.startswith("kcert."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports for numpy's bundled library, if queryable."""
    import numpy
    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def refute_text(inst, params: dict) -> str:
    if params["kind"] == "refute-even":
        cert = refute_even(inst, params["r"])
    else:
        cert = refute_odd(inst, params["r"], Fraction(params["eps"]), relax_r_range=True)
    return certificate_to_json(cert)


def verify_text(inst, cert_text: str | None) -> list:
    if cert_text is None:
        raise ValueError("the refute op produced no certificate")
    ok, reasons = verify_certificate(inst, certificate_from_json(cert_text))
    return [ok, reasons]


def cover_find(h, params: dict):
    res = shortest_even_cover_via_kikuchi(h, params["r"])
    return None if res is None else [res[0], sorted(res[1].edge_indices)]


def cover_oracle(h):
    res = min_even_cover_oracle(h, h.m)
    return None if res is None else [res[0], sorted(res[1].edge_indices)]


class Runner:
    """Times ops one at a time; state is reset before each op, and the
    calibration task is timed right before it. finish() must follow the last op."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.records: list[dict] = []
        self.calibration = Calibration()

    def op(self, kind: str, instance: int, fn, parse_s: float) -> dict:
        rec = {"op": len(self.records), "kind": kind, "instance": instance, "parse_s": parse_s}
        self.records.append(rec)
        clear_kcert_caches()
        gc.collect()
        rec["calibration_before"] = self.calibration.run()
        if self.tracer is not None:
            self.tracer.op_id = rec["op"]
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                rec["output"] = fn()
            else:
                with self.tracer.record(f"op:{kind}", OP_LAYER[kind]):
                    rec["output"] = fn()
        except Exception as exc:        # a failing op is counted, never fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["wall"] = time.perf_counter() - t0
        return rec

    def finish(self) -> None:
        """Give every op the mean of the calibration passes right before and
        right after it: the next op's pass, or a final one after the last op.
        The host's speed drifts during an op, and on ten seeds this mean cut
        the spread of most op-time medians against the pass before alone."""
        passes = [r["calibration_before"] for r in self.records] + [self.calibration.run()]
        for rec, before, after in zip(self.records, passes, passes[1:]):
            rec["calibration"] = (before + after) / 2


def _load(path: Path, parser):
    text = path.read_text(encoding="ascii")
    t0 = time.perf_counter()
    obj = parser(text)
    return obj, time.perf_counter() - t0


def schedule(plan: dict) -> list[tuple[str, int]]:
    """One pass over the batch: ("main", i) per instance, with the oracle
    instances spread evenly among them, so every prefix times both kinds."""
    main, oracle = plan["instances"], plan["oracle_instances"]
    spots = [((i + 0.5) / len(main), "main", i) for i in range(len(main))]
    spots += [((j + 0.5) / len(oracle), "oracle", j) for j in range(len(oracle))]
    return [(tag, i) for _, tag, i in sorted(spots)]


def step(runner: Runner, plan: dict, work_dir: Path, tag: str, i: int) -> None:
    params = plan["params"]
    if tag == "oracle":
        h, parse_s = _load(work_dir / plan["oracle_instances"][i], parse_hypergraph)
        runner.op("cover_oracle", i, lambda: cover_oracle(h), parse_s)
        return
    name = plan["instances"][i]
    if params["kind"] == "cover":
        h, parse_s = _load(work_dir / name, parse_hypergraph)
        runner.op("cover_find", i, lambda: cover_find(h, params), parse_s)
        return
    inst, parse_s = _load(work_dir / name, parse_xor)
    rec = runner.op("refute", i, lambda: refute_text(inst, params), parse_s)
    cert_text = rec.get("output")
    inst, parse_s = _load(work_dir / name, parse_xor)
    runner.op("verify", i, lambda: verify_text(inst, cert_text), parse_s)


def run(plan: dict, work_dir: Path, seconds: float, tracer: Tracer | None) -> Runner:
    """Step through the schedule, from its start and round again, until the time
    is up. The batch is larger than a run gets through, so a run times as many
    distinct instances as it can: per-instance work varies more than repeated
    timings of one instance do. Every run times the first answer_batch
    instances (answer_size is their mean, the same for every run of a seed) and
    one oracle instance, and refutes some instance twice for the determinism
    check."""
    params = plan["params"]
    runner = Runner(tracer)
    steps = schedule(plan)
    need = steps.index(("main", params["answer_batch"] - 1)) + 1
    if plan["oracle_instances"]:
        need = max(need, steps.index(("oracle", 0)) + 1)
    deadline = time.perf_counter() + seconds
    done = 0
    while done < need or time.perf_counter() < deadline:
        step(runner, plan, work_dir, *steps[done % len(steps)])
        done += 1
    if params["kind"] != "cover" and done <= len(steps):
        step(runner, plan, work_dir, "main", 0)
    runner.finish()
    return runner


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    plan = json.loads((args.dir / "plan.json").read_text())
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_kcert_spans(tracer)
    runner = run(plan, args.dir, args.seconds, tracer)
    mode = "traced" if args.trace else "untraced"
    result = {"records": runner.records,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "blas_threads": blas_threads(),
              "missing_call_sites": tracer.missing if tracer else []}
    (args.dir / f"results-{mode}.json").write_text(json.dumps(result) + "\n")
    if tracer is not None:
        (args.dir / "spans.json").write_text(json.dumps(tracer.spans) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
