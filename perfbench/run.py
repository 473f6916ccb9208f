"""kcert benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload even-k4 --seed 0 --seconds 25 --trace 0

Generates the workload's inputs from the seed, times kcert's public entry
points in a fresh worker process, checks every output, and prints as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1. The
per-layer run times an untraced and a traced worker for half the time each;
the difference between them is trace.overhead_s. Everything the run writes
goes under .perfbench_work/ in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

# One BLAS thread: on a 2-CPU box a refute took the same wall time with one or
# two, and two doubled its CPU time. Never above nproc.
BLAS_THREADS = 1
SETUP_PROBES = {"full": 7, "tiny": 1}
PROVE_OP = {"refute-even": "refute", "refute-odd": "refute", "cover": "cover_find"}
CHECK_OP = {"refute-even": "verify", "refute-odd": "verify", "cover": "cover_oracle"}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def import_kcert():
    if not (SRC / "kcert" / "__init__.py").is_file():
        raise HarnessError(f"no kcert sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import kcert
    if Path(kcert.__file__).resolve().parent != (SRC / "kcert").resolve():
        raise HarnessError(f"imported kcert from {kcert.__file__}, not from {SRC}")
    return kcert


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def time_setup(run_dir: Path, probes: int, env: dict) -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh interpreter until kcert is imported and
    every input file of the workload is parsed, and the calibration time right
    after each probe (median of three passes)."""
    from perfbench.calibrate import Calibration
    calibration = Calibration()
    samples, calibrations = [], []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "perfbench.probe", str(run_dir)],
                                cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            if line.strip() != "ready":
                _, err = proc.communicate(timeout=60)
                raise HarnessError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        finally:
            # once the probe is ready its work is done; its interpreter teardown is not waited for
            proc.kill()
            proc.communicate()
        samples.append(elapsed)
        calibrations.append(statistics.median(calibration.run() for _ in range(3)))
    return samples, calibrations


def run_worker(run_dir: Path, seconds: float, traced: bool, env: dict) -> dict:
    cmd = [sys.executable, "-m", "perfbench.worker", "--dir", str(run_dir),
           "--seconds", repr(seconds)] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=seconds + 100)
    except subprocess.TimeoutExpired:
        raise HarnessError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    mode = "traced" if traced else "untraced"
    return json.loads((run_dir / f"results-{mode}.json").read_text())


def tail(samples: list[float]):
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(samples)[rank - 1]


def at_reference_speed(seconds: float, calibration: float) -> float:
    """A time measured next to a calibration time, in seconds at reference host speed."""
    from perfbench.calibrate import REFERENCE_S
    return seconds * REFERENCE_S / calibration


def walls(records: list[dict], kind: str) -> list[float]:
    """Scaled wall times of the ops of one kind that raised nothing."""
    return [at_reference_speed(r["wall"], r["calibration"])
            for r in records if r["kind"] == kind and "error" not in r]


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(params: dict, setup: list[float], untraced: dict, answer: float) -> dict:
    kind = params["kind"]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "prove_s": {"value": median_or_zero(walls(untraced["records"], PROVE_OP[kind])), "unit": "s"},
        "check_s": {"value": median_or_zero(walls(untraced["records"], CHECK_OP[kind])), "unit": "s"},
        "peak_rss_mb": {"value": untraced["maxrss_kb"] / 1024.0, "unit": "MB"},
        "answer_size": {"value": answer, "unit": "1"},
    }


def per_layer(plan: dict, run_dir: Path, untraced: dict, traced: dict, checker,
              brute_force_s: list[float]) -> tuple[dict, dict]:
    """Per-layer counts and times; times are at reference host speed like the
    end-to-end ones, each op scaled by its own calibration."""
    from perfbench.spans import self_times

    spans = self_times(json.loads((run_dir / "spans.json").read_text()))
    records = traced["records"]
    calibration = {r["op"]: r["calibration"] for r in records if "calibration" in r}
    by_op: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        by_op[s["op"]].append(s)

    def per_op(name: str, value=None, agg=sum) -> float:
        """Median over the ops that ran span `name` of its per-op aggregate;
        by default the scaled self time."""
        totals = []
        for op, ops in by_op.items():
            mine = [s for s in ops if s["name"] == name]
            if not mine:
                continue
            if value is None:
                totals.append(at_reference_speed(sum(s["self"] for s in mine), calibration[op]))
            else:
                totals.append(agg(value(s) for s in mine))
        return median_or_zero(totals)

    def attr(key):
        return lambda s: s.get("attrs", {}).get(key, 0)

    spectral = "spectral.spectral_norm_reweighted"
    even_build = "kikuchi_even.build_even_kikuchi"
    odd_build = "kikuchi_odd.build_colored_kikuchi"
    decompose = "decomposition.decompose_for_refutation"
    equalize = [s["attrs"] for s in spans if s["name"] == "kikuchi_odd.equalize_deletion"]
    built = sum(a["built"] for a in equalize)
    levels = [lv for text in checker.certs.values()
              for lv in json.loads(text).get("levels", []) if lv["m_t"] > 0]
    params = plan["params"]
    oracle_m = params.get("oracle_m")
    cover = params["kind"] == "cover"

    pairs = []
    for kind, instance in {(r["kind"], r["instance"]) for r in records}:
        t = walls([r for r in records if r["instance"] == instance], kind)
        u = walls([r for r in untraced["records"] if r["instance"] == instance], kind)
        if t and u:
            pairs.append(statistics.median(t) - statistics.median(u))
    parse_s = [at_reference_speed(r["parse_s"], r["calibration"]) for r in records
               if "calibration" in r]

    counts = {
        "spectral.norm_s": per_op(spectral),
        "spectral.norm_cpu_s": per_op(spectral, lambda s: at_reference_speed(
            s["cpu_self"], calibration[s["op"]])),
        "spectral.dim": per_op(spectral, attr("dim")),
        "spectral.nnz": per_op(spectral, attr("nnz")),
        "spectral.residual": per_op(spectral, attr("residual"), max),
        "spectral.basis_bytes_computed": per_op(
            spectral, lambda s: 8 * attr("dim")(s) * min(attr("dim")(s), 1000)),
        "spectral.blas_threads": traced["blas_threads"] or 0,
        "kikuchi_even.build_s": per_op(even_build),
        "kikuchi_even.adjacency_s": per_op("kikuchi_even.adjacency"),
        "kikuchi_even.gamma_diagonal_s": per_op("kikuchi_even.gamma_diagonal"),
        "kikuchi_even.vertices": per_op(even_build, attr("vertices")),
        "kikuchi_even.edges": per_op(even_build, attr("edges")),
        "kikuchi_even.cover_search_self_s": per_op("op:cover_find"),
        "kikuchi_even.walk_len": median_or_zero(
            r["output"][0] for r in records if r["kind"] == "cover_find" and r.get("output")),
        "kikuchi_odd.build_s": per_op(odd_build),
        "kikuchi_odd.delete_s": per_op("kikuchi_odd.delete_heavy_edges"),
        "kikuchi_odd.equalize_s": per_op("kikuchi_odd.equalize_deletion"),
        "kikuchi_odd.subgraph_degrees_s": per_op("kikuchi_odd.subgraph_degrees"),
        "kikuchi_odd.adjacency_s": per_op("kikuchi_odd.adjacency"),
        "kikuchi_odd.gamma_diagonal_s": per_op("kikuchi_odd.gamma_diagonal"),
        "kikuchi_odd.vertices": per_op(odd_build, attr("vertices")),
        "kikuchi_odd.edges": per_op(odd_build, attr("edges")),
        "kikuchi_odd.surviving_ratio": sum(a["surviving"] for a in equalize) / built if built else 0.0,
        "kikuchi_odd.spectral_levels": (sum(lv["method"] == "spectral" for lv in levels) / len(levels)
                                        if levels else 0.0),
        "decomposition.decompose_for_refutation_s": per_op(decompose),
        "decomposition.groups_t1": per_op(decompose, attr("groups_t1")),
        "decomposition.groups_t2": per_op(decompose, attr("groups_t2")),
        "core.min_even_cover_oracle_s": per_op("op:cover_oracle"),
        "core.oracle_subsets": 2 ** (oracle_m // 2) + 2 ** (oracle_m - oracle_m // 2) if oracle_m else 0,
        "io.parse_xor_s": 0.0 if cover else median_or_zero(parse_s),
        "io.parse_hypergraph_s": median_or_zero(parse_s) if cover else 0.0,
        "io.input_bytes": sum((run_dir / name).stat().st_size
                              for name in plan["instances"] + plan["oracle_instances"]),
        "refuter.refute_self_s": per_op("op:refute"),
        "refuter.verify_self_s": per_op("op:verify"),
        "refuter.certificate_bytes": median_or_zero(len(t) for t in checker.certs.values()),
        # the brute-force check runs in the harness, outside every op
        "core.brute_force_max_xor_s": median_or_zero(brute_force_s),
        "trace.overhead_s": median_or_zero(pairs),
    }
    layer_time: dict[str, float] = defaultdict(float)
    for s in spans:
        layer_time[s["layer"]] += s["self"]
    return counts, dict(layer_time)


def prediction(workload: str) -> dict:
    return json.loads((BENCH / "predictions.json").read_text())["workloads"][workload]


def dominance(workload: str, layer_time: dict) -> str:
    """The predicted dominant layers must be the trace's top layers and each
    hold at least its predicted share of op self time."""
    predicted = prediction(workload)["dominant"]
    total = sum(layer_time.values()) or 1.0
    share = {layer: t / total for layer, t in layer_time.items()}
    ranked = sorted(share, key=share.get, reverse=True)
    shares = ", ".join(f"{layer} {share[layer]:.1%}" for layer in ranked)
    top = ranked[:len(predicted)]
    short = [f"{layer} {share.get(layer, 0.0):.1%} < {least:.0%}"
             for layer, least in predicted.items() if share.get(layer, 0.0) < least]
    if set(top) != set(predicted):
        verdict = f"DISAGREES (trace top: {', '.join(top)})"
    elif short:
        verdict = f"DISAGREES (below the predicted share: {', '.join(short)})"
    else:
        verdict = "agrees"
    claim = ", ".join(f"{layer} >= {least:.0%}" for layer, least in predicted.items())
    return f"layer self-time shares: {shares}\npredicted dominant {claim}: {verdict}"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(workload: str, seed: int, size: str, seconds: float, blas_threads) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"workload": workload, "seed": seed, "size": size, "seconds": seconds,
            "nproc": len(os.sched_getaffinity(0)), "caches": cache_sizes(),
            "blas": blas_name, "blas_threads": blas_threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit()}


def describe(workload: str, params: dict, metrics: dict, untraced: dict,
             setup: list[float]) -> list[str]:
    kind = params["kind"]
    prove, check = PROVE_OP[kind], CHECK_OP[kind]
    entry = prediction(workload)
    calibration = statistics.median(r["calibration"] for r in untraced["records"])
    lines = [f"  times are at reference host speed; raw times were about "
             f"x{1 / at_reference_speed(1, calibration):.4g} of these"]
    for name, m in metrics.items():
        line = f"  {name:<15} {m['value']:<12.6g} {m['unit']}"
        op = {"prove_s": prove, "check_s": check}.get(name)
        if op:
            samples = walls(untraced["records"], op)
            t = tail(samples)
            pct = f", p{t[0]} {t[1]:.6g} s" if t else ", no percentile has 10 samples above it"
            line += f"   ({entry[name]}: median of {len(samples)} samples{pct})"
        elif name == "setup_s":
            line += f"   (median of {len(setup)} fresh processes)"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs are for the smoke test only")
    ap.add_argument("--workdir", type=Path, default=ROOT / ".perfbench_work")
    args = ap.parse_args(argv)

    import_kcert()
    from perfbench.checks import Checker
    from perfbench.workloads import WORKLOADS, generate
    if args.workload not in WORKLOADS:
        raise HarnessError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    run_dir = args.workdir / args.workload / f"seed{args.seed}-trace{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    plan = generate(args.workload, args.seed, args.size, run_dir)
    params = plan["params"]
    env = child_env()

    raw_setup, setup_calibrations = time_setup(run_dir, SETUP_PROBES[args.size], env)
    setup = [at_reference_speed(t, c) for t, c in zip(raw_setup, setup_calibrations)]
    share = args.seconds if args.trace == 0 else args.seconds / 2
    untraced = run_worker(run_dir, share, False, env)
    traced = run_worker(run_dir, share, True, env) if args.trace else None

    checker = Checker(plan, run_dir)
    checker.check(untraced["records"], "untraced")
    if traced is not None:
        checker.check(traced["records"], "traced")

    notes = []
    if traced is None:
        metrics = end_to_end(params, setup, untraced, checker.answer_size())
        notes += describe(args.workload, params, metrics, untraced, setup)
    else:
        brute_force_s = [at_reference_speed(t, statistics.median(setup_calibrations))
                         for t in checker.brute_force_s]
        counts, layer_time = per_layer(plan, run_dir, untraced, traced, checker, brute_force_s)
        units = {m["name"]: m["unit"]
                 for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in counts.items()}
        notes += [f"  {name:<42} {m['value']:<14.6g} {m['unit']}" for name, m in metrics.items()]
        notes += dominance(args.workload, layer_time).splitlines()
        if traced["missing_call_sites"]:
            notes.append("call sites not found: " + ", ".join(traced["missing_call_sites"]))

    env_record = environment(args.workload, args.seed, args.size, args.seconds,
                             untraced["blas_threads"])
    rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}: "
          f"{checker.attempted} ops, fail_rate {rate:g} ({checker.failed}/{checker.attempted})")
    for line in notes + checker.failures[:10]:
        print(line)
    print("env " + json.dumps(env_record, sort_keys=True))
    result = {"correct": checker.failed == 0 and checker.attempted > 0,
              "attempted": checker.attempted, "failed": checker.failed, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {"result": result, "env": env_record, "failures": checker.failures,
         "raw_seconds": {"setup": raw_setup, "setup_calibration": setup_calibrations,
                         "worker_calibration_median": statistics.median(
                             r["calibration"] for r in untraced["records"] if "calibration" in r),
                         **{kind: statistics.median(ws)
                            for kind in {r["kind"] for r in untraced["records"]}
                            if (ws := [r["wall"] for r in untraced["records"]
                                       if r["kind"] == kind and "error" not in r])}}},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
