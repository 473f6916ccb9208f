"""Run every workload once and print one row per workload.

    python3 perfbench/report.py [--seed 0] [--trace]

Each row shows every end-to-end metric by name and unit, the fail rate of the
correctness checks and whether the run was correct. With --trace, a traced
run per workload follows and its layer shares and dominance verdict are
printed. Exits 1 if any workload failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    header = ["workload", "correct", "fail_rate"] + [f"{m['name']} ({m['unit']})" for m in spec["end_to_end"]]
    rows, traces, all_ok = [], [], True
    for w in spec["workloads"]:
        res, _ = run(w["name"], args.seed, seconds, 0)
        all_ok &= res["correct"]
        rows.append([w["name"], str(res["correct"]), f"{res['failed']}/{res['attempted']}"]
                    + [f"{res['metrics'][n]['value']:.6g}" for n in names])
        if args.trace:
            res, notes = run(w["name"], args.seed, seconds, 1)
            all_ok &= res["correct"]
            traces.append(f"{w['name']} (traced, fail_rate {res['failed']}/{res['attempted']}):")
            traces += [line for line in notes if "shares" in line or "predicted" in line]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(r, widths)))
    for line in traces:
        print(line)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
