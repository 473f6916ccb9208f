"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload untraced and traced through run.py, checks the result
line against BENCHMARK.json and that the traced run reaches every wrapped
call site the workload uses, shows that an edited certificate is counted as a
failed op, and that the harness refuses to run without the kcert sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics each workload must exercise: a wrapped call site that a
# change under src/ drops or renames would otherwise read 0 without notice.
EXERCISED = {
    "even-k4": ["spectral.norm_s", "spectral.dim", "kikuchi_even.build_s",
                "kikuchi_even.edges", "refuter.refute_self_s", "refuter.verify_self_s"],
    "odd-k3-semirandom": ["decomposition.groups_t1", "decomposition.groups_t2",
                          "kikuchi_odd.build_s", "kikuchi_odd.delete_s",
                          "kikuchi_odd.equalize_s", "kikuchi_odd.spectral_levels",
                          "spectral.norm_s"],
    "cover-find": ["core.min_even_cover_oracle_s", "kikuchi_even.build_s",
                   "kikuchi_even.cover_search_self_s", "kikuchi_even.walk_len"],
}


def run_bench(root: Path, workload: str, trace: int, workdir: Path):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
         "--workdir", str(workdir)],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_clean(workload, trace, tmp_path):
    proc = run_bench(ROOT, workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0
    if trace:
        assert "call sites not found" not in proc.stdout, proc.stdout
        unused = [name for name in EXERCISED[workload] if result["metrics"][name]["value"] <= 0]
        assert not unused, f"{workload} left these at 0: {unused}"


def test_edited_certificate_counts_as_failed_op(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from kcert.io import load_xor
    from kcert.refuter import certificate_to_json
    from perfbench.checks import Checker
    from perfbench.workloads import generate
    from perfbench.worker import Runner, refute_text, verify_text

    plan = generate("even-k4", 0, "tiny", tmp_path)
    inst = load_xor(tmp_path / plan["instances"][0])
    runner = Runner(tracer=None)
    good = runner.op("refute", 0, lambda: refute_text(inst, plan["params"]), 0.0)["output"]
    cert = json.loads(good)
    cert["certified_bound"] = "1/1000"
    edited = certificate_to_json(cert)
    runner.op("verify", 0, lambda: verify_text(inst, edited), 0.0)
    runner.op("verify", 0, lambda: verify_text(inst, good), 0.0)

    checker = Checker(plan, tmp_path)
    checker.check(runner.records, "smoke")
    assert (checker.attempted, checker.failed) == (3, 1)
    assert "op 1 verify" in checker.failures[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "even-k4", 0, tmp_path / "work")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
