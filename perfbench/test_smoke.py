"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", "smoke", "--seed", "3", "--seconds", "0.2", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_printed_with_its_unit():
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        out = result(bench("--trace", trace))
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {name: m["unit"] for name, m in out["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], float)
                   for m in out["metrics"].values())


def test_wrong_pinned_witness_counts_as_failure():
    import run
    cli = run.prepare().cli
    pins = copy.deepcopy(run.load_pins())
    pin = pins["prop"]["nj_symmetric M(2, Z(2))"]
    assert pin["witness"] is not None
    pin["witness"]["a"] += 1
    ops = [op for op in run.WORKLOADS["smoke"] if op["kind"] == "prop"]
    _, _, records = run.run_pass(cli, ops, pins, None, 0, time.perf_counter())
    errors = {r["key"]: r["error"] for r in records}
    assert errors["nj_symmetric M(2, Z(2))"].startswith("expected ")
    assert errors["symmetric Z(4)"] is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  ".pytest_cache"))
    proc = bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
