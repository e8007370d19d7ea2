"""Self-test of the benchmark: traced runs repeat their counts and digest.

    python3 -m pytest perfbench/test_perfbench.py

Two traced runs of one seed must report identical per-layer counts (they are
derived from shapes and file sizes, never from clocks) and one SHA-256 over
all artifacts. Each run is as short as run.py allows: two untraced and two
traced repetitions.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "bytes"}
LAYERS = ("simulator", "aes", "traceset", "leakage", "distinguishers",
          "profiler", "evaluation", "heatmap", "cli")


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _traced(workload, seed):
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_runs_repeat_counts_and_digest(workload):
    (rec_a, res_a), (rec_b, res_b) = _traced(workload, 5), _traced(workload, 5)
    for rec, res in ((rec_a, res_a), (rec_b, res_b)):
        assert res["correct"] and res["failed"] == 0, rec["failures"]
        assert rec["unstable_counts"] == [] and rec["missing_trace_targets"] == []
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert isinstance(rec_a["digest"], str) and rec_a["digest"] == rec_b["digest"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
    assert {k: res_a["metrics"][k]["value"] for k in counts} == \
        {k: res_b["metrics"][k]["value"] for k in counts}
    for layer in LAYERS:
        assert any(k.startswith(layer + ".") and k.endswith("_s")
                   for k in res_a["metrics"]), layer
    assert "trace.overhead_s" in res_a["metrics"]


def test_refuses_checkout_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "survey", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
