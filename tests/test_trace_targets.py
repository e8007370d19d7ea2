"""The benchmark's span tracer (perfbench/tracing.py) wraps emgrid functions
by name. A renamed or deleted target would leave a layer untraced, so every
target must still resolve once all emgrid modules are imported; and a
method wrapped on one class must not reach another through inheritance."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import importlib, json, pkgutil, sys
import emgrid
for mod in pkgutil.iter_modules(emgrid.__path__):
    if mod.name != "__main__":
        importlib.import_module("emgrid." + mod.name)
sys.path.insert(0, "perfbench")
import tracing
missing = tracing.install(tracing.Tracer())
from emgrid import distinguishers
wrapped = {cls: sorted(name for name in dir(getattr(distinguishers, cls))
                       if hasattr(getattr(getattr(distinguishers, cls), name),
                                  "__wrapped__"))
           for cls in ("CpaAccumulator", "ClassCpaAccumulator")}
print(json.dumps({"missing": missing, "wrapped": wrapped}))
"""


@pytest.fixture(scope="module")
def installed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # A fresh interpreter: install() patches the loaded modules in place.
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_benchmark_trace_targets_resolve(installed):
    assert installed["missing"] == []


def test_class_cpa_calls_stay_out_of_gemm_counters(installed):
    """The distinguishers.cpa_* counters count the hypothesis GEMM path
    only: the first-round class-sum accumulator shares a base class with
    it, and none of its methods may come out wrapped."""
    assert installed["wrapped"] == {
        "CpaAccumulator": ["finalize", "update_batch"],
        "ClassCpaAccumulator": []}
