"""The benchmark's span tracer (perfbench/tracing.py) wraps emgrid functions
by name. A renamed or deleted target would leave a layer untraced, so every
target must still resolve once all emgrid modules are imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import importlib, json, pkgutil, sys
import emgrid
for mod in pkgutil.iter_modules(emgrid.__path__):
    if mod.name != "__main__":
        importlib.import_module("emgrid." + mod.name)
sys.path.insert(0, "perfbench")
import tracing
print(json.dumps(tracing.install(tracing.Tracer())))
"""


def test_benchmark_trace_targets_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # A fresh interpreter: install() patches the loaded modules in place.
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
