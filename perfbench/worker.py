"""One repetition of one workload, in a fresh interpreter.

run.py starts this script once per repetition, so every repetition pays the
interpreter start and the numpy/emgrid imports the way a user pays them on
each `emgrid` call. It imports emgrid from the checkout's src/, writes the
generated configs, calls `emgrid.cli.main(argv)` for each step, checks the
outputs and prints one JSON line with its timings, a SHA-256 over every
artifact and, when traced, the per-layer numbers.

    python3 perfbench/worker.py --root . --workload survey --seed 1 \
        --threads 2 --workdir .perfbench/w --spawn-time <time.monotonic()> \
        --trace 0

Exit code 3 means the imported emgrid is not the checkout's.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

EXIT_WRONG_EMGRID = 3


def _blas_record(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        lib = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        lib = "unknown"
    env = {k: os.environ.get(k, "unset") for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"library": lib, "thread_env": env}


def _digest(workdir: Path, skip) -> str:
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        if path.name in skip or not path.is_file():
            continue
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _run_step(cli_main, step, workdir: Path) -> dict:
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli_main(step.argv)
    except Exception:  # a traceback is a failed operation, not a crash
        rc = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    checks = []
    for check in step.checks if rc == 0 else ():
        try:
            ok, detail = check(workdir)
        except (OSError, ValueError, IndexError) as e:
            ok, detail = False, f"{type(e).__name__}: {e}"
        checks.append({"name": check.__name__, "ok": bool(ok),
                       "detail": detail})
    result = {"command": step.command, "argv": step.argv, "seconds": seconds,
              "rc": rc, "checks": checks}
    if rc != 0:
        result["stderr_tail"] = err.getvalue()[-2000:]
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawn-time", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy
    import emgrid
    import emgrid.cli
    if not Path(emgrid.__file__).resolve().is_relative_to(src):
        print(f"emgrid imported from {emgrid.__file__}, not from {src}",
              file=sys.stderr)
        return EXIT_WRONG_EMGRID

    from workloads import WORKLOADS
    plan = WORKLOADS[args.workload](args.seed, args.threads)
    workdir = Path(args.workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    for name, config in plan.configs.items():
        with open(workdir / name, "w") as f:
            json.dump(config, f, sort_keys=True)
    setup_s = time.monotonic() - args.spawn_time

    tracer = None
    missing = []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)

    os.chdir(workdir)
    t0 = time.perf_counter()
    steps = [_run_step(emgrid.cli.main, step, workdir) for step in plan.steps]
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "steps": steps,
        "digest": _digest(workdir, set(plan.configs)),
        "sizes": plan.sizes,
        "config_seeds": {name: c["seed"] for name, c in plan.configs.items()},
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "emgrid": str(Path(emgrid.__file__).parent),
                "blas": _blas_record(numpy)},
    }
    if tracer is not None:
        counts, seconds = tracing.layer_metrics(tracer.spans)
        out.update(counts=counts, layer_seconds=seconds,
                   missing_trace_targets=missing,
                   span_threads=len({s.tid for s in tracer.spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
