"""emgrid benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 44 --trace 0

Run from anywhere inside a checkout; the checkout root is the parent of this
directory. Each repetition is one fresh Python process (worker.py) that runs
the workload's whole emgrid CLI sequence, so the printed values are medians
over the repetitions that fit in --seconds.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced repetitions and prints the per-layer
metrics: span-derived numbers from the traced ones, `cli.<cmd>_s` from the
untraced ones, and their difference as `trace.overhead_s`.

The last stdout line is the result object; the line before it records the
environment, sizes, seeds and the artifact digest. Exit code 2 means the
checkout holds no emgrid source to measure, 1 that the benchmark itself
failed; neither prints a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKDIR = ROOT / ".perfbench"

MIN_REPS = 3           # untraced repetitions per run, whatever --seconds says
MIN_TRACED_REPS = 2    # per kind in a traced run
HARD_LIMIT_S = 70.0    # stop starting repetitions after this long
REP_TIMEOUT_S = 100.0  # keeps a hung repetition inside the 180 s run limit

ANALYSIS_COMMANDS = ("snr", "cpa", "train", "evaluate", "hybrid", "render")
CLI_COMMANDS = ("simulate",) + ANALYSIS_COMMANDS


class BenchError(Exception):
    """The benchmark could not measure; no result may be printed."""

    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def _run_rep(workload, seed, threads, traced, index) -> dict:
    workdir = WORKDIR / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    argv = [sys.executable, str(WORKER), "--root", str(ROOT),
            "--workload", workload, "--seed", str(seed),
            "--threads", str(threads), "--workdir", str(workdir),
            "--trace", "1" if traced else "0"]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--spawn-time", repr(time.monotonic())],
                              capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"repetition {index} exceeded {REP_TIMEOUT_S} s") from e
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode == 3:
        raise BenchError(proc.stderr.strip(), code=2)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["elapsed"] = time.monotonic() - t0
    rep["traced"] = traced
    return rep


def _schedule(workload, seed, seconds, threads, trace) -> list:
    """Run repetitions until the next one would overrun --seconds. A traced
    run alternates untraced and traced repetitions."""
    reps = []
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        same = [r["elapsed"] for r in reps if r["traced"] == traced]
        enough = (len(same) >= MIN_TRACED_REPS) if trace else \
            (len(reps) >= MIN_REPS)
        elapsed = time.monotonic() - start
        if enough and (elapsed + statistics.median(same) > seconds
                       or elapsed > HARD_LIMIT_S):
            return reps
        reps.append(_run_rep(workload, seed, threads, traced, len(reps)))


def _ops(reps):
    attempted = failed = 0
    failures = []
    for rep in reps:
        for step in rep["steps"]:
            attempted += 1
            bad = [c for c in step["checks"] if not c["ok"]]
            if step["rc"] != 0 or bad:
                failed += 1
                failures.append({"command": step["command"], "rc": step["rc"],
                                 "checks": bad,
                                 "stderr_tail": step.get("stderr_tail", "")})
    return attempted, failed, failures


def _command_seconds(rep) -> dict:
    out = dict.fromkeys(CLI_COMMANDS, 0.0)
    for step in rep["steps"]:
        out[step["command"]] += step["seconds"]
    return out


def _end_to_end_samples(reps) -> dict:
    """Per-repetition values of each end-to-end metric, in run order."""
    return {
        "wall_s": [r["wall_s"] for r in reps],
        "simulate_s": [_command_seconds(r)["simulate"] for r in reps],
        "analysis_s": [sum(_command_seconds(r)[c] for c in ANALYSIS_COMMANDS)
                       for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def _per_layer(untraced, traced) -> tuple:
    """Per-layer values plus a list of counts that differed between traced
    repetitions of one seed (they must not)."""
    values = {}
    counts = traced[0]["counts"]
    unstable = sorted({k for r in traced[1:] for k in counts
                       if r["counts"].get(k) != counts[k]})
    values.update(counts)
    for key in traced[0]["layer_seconds"]:
        values[key] = statistics.median(r["layer_seconds"][key] for r in traced)
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}_s"] = statistics.median(
            _command_seconds(r)[cmd] for r in untraced)
    values["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced))
    return values, unstable


def measure(workload, seed, seconds, trace) -> tuple:
    """Returns (record, result): the environment/provenance record and the
    result object printed as the last line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    threads = len(os.sched_getaffinity(0))
    reps = _schedule(workload, seed, seconds, threads, trace)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    attempted, failed, failures = _ops(reps)
    digests = sorted({r["digest"] for r in reps})
    unstable = []
    if trace:
        values, unstable = _per_layer(untraced, traced)
    else:
        samples = _end_to_end_samples(untraced)
        values = {k: statistics.median(v) for k, v in samples.items()}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "threads": threads, "nproc": threads,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "ops": {"attempted": attempted, "failed": failed,
                "per_repetition": len(reps[0]["steps"])},
        "digest": digests[0] if len(digests) == 1 else digests,
        "sizes": reps[0]["sizes"],
        "argv": [step["argv"] for step in reps[0]["steps"]],
        "config_seeds": reps[0]["config_seeds"],
        "env": reps[0]["env"],
        "failures": failures,
    }
    if not trace:
        record["samples"] = samples
    else:
        record["unstable_counts"] = unstable
        record["missing_trace_targets"] = traced[0]["missing_trace_targets"]
        record["span_threads"] = max(r["span_threads"] for r in traced)
    result = {
        "correct": failed == 0 and len(digests) == 1 and not unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    return record, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "emgrid" / "__init__.py").is_file():
        print(f"no emgrid source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record, result = measure(args.workload, args.seed, args.seconds,
                                 args.trace)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return e.code
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
