"""End-to-end acceptance checks for the grid side-channel toolkit.

Every test prints one `[ACCEPTANCE NN] name: PASS/FAIL` line; run with

    pytest tests/test_acceptance.py -v -s

The first three checks and the inverse-square check are self-contained
numerical properties.  The rest drive the command-line pipeline on frozen
simulation scenarios (seeds, geometry, amplitudes and budgets below were
frozen after the first verified seeded runs) and assert on the produced
artifacts.  The determinism check reruns the whole pipeline twice more and
compares artifact hashes.
"""
import contextlib
import hashlib
import io
import json
import math
import time

import numpy as np
import pytest

from emgrid.aes import aes128_decrypt, aes128_encrypt
from emgrid.cli import main
from emgrid.distinguishers import CpaAccumulator
from emgrid.heatmap import heatmap_from_csv
from emgrid.profiler import (CLASSIFIER_256, ProfilingModel,
                             StandardizationParams, classify_attack,
                             load_model)
from emgrid.traceset import TraceArrays, read_arrays

FIXED_KEY = "2b7e151628aed2a6abf7158809cf4f3c"

# ---------------------------------------------------------------- scenarios

# hot-spot search: a single source directly under the center of a 5x5 grid
C4_CONFIG = {
    "geometry": {"nx": 5, "ny": 5, "nz": 1, "step_mm": 0.5, "z_step_mm": 0.5,
                 "origin_mm": [0.0, 0.0, 0.2]},
    "m": 32, "seed": 4001,
    "traces_per_position": {"train": 10000},
    "device": {"noise_sigma": 0.5},
    "sources": [{"position_mm": [1.0, 1.0, 0.0], "sample_indices": [11],
                 "target": "FirstRoundSboxOutput", "byte_index": 0,
                 "amplitude": 0.02}],
}
C4_CENTER = 12

# key recovery: 16 single-sample sources under position 0; noise tuned so the
# per-trace SNR at each leak sample is exactly 0.1; position 1 sits 1.4 mm
# away.  Golden disclosure with Hamming-weight hypotheses: 1000 traces (the
# first checkpoint).
C5_CONFIG = {
    "geometry": {"nx": 2, "ny": 1, "nz": 1, "step_mm": 1.4, "z_step_mm": 0.5,
                 "origin_mm": [0.0, 0.0, 0.2]},
    "m": 1000, "seed": 5001,
    "traces_per_position": {"holdout": 5000},
    "fixed_key": FIXED_KEY,
    "device": {"noise_sigma": 1.118033988749895},
    "sources": [{"position_mm": [0.0, 0.0, 0.0],
                 "sample_indices": [20 + 60 * j],
                 "target": "FirstRoundSboxOutput", "byte_index": j,
                 "amplitude": 0.01} for j in range(16)],
}
C5_BUDGET = 5000
C5_GOLDEN_DISCLOSURE = 1000.0

# displacement resilience: a sharp local source right under the grid center
# (probe plane only 0.05 mm above it) plus a deep broad source visible from
# every cell.  The hot-spot model overfits the sharp peak; the multi-place
# model learns the broad component from every placement.
C6_CONFIG_A = {
    "geometry": {"nx": 3, "ny": 3, "nz": 1, "step_mm": 0.3, "z_step_mm": 0.3,
                 "origin_mm": [0.0, 0.0, 0.05]},
    "m": 48, "seed": 1001,
    "traces_per_position": {"train": 5000, "test": 800},
    "device": {"noise_sigma": 1.0},
    "sources": [
        {"position_mm": [0.3, 0.3, 0.0], "sample_indices": [10],
         "target": "FirstRoundSboxOutput", "byte_index": 0, "amplitude": 0.0095},
        {"position_mm": [0.3, 0.3, -0.7], "sample_indices": [20],
         "target": "FirstRoundSboxOutput", "byte_index": 0, "amplitude": 0.80},
    ],
}
C6_PERTURBATION = {"probe_origin_shift_mm": [0.075, 0.075, 0.0],
                   "gain_factor": 1.3, "extra_noise": 0.2}
C6_CENTER = 4

# interpolation: same extent sampled on a 3x finer xy lattice, test-only
C9_CONFIG = dict(C6_CONFIG_A)
C9_CONFIG["geometry"] = {"nx": 7, "ny": 7, "nz": 1, "step_mm": 0.1,
                         "z_step_mm": 0.3, "origin_mm": [0.0, 0.0, 0.05]}
C9_CONFIG["traces_per_position"] = {"test": 1024}
C9_CONFIG["seed"] = 2002

# hybrid amplifier: 16 last-round HD sources, each smeared over its own block
# of 176 samples at an amplitude low enough that single-sample CPA stays lost
# within the budget while the regressor's 16-sample pseudo-trace discloses.
C7_K = 176
C7_M = 16 * C7_K
C7_SOURCES = [{"position_mm": [0.0, 0.0, 0.0],
               "sample_indices": list(range(j * C7_K, (j + 1) * C7_K)),
               "target": "LastRoundHDTrue", "byte_index": j,
               "amplitude": 1.267e-3} for j in range(16)]
C7_TRAIN_CONFIG = {
    "geometry": {"nx": 1, "ny": 1, "nz": 1, "step_mm": 0.5, "z_step_mm": 0.5,
                 "origin_mm": [0.0, 0.0, 0.2]},
    "m": C7_M, "seed": 3001,
    "traces_per_position": {"train": 24000, "test": 1000},
    "device": {"noise_sigma": 1.0},
    "sources": C7_SOURCES,
}
C7_ATTACK_CONFIG = {
    "geometry": C7_TRAIN_CONFIG["geometry"],
    "m": C7_M, "seed": 3002,
    "traces_per_position": {"holdout": 2000},
    "fixed_key": FIXED_KEY,
    "device": {"noise_sigma": 1.0},
    "sources": C7_SOURCES,
}
C7_BUDGET = 250

# inverse square: identical seeds, probe height 0.25 mm vs 0.5 mm
def _c8_config(z: float) -> dict:
    return {
        "geometry": {"nx": 1, "ny": 1, "nz": 1, "step_mm": 0.5,
                     "z_step_mm": 0.5, "origin_mm": [0.0, 0.0, z]},
        "m": 8, "seed": 8001,
        "traces_per_position": {"train": 4},
        "device": {"noise_sigma": 0.0},
        "sources": [{"position_mm": [0.0, 0.0, 0.0], "sample_indices": [3],
                     "target": "FirstRoundSboxOutput", "byte_index": 0,
                     "amplitude": 0.01}],
    }


# ---------------------------------------------------------------- pipeline

def _cli(*argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    assert rc == 0, f"cli {argv[0]} exited {rc}:\n{err.getvalue()[-2000:]}"


def _write_config(root, name: str, config: dict) -> str:
    path = root / name
    with open(path, "w") as f:
        json.dump(config, f, sort_keys=True)
    return str(path)


def run_pipeline(root, threads: int) -> dict:
    """Produce every pipeline artifact under root; return hashes and stage
    wall times.  All randomness is seeded, so artifact bytes must not depend
    on threads or repetition."""
    t = str(threads)
    times = {}
    artifacts = []

    def art(name):
        artifacts.append(name)
        return str(root / name)

    # hot-spot search
    t0 = time.monotonic()
    _cli("simulate", "--config", _write_config(root, "c4.json", C4_CONFIG),
         "--out", art("c4.emgd"), "--threads", t)
    _cli("snr", "--in", root / "c4.emgd", "--target", "sbox-output",
         "--byte", "0", "--split", "train",
         "--out-heatmap", art("c4_snr.csv"), "--threads", t)
    times["c4"] = time.monotonic() - t0

    # hot-spot vs corner key recovery
    t0 = time.monotonic()
    _cli("simulate", "--config", _write_config(root, "c5.json", C5_CONFIG),
         "--out", art("c5.emgd"), "--threads", t)
    _cli("cpa", "--in", root / "c5.emgd", "--target", "sbox-output",
         "--split", "holdout", "--budget", C5_BUDGET, "--checkpoint", 1000,
         "--out-disclosure", art("c5_disclosure.csv"),
         "--out-ranks", art("c5_ranks.csv"), "--threads", t)
    times["c5"] = time.monotonic() - t0

    # hot-spot vs multi-place on a displaced device
    t0 = time.monotonic()
    config_b = dict(C6_CONFIG_A)
    config_b["perturbation"] = C6_PERTURBATION
    _cli("simulate", "--config", _write_config(root, "c6_devA.json", C6_CONFIG_A),
         "--out", art("c6_devA.emgd"), "--threads", t)
    _cli("simulate", "--config", _write_config(root, "c6_devB.json", config_b),
         "--out", art("c6_devB.emgd"), "--threads", t)
    _cli("train", "--in", root / "c6_devA.emgd", "--mode", "single",
         "--positions", C6_CENTER, "--target", "sbox-output", "--byte", "0",
         "--epochs", 30, "--seed", 5, "--out-model", art("c6_hot.emmod"))
    # scouting pass over every placement; its mean-rank map drives the
    # threshold selection for the final multi-place model
    _cli("train", "--in", root / "c6_devA.emgd", "--mode", "all",
         "--data-cap", 9000, "--target", "sbox-output", "--byte", "0",
         "--epochs", 30, "--seed", 5, "--out-model", art("c6_probe.emmod"))
    _cli("evaluate", "--model", root / "c6_probe.emmod",
         "--in", root / "c6_devA.emgd", "--split", "test",
         "--target", "sbox-output", "--out-heatmap", art("c6_probeA.csv"),
         "--threads", t)
    _cli("train", "--in", root / "c6_devA.emgd", "--mode", "multiplace",
         "--heatmap", root / "c6_probeA.csv", "--threshold", 120,
         "--data-cap", 9000, "--target", "sbox-output", "--byte", "0",
         "--epochs", 30, "--seed", 5, "--out-model", art("c6_multi.emmod"))
    for model, data, out in (("c6_hot.emmod", "c6_devA.emgd", "c6_hotA.csv"),
                             ("c6_multi.emmod", "c6_devA.emgd", "c6_multiA.csv"),
                             ("c6_hot.emmod", "c6_devB.emgd", "c6_hotB.csv"),
                             ("c6_multi.emmod", "c6_devB.emgd", "c6_multiB.csv")):
        _cli("evaluate", "--model", root / model, "--in", root / data,
             "--split", "test", "--target", "sbox-output",
             "--out-heatmap", art(out), "--threads", t)
    _cli("render", "--csv", root / "c6_multiB.csv", "--svg",
         art("c6_multiB.svg"), "--metric", "mean_rank",
         "--mask-threshold", 120)
    times["c6"] = time.monotonic() - t0

    # the multi-place model on the finer lattice
    t0 = time.monotonic()
    _cli("simulate", "--config", _write_config(root, "c9_fine.json", C9_CONFIG),
         "--out", art("c9_fine.emgd"), "--threads", t)
    _cli("evaluate", "--model", root / "c6_multi.emmod",
         "--in", root / "c9_fine.emgd", "--split", "test",
         "--target", "sbox-output", "--out-heatmap", art("c9_multi_fine.csv"),
         "--threads", t)
    times["c9"] = time.monotonic() - t0

    # hybrid amplifier: raw CPA baseline, regressor training, hybrid attack
    t0 = time.monotonic()
    _cli("simulate", "--config",
         _write_config(root, "c7_train.json", C7_TRAIN_CONFIG),
         "--out", art("c7_train.emgd"), "--threads", t)
    _cli("simulate", "--config",
         _write_config(root, "c7_attack.json", C7_ATTACK_CONFIG),
         "--out", art("c7_attack.emgd"), "--threads", t)
    _cli("cpa", "--in", root / "c7_attack.emgd", "--target", "last-round-hd",
         "--split", "holdout", "--budget", C7_BUDGET, "--checkpoint", 50,
         "--out-disclosure", art("c7_raw_disclosure.csv"),
         "--out-ranks", art("c7_raw_ranks.csv"), "--threads", t)
    _cli("train", "--in", root / "c7_train.emgd", "--mode", "single",
         "--positions", 0, "--model-kind", "hd-regressor",
         "--lr", 0.005, "--batch-size", 1024, "--epochs", 20, "--steps", 200,
         "--seed", 7, "--out-model", art("c7_regressor.emmod"))
    _cli("hybrid", "--model", root / "c7_regressor.emmod",
         "--in", root / "c7_attack.emgd", "--split", "holdout",
         "--budget", C7_BUDGET, "--checkpoint", 50,
         "--out-disclosure", art("c7_hybrid_disclosure.csv"),
         "--out-ranks", art("c7_hybrid_ranks.csv"), "--threads", t)
    times["c7"] = time.monotonic() - t0

    # inverse-square probe pair
    t0 = time.monotonic()
    for tag, z in (("near", 0.25), ("far", 0.5)):
        _cli("simulate", "--config",
             _write_config(root, f"c8_{tag}.json", _c8_config(z)),
             "--out", art(f"c8_{tag}.emgd"), "--threads", t)
    times["c8"] = time.monotonic() - t0

    hashes = {}
    for name in artifacts:
        with open(root / name, "rb") as f:
            hashes[name] = hashlib.sha256(f.read()).hexdigest()
    return {"root": root, "hashes": hashes, "times": times}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("accept-run1"), threads=1)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _grid(path) -> np.ndarray:
    with open(path) as f:
        return heatmap_from_csv(f.read())


# ---------------------------------------------------------------- criteria

def test_criterion_01_random_baseline():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    n, m = 12000, 4
    arrays = TraceArrays(
        samples=rng.normal(size=(n, m)).astype(np.float32),
        keys=np.zeros((n, 16), dtype=np.uint8),
        plaintexts=rng.integers(0, 256, (n, 16), dtype=np.uint8),
        ciphertexts=np.zeros((n, 16), dtype=np.uint8),
        positions=np.zeros(n, dtype=np.int32),
        splits=np.zeros(n, dtype=np.uint8))
    uniform = ProfilingModel(CLASSIFIER_256, np.zeros((256, m)),
                             np.zeros(256),
                             StandardizationParams(np.zeros(m), np.ones(m)))
    labels = rng.integers(0, 256, n)
    mean, ranks = classify_attack(uniform, arrays, labels)
    elapsed = time.monotonic() - t0
    _report(1, "random baseline rank",
            mean == 127.5 and bool((ranks == 127.5).all()) and elapsed < 5.0,
            f"mean={mean} over {n} traces, {elapsed:.2f}s")


def test_criterion_02_streaming_cpa_equals_two_pass():
    t0 = time.monotonic()
    rng = np.random.default_rng(22)
    n, m = 1000, 500
    X = rng.normal(size=(n, m))
    H = rng.integers(0, 9, size=(256, n)).astype(np.float64)

    Hc = H - H.mean(axis=1, keepdims=True)
    Xc = X - X.mean(axis=0, keepdims=True)
    two_pass = (Hc @ Xc) / np.sqrt(
        np.outer((Hc ** 2).sum(axis=1), (Xc ** 2).sum(axis=0)))

    acc = CpaAccumulator(m)
    for start in range(0, n, 128):
        sl = slice(start, min(start + 128, n))
        acc.update_batch(H[:, sl], X[sl])
    streamed = acc.finalize().corr
    stream_ok = np.allclose(streamed, two_pass, rtol=1e-9, atol=1e-12)

    merge_ok = True
    for k in (2, 3, 7):
        cuts = np.linspace(0, n, k + 1, dtype=int)
        merged = CpaAccumulator(m)
        for a, b in zip(cuts[:-1], cuts[1:]):
            part = CpaAccumulator(m)
            part.update_batch(H[:, a:b], X[a:b])
            merged.merge(part)
        merge_ok &= np.allclose(merged.finalize().corr, streamed,
                                rtol=1e-12, atol=1e-15)
    elapsed = time.monotonic() - t0
    _report(2, "streaming CPA correctness",
            stream_ok and merge_ok and elapsed < 10.0,
            f"two-pass rtol 1e-9, k-way merges rtol 1e-12, {elapsed:.2f}s")


def test_criterion_03_aes_reference():
    t0 = time.monotonic()
    key = bytes(range(16))
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    fips_ok = aes128_encrypt(pt, key).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
    rng = np.random.default_rng(33)
    round_trip_ok = True
    for _ in range(1000):
        k = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
        p = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
        round_trip_ok &= aes128_decrypt(aes128_encrypt(p, k), k) == p
    elapsed = time.monotonic() - t0
    _report(3, "block cipher correctness",
            fips_ok and round_trip_ok and elapsed < 5.0,
            f"FIPS vector plus 1000 round trips, {elapsed:.2f}s")


def test_criterion_04_snr_hot_spot_search(pipeline):
    grid = _grid(pipeline["root"] / "c4_snr.csv")
    argmax = int(np.argmax(grid.ravel()))
    elapsed = pipeline["times"]["c4"]
    _report(4, "SNR grid search finds the hot-spot",
            argmax == C4_CENTER and elapsed < 120.0,
            f"argmax={argmax} (center={C4_CENTER}), peak={grid.ravel()[argmax]:.2f}, "
            f"{elapsed:.1f}s")


def test_criterion_05_cpa_key_recovery(pipeline):
    disc = _grid(pipeline["root"] / "c5_disclosure.csv").ravel()
    ranks = _grid(pipeline["root"] / "c5_ranks.csv").ravel()
    elapsed = pipeline["times"]["c5"]
    _report(5, "CPA discloses at the hot-spot only",
            disc[0] == C5_GOLDEN_DISCLOSURE and disc[0] <= C5_BUDGET
            and math.isinf(disc[1]) and ranks[0] == 0.0 and elapsed < 300.0,
            f"hot-spot={disc[0]:.0f} of {C5_BUDGET}, corner={disc[1]}, "
            f"{elapsed:.1f}s")


def test_criterion_06_multiplace_resilience(pipeline):
    root = pipeline["root"]
    hot_a = _grid(root / "c6_hotA.csv")
    multi_a = _grid(root / "c6_multiA.csv")
    hot_b = _grid(root / "c6_hotB.csv")
    multi_b = _grid(root / "c6_multiB.csv")
    fraction = float(np.mean(multi_b <= hot_b))
    hot_center = float(hot_a[1, 1])
    multi_center = float(multi_a[1, 1])
    elapsed = pipeline["times"]["c6"]
    _report(6, "multi-place beats hot-spot under displacement",
            fraction >= 0.70 and hot_center < multi_center and elapsed < 900.0,
            f"fraction={fraction:.2f}, undisplaced center hot={hot_center:.1f} "
            f"vs multi={multi_center:.1f}, {elapsed:.1f}s")


def test_criterion_07_hybrid_amplifier(pipeline):
    root = pipeline["root"]
    raw_rank = float(_grid(root / "c7_raw_ranks.csv")[0, 0])
    raw_disc = float(_grid(root / "c7_raw_disclosure.csv")[0, 0])
    hyb_disc = float(_grid(root / "c7_hybrid_disclosure.csv")[0, 0])
    elapsed = pipeline["times"]["c7"]
    _report(7, "regressor-fed CPA amplifies a lost raw attack",
            raw_rank > 100.0 and math.isfinite(hyb_disc)
            and hyb_disc <= C7_BUDGET and elapsed < 1200.0,
            f"raw avg rank={raw_rank:.1f} (disclosure={raw_disc}), "
            f"hybrid discloses at {hyb_disc:.0f} of {C7_BUDGET}, {elapsed:.1f}s")


def test_criterion_08_inverse_square_law(pipeline):
    root = pipeline["root"]
    _, near = read_arrays(root / "c8_near.emgd")
    _, far = read_arrays(root / "c8_far.emgd")
    same_inputs = bool((near.plaintexts == far.plaintexts).all())
    ratio = near.samples[:, 3].astype(np.float64) / far.samples[:, 3].astype(np.float64)
    elapsed = pipeline["times"]["c8"]
    _report(8, "inverse-square amplitude falloff",
            same_inputs and bool((ratio == 4.0).all()) and elapsed < 1.0,
            f"d=0.25mm vs 0.5mm, ratios={sorted(set(ratio.tolist()))}, "
            f"{elapsed:.2f}s")


def _connected_4(cells: set) -> bool:
    if not cells:
        return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        x, y = stack.pop()
        if (x, y) in seen:
            continue
        seen.add((x, y))
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if (nx, ny) in cells and (nx, ny) not in seen:
                stack.append((nx, ny))
    return seen == cells


def test_criterion_09_interpolation_smoothness(pipeline):
    root = pipeline["root"]
    fine = _grid(root / "c9_multi_fine.csv")
    region = {(x, y) for y in range(fine.shape[0]) for x in range(fine.shape[1])
              if fine[y, x] <= 120.0}
    connected = _connected_4(region)
    trained = load_model(str(root / "c6_multi.emmod")).positions
    mapped = {(3 * (p % 3), 3 * (p // 3)) for p in trained}
    contained = mapped <= region
    elapsed = pipeline["times"]["c9"]
    _report(9, "fine-grid rank surface is smooth",
            connected and contained and elapsed < 600.0,
            f"below-120 region {len(region)}/49 cells, 4-connected={connected}, "
            f"{len(mapped)} training cells contained, {elapsed:.1f}s")


def test_criterion_10_determinism(pipeline, tmp_path_factory):
    run2 = run_pipeline(tmp_path_factory.mktemp("accept-run2"), threads=1)
    run3 = run_pipeline(tmp_path_factory.mktemp("accept-run3"), threads=8)
    h1, h2, h3 = pipeline["hashes"], run2["hashes"], run3["hashes"]
    rerun_ok = h1 == h2
    threads_ok = h1 == h3
    _report(10, "artifact hashes are deterministic",
            rerun_ok and threads_ok and len(h1) >= 20,
            f"{len(h1)} artifacts, rerun match={rerun_ok}, "
            f"threads 1 vs 8 match={threads_ok}")
