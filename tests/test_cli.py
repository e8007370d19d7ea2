"""Command-line pipeline tests: subcommand wiring, exit codes, JSON-line
logging, and byte-level determinism of every artifact."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from emgrid.aes import aes128_encrypt, encrypt_blocks, expand_keys_batch
from emgrid.cli import main
from emgrid.grid import GridGeometry
from emgrid.heatmap import heatmap_from_csv
from emgrid.leakage import true_last_round_hds
from emgrid.profiler import (
    CLASSIFIER_256,
    HD_REGRESSOR_16,
    ProfilingModel,
    StandardizationParams,
    load_model,
    save_model,
    select_leaky_positions,
)
from emgrid.traceset import (
    SPLIT_HOLDOUT,
    DatasetHeader,
    TraceRecord,
    read_header,
    write_dataset,
)

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stderr JSON events)."""
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    events = [json.loads(line) for line in err.splitlines() if line.strip()]
    return code, events


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def sim_config(workdir):
    cfg = {
        "geometry": {"nx": 2, "ny": 1, "nz": 1, "step_mm": 0.5,
                     "z_step_mm": 0.5, "origin_mm": [0.0, 0.0, 0.2]},
        "m": 12,
        "seed": 11,
        "fixed_key": KEY.hex(),
        "traces_per_position": {"train": 300, "test": 150, "holdout": 100},
        "device": {"noise_sigma": 0.05},
        "sources": [
            {"position_mm": [0.0, 0.0, 0.0], "sample_indices": [5],
             "target": "FirstRoundSboxOutput", "byte_index": 0,
             "amplitude": 0.05},
        ],
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def dataset(workdir, sim_config):
    out = workdir / "sim.emgd"
    code = main(["simulate", "--config", str(sim_config), "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def hd_dataset(workdir):
    """Hand-built 1x1 dataset whose samples are the 16 true last-round HDs:
    an identity regressor (or raw CPA) recovers the key immediately."""
    rng = np.random.default_rng(99)
    n = 700
    pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    keys = np.tile(np.frombuffer(KEY, dtype=np.uint8), (n, 1))
    cts, s9 = encrypt_blocks(pts, expand_keys_batch(keys),
                             return_round9_state=True)
    hds = true_last_round_hds(cts, s9).astype(np.float32)
    geometry = GridGeometry(1, 1, 1, 0.5, 0.5, (0.0, 0.0, 0.0))
    header = DatasetHeader(geometry=geometry, m=16, trace_count=n,
                           description="true-HD fixture", adc_bits=0)
    records = (TraceRecord(0, SPLIT_HOLDOUT, KEY, pts[i].tobytes(),
                           cts[i].tobytes(), hds[i]) for i in range(n))
    path = workdir / "hd.emgd"
    write_dataset(header, records, path)
    return path


# ---------------------------------------------------------------- simulate

def test_simulate_writes_dataset_matching_config(dataset, sim_config):
    header = read_header(dataset)
    assert header.m == 12
    assert header.trace_count == 2 * (300 + 150 + 100)
    assert header.geometry.nx == 2 and header.geometry.ny == 1


def test_simulate_missing_config_exit_2(capsys, workdir):
    code, events = run(capsys, "simulate", "--config", workdir / "none.json",
                       "--out", workdir / "x.emgd")
    assert code == 2
    assert events[-1]["event"] == "error"
    assert "not found" in events[-1]["message"]


def test_simulate_bad_config_exit_2(capsys, workdir):
    bad = workdir / "bad.json"
    bad.write_text("{\"m\": 4}")  # no geometry
    code, events = run(capsys, "simulate", "--config", bad,
                       "--out", workdir / "x.emgd")
    assert code == 2
    assert events[-1]["kind"] == "ConfigError"


def test_simulate_deterministic_and_seed_sensitive(capsys, workdir, sim_config,
                                                   dataset):
    again = workdir / "again.emgd"
    code, _ = run(capsys, "simulate", "--config", sim_config, "--out", again)
    assert code == 0
    assert sha256(again) == sha256(dataset)
    reseeded = workdir / "reseeded.emgd"
    code, _ = run(capsys, "simulate", "--config", sim_config, "--out", reseeded,
                  "--seed", 12)
    assert code == 0
    assert sha256(reseeded) != sha256(dataset)


# --------------------------------------------------------------------- snr

def test_snr_csv_and_threads_determinism(capsys, workdir, dataset):
    out1 = workdir / "snr1.csv"
    out8 = workdir / "snr8.csv"
    code, events = run(capsys, "snr", "--in", dataset, "--target", "sbox-output",
                       "--byte", 0, "--out-heatmap", out1)
    assert code == 0
    assert [e["position"] for e in events if e["event"] == "position"] == [0, 1]
    grid = heatmap_from_csv(out1.read_text())
    assert grid.shape == (1, 2)
    assert grid[0, 0] > grid[0, 1]  # source sits under position 0
    code, _ = run(capsys, "snr", "--in", dataset, "--target", "sbox-output",
                  "--byte", 0, "--out-heatmap", out8, "--threads", 8)
    assert code == 0
    assert sha256(out1) == sha256(out8)


def test_snr_empty_dataset_exit_2(capsys, workdir):
    geometry = GridGeometry(1, 1, 1, 0.5, 0.5, (0.0, 0.0, 0.0))
    header = DatasetHeader(geometry=geometry, m=4, trace_count=0,
                           description="", adc_bits=0)
    path = workdir / "empty.emgd"
    write_dataset(header, iter(()), path)
    code, events = run(capsys, "snr", "--in", path, "--target", "sbox-input",
                       "--byte", 0, "--out-heatmap", workdir / "e.csv")
    assert code == 2
    assert events[-1]["kind"] == "ConfigError"


def test_missing_dataset_exit_1(capsys, workdir):
    code, events = run(capsys, "snr", "--in", workdir / "nope.emgd",
                       "--target", "sbox-input", "--byte", 0,
                       "--out-heatmap", workdir / "x.csv")
    assert code == 1
    assert events[-1]["event"] == "error"


def test_corrupt_dataset_exit_1(capsys, workdir, dataset):
    corrupt = workdir / "corrupt.emgd"
    corrupt.write_bytes(b"JUNKJUNKJUNK")
    code, events = run(capsys, "snr", "--in", corrupt, "--target", "sbox-input",
                       "--byte", 0, "--out-heatmap", workdir / "x.csv")
    assert code == 1
    assert events[-1]["kind"] == "DataFormatError"


# --------------------------------------------------------------------- cpa

def test_cpa_discloses_on_hd_fixture(capsys, workdir, hd_dataset):
    discl = workdir / "cpa_d.csv"
    ranks = workdir / "cpa_r.csv"
    code, _ = run(capsys, "cpa", "--in", hd_dataset, "--checkpoint", 200,
                  "--out-disclosure", discl, "--out-ranks", ranks)
    assert code == 0
    assert heatmap_from_csv(discl.read_text())[0, 0] == 200
    assert heatmap_from_csv(ranks.read_text())[0, 0] == 0


def test_cpa_budget_zero_all_infinite(capsys, workdir, hd_dataset):
    discl = workdir / "cpa_b0_d.csv"
    ranks = workdir / "cpa_b0_r.csv"
    code, _ = run(capsys, "cpa", "--in", hd_dataset, "--budget", 0,
                  "--out-disclosure", discl, "--out-ranks", ranks)
    assert code == 0
    assert math.isinf(heatmap_from_csv(discl.read_text())[0, 0])


def test_cpa_mixed_keys_exit_3(capsys, workdir):
    rng = np.random.default_rng(5)
    n = 40
    pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    keys = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    geometry = GridGeometry(1, 1, 1, 0.5, 0.5, (0.0, 0.0, 0.0))
    header = DatasetHeader(geometry=geometry, m=4, trace_count=n,
                           description="", adc_bits=0)
    records = (TraceRecord(0, SPLIT_HOLDOUT, keys[i].tobytes(),
                           pts[i].tobytes(),
                           aes128_encrypt(pts[i].tobytes(), keys[i].tobytes()),
                           rng.normal(size=4).astype(np.float32))
               for i in range(n))
    path = workdir / "mixed.emgd"
    write_dataset(header, records, path)
    code, events = run(capsys, "cpa", "--in", path,
                       "--out-disclosure", workdir / "m_d.csv",
                       "--out-ranks", workdir / "m_r.csv")
    assert code == 3
    assert "fixed" in events[-1]["message"]


# ------------------------------------------------------------------- train

def test_train_single_writes_model_and_history(capsys, workdir, dataset):
    out = workdir / "single.emmod"
    code, events = run(capsys, "train", "--in", dataset, "--mode", "single",
                       "--positions", 0, "--target", "sbox-output",
                       "--epochs", 3, "--steps", 20, "--seed", 4,
                       "--out-model", out)
    assert code == 0
    epochs = [e for e in events if e["event"] == "epoch"]
    assert len(epochs) == 3
    assert all("val_mean_rank" in e for e in epochs)
    model = load_model(out)
    assert model.kind == CLASSIFIER_256
    assert model.positions == (0,)
    done = [e for e in events if e["event"] == "model"][0]
    assert done["traces"] == 300


def test_train_single_needs_one_position(capsys, workdir, dataset):
    code, events = run(capsys, "train", "--in", dataset, "--mode", "single",
                       "--positions", 0, 1, "--out-model", workdir / "x.emmod")
    assert code == 2


def test_train_multiplace_threshold_selection(capsys, workdir, dataset):
    ranks_csv = workdir / "sel.csv"
    ranks_csv.write_text("y\\x,0,1\n0,95.25,126\n")
    out = workdir / "multi.emmod"
    code, events = run(capsys, "train", "--in", dataset, "--mode", "multiplace",
                       "--heatmap", ranks_csv, "--threshold", 120,
                       "--target", "sbox-output", "--epochs", 2, "--steps", 10,
                       "--out-model", out)
    assert code == 0
    selected = [e for e in events if e["event"] == "selected"][0]
    values = heatmap_from_csv(ranks_csv.read_text()).ravel()
    assert selected["positions"] == sorted(select_leaky_positions(values, 120.0))
    assert selected["positions"] == [0]


def test_train_multiplace_no_selection_exit_3(capsys, workdir, dataset):
    ranks_csv = workdir / "none_sel.csv"
    ranks_csv.write_text("y\\x,0,1\n0,127.5,127.5\n")
    code, events = run(capsys, "train", "--in", dataset, "--mode", "multiplace",
                       "--heatmap", ranks_csv, "--out-model", workdir / "x.emmod")
    assert code == 3


def test_train_topn_and_data_cap(capsys, workdir, dataset):
    ranks_csv = workdir / "topn.csv"
    ranks_csv.write_text("y\\x,0,1\n0,110,100\n")
    out = workdir / "topn.emmod"
    code, events = run(capsys, "train", "--in", dataset, "--mode", "topn",
                       "--heatmap", ranks_csv, "--n", 2, "--data-cap", 450,
                       "--target", "sbox-output", "--epochs", 2, "--steps", 10,
                       "--out-model", out)
    assert code == 0
    selected = [e for e in events if e["event"] == "selected"][0]
    assert selected["positions"] == [1, 0]  # best-first
    done = [e for e in events if e["event"] == "model"][0]
    assert done["traces"] == 450  # 600 train traces capped


def test_train_hd_regressor_kind(capsys, workdir, dataset):
    out = workdir / "reg.emmod"
    code, events = run(capsys, "train", "--in", dataset, "--mode", "all",
                       "--model-kind", "hd-regressor", "--epochs", 2,
                       "--steps", 10, "--out-model", out)
    assert code == 0
    assert load_model(out).kind == HD_REGRESSOR_16
    assert all("val_mse" in e for e in events if e["event"] == "epoch")


def test_train_deterministic_model_file(capsys, workdir, dataset):
    a = workdir / "det_a.emmod"
    b = workdir / "det_b.emmod"
    args = ["train", "--in", dataset, "--mode", "single", "--positions", 0,
            "--target", "sbox-output", "--epochs", 2, "--steps", 10,
            "--seed", 77]
    assert run(capsys, *args, "--out-model", a)[0] == 0
    assert run(capsys, *args, "--out-model", b)[0] == 0
    assert sha256(a) == sha256(b)


# ---------------------------------------------------------------- evaluate

def test_evaluate_uniform_model_all_chance(capsys, workdir, dataset):
    model = ProfilingModel(CLASSIFIER_256, np.zeros((256, 12)), np.zeros(256),
                           StandardizationParams(np.zeros(12), np.ones(12)),
                           byte_index=0)
    path = workdir / "uniform.emmod"
    save_model(model, path)
    out = workdir / "uniform_eval.csv"
    code, _ = run(capsys, "evaluate", "--model", path, "--in", dataset,
                  "--target", "sbox-output", "--out-heatmap", out)
    assert code == 0
    assert np.all(heatmap_from_csv(out.read_text()) == 127.5)


def test_evaluate_rejects_regressor_model(capsys, workdir, dataset):
    model = ProfilingModel(HD_REGRESSOR_16, np.zeros((16, 12)), np.zeros(16),
                           StandardizationParams(np.zeros(12), np.ones(12)))
    path = workdir / "reg_for_eval.emmod"
    save_model(model, path)
    code, events = run(capsys, "evaluate", "--model", path, "--in", dataset,
                       "--out-heatmap", workdir / "x.csv")
    assert code == 2
    assert "hybrid" in events[-1]["message"]


def test_evaluate_threads_determinism(capsys, workdir, dataset):
    model = ProfilingModel(CLASSIFIER_256, np.zeros((256, 12)), np.zeros(256),
                           StandardizationParams(np.zeros(12), np.ones(12)),
                           byte_index=0)
    path = workdir / "uniform2.emmod"
    save_model(model, path)
    outs = []
    for threads in (1, 8):
        out = workdir / f"eval_t{threads}.csv"
        code, _ = run(capsys, "evaluate", "--model", path, "--in", dataset,
                      "--target", "sbox-output", "--out-heatmap", out,
                      "--threads", threads)
        assert code == 0
        outs.append(sha256(out))
    assert outs[0] == outs[1]


# ------------------------------------------------------------------ hybrid

def identity_regressor(path):
    model = ProfilingModel(HD_REGRESSOR_16, np.eye(16), np.zeros(16),
                           StandardizationParams(np.zeros(16), np.ones(16)))
    save_model(model, path)
    return path


def test_hybrid_oracle_discloses(capsys, workdir, hd_dataset):
    model = identity_regressor(workdir / "id.emmod")
    discl = workdir / "hyb_d.csv"
    ranks = workdir / "hyb_r.csv"
    code, _ = run(capsys, "hybrid", "--model", model, "--in", hd_dataset,
                  "--checkpoint", 350, "--out-disclosure", discl,
                  "--out-ranks", ranks)
    assert code == 0
    assert heatmap_from_csv(discl.read_text())[0, 0] == 350
    assert heatmap_from_csv(ranks.read_text())[0, 0] == 0


def test_hybrid_rejects_classifier_model(capsys, workdir, hd_dataset):
    model = ProfilingModel(CLASSIFIER_256, np.zeros((256, 16)), np.zeros(256),
                           StandardizationParams(np.zeros(16), np.ones(16)),
                           byte_index=0)
    path = workdir / "clf_for_hybrid.emmod"
    save_model(model, path)
    code, _ = run(capsys, "hybrid", "--model", path, "--in", hd_dataset,
                  "--out-disclosure", workdir / "x.csv",
                  "--out-ranks", workdir / "y.csv")
    assert code == 2


def test_hybrid_threads_determinism(capsys, workdir, hd_dataset):
    model = identity_regressor(workdir / "id2.emmod")
    hashes = []
    for threads in (1, 8):
        discl = workdir / f"hyb_t{threads}_d.csv"
        ranks = workdir / f"hyb_t{threads}_r.csv"
        code, _ = run(capsys, "hybrid", "--model", model, "--in", hd_dataset,
                      "--checkpoint", 200, "--out-disclosure", discl,
                      "--out-ranks", ranks, "--threads", threads)
        assert code == 0
        hashes.append((sha256(discl), sha256(ranks)))
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("flag", [("--checkpoint", 0), ("--budget", -1)])
@pytest.mark.parametrize("command", ["cpa", "hybrid"])
def test_disclosure_bad_checkpoint_or_budget_exit_2(capsys, workdir, hd_dataset,
                                                    command, flag):
    model = (["--model", identity_regressor(workdir / "id3.emmod")]
             if command == "hybrid" else [])
    code, events = run(capsys, command, *model, "--in", hd_dataset, *flag,
                       "--out-disclosure", workdir / "bad_d.csv",
                       "--out-ranks", workdir / "bad_r.csv")
    assert code == 2
    assert events[-1]["event"] == "error"
    assert events[-1]["kind"] == "ConfigError"


# ------------------------------------------------------------------ render

def test_render_svg_masked_and_stable(capsys, workdir):
    csv = workdir / "render_in.csv"
    csv.write_text("y\\x,0,1\n0,100,127.5\n")
    svg1 = workdir / "r1.svg"
    svg2 = workdir / "r2.svg"
    code, _ = run(capsys, "render", "--csv", csv, "--svg", svg1,
                  "--metric", "mean_rank", "--mask-threshold", 120)
    assert code == 0
    body = svg1.read_text()
    assert body.startswith("<svg ")
    assert 'url(#hatch)' in body  # the 127.5 cell is masked
    assert "<title>mean_rank</title>" in body
    code, _ = run(capsys, "render", "--csv", csv, "--svg", svg2,
                  "--metric", "mean_rank", "--mask-threshold", 120)
    assert code == 0
    assert sha256(svg1) == sha256(svg2)


def test_render_bad_csv_exit_1(capsys, workdir):
    bad = workdir / "bad.csv"
    for text in ("nonsense", "y\\x,0,1\n0,5,abc\n", "y\\x,0,1\n0,nan,5\n",
                 "y\\x,0,1\n0,-inf,5\n"):
        bad.write_text(text)
        code, events = run(capsys, "render", "--csv", bad,
                           "--svg", workdir / "x.svg")
        assert code == 1, text
        assert events[-1]["kind"] == "DataFormatError"


# ------------------------------------------------------------- entry point

def test_module_entry_point_and_usage_exit_2(workdir):
    proc = subprocess.run([sys.executable, "-m", "emgrid", "no-such-command"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    proc = subprocess.run([sys.executable, "-m", "emgrid", "render", "--csv",
                           str(workdir / "absent.csv"), "--svg",
                           str(workdir / "x.svg")],
                          capture_output=True, text=True)
    assert proc.returncode == 1


def test_stderr_is_json_lines(capsys, workdir, sim_config):
    out = workdir / "jsonl.emgd"
    code = main(["simulate", "--config", str(sim_config), "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    for line in err.splitlines():
        if line.strip():
            json.loads(line)  # every line parses
