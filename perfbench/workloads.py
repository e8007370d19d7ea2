"""The benchmark's workloads: generated emgrid configs, CLI call sequences
and output checks.

Each workload is a function of the benchmark seed only. The seed picks the
simulation seeds, the fixed attack key and the `train --seed` values; the
sizes below are constants, so every seed does the same amount of work. The
output checks hold for any seed: they test physical facts of the simulated
rig (the probe above the source leaks most), not golden values that a
correct program change may move.
"""

import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

# Fixed sizes. See BENCHMARK.md for why each workload looks the way it does.
SURVEY = {"nx": 7, "ny": 7, "m": 32, "train_per_cell": 1500}
ATTACK = {"nx": 3, "ny": 3, "m": 500, "holdout_per_cell": 2000,
          "budget": 1000, "checkpoint": 250}
PROFILE = {"clf_nx": 3, "clf_ny": 3, "clf_m": 48, "clf_train_per_cell": 1200,
           "clf_test_per_cell": 400, "clf_positions": [1, 3, 4, 5, 7],
           "clf_batch": 64, "clf_epochs": 8, "clf_steps": 200,
           "reg_k": 176, "reg_train": 4096, "reg_test": 512,
           "reg_holdout": 500, "reg_batch": 1024, "reg_epochs": 4,
           "reg_steps": 25, "reg_lr": 0.005, "hybrid_budget": 500,
           "hybrid_checkpoint": 50}

# 127.5 is random guessing; 120 is the leaky-cell threshold the acceptance
# suite selects multi-place training cells with.
MEAN_RANK_LIMIT = 120.0


@dataclass
class Step:
    """One emgrid CLI call; `checks` test the files it wrote."""
    argv: list
    checks: list = field(default_factory=list)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Plan:
    configs: dict   # file name -> config dict
    steps: list
    sizes: dict


def _cells(path) -> list:
    """Heatmap CSV -> flat list of cell values (x fastest), parsed
    independently of emgrid."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("y\\x,"):
        raise ValueError(f"{path}: not a heatmap CSV")
    return [math.inf if v == "inf" else float(v)
            for ln in lines[1:] for v in ln.split(",")[1:]]


def _seeds(seed: int):
    rng = random.Random(seed)
    return rng, lambda: rng.getrandbits(62)


def _threads(argv, threads):
    return argv + ["--threads", str(threads)]


# ------------------------------------------------------------------ survey

def survey(seed: int, threads: int) -> Plan:
    """SNR hot-spot search: one first-round source under the centre of a
    7x7 grid, short random-key traces."""
    _, next_seed = _seeds(seed)
    s = SURVEY
    step = 0.5
    centre = (s["ny"] // 2) * s["nx"] + s["nx"] // 2
    config = {
        "geometry": {"nx": s["nx"], "ny": s["ny"], "nz": 1, "step_mm": step,
                     "z_step_mm": step, "origin_mm": [0.0, 0.0, 0.2]},
        "m": s["m"], "seed": next_seed(),
        "traces_per_position": {"train": s["train_per_cell"]},
        "device": {"noise_sigma": 0.5},
        "sources": [{"position_mm": [step * (s["nx"] // 2),
                                     step * (s["ny"] // 2), 0.0],
                     "sample_indices": [11], "target": "FirstRoundSboxOutput",
                     "byte_index": 0, "amplitude": 0.02}],
    }

    def snr_argmax(d):
        cells = _cells(d / "snr.csv")
        best = max(range(len(cells)), key=cells.__getitem__)
        return best == centre, f"argmax {best}, centre {centre}"

    def svg_parses(d):
        root = ET.parse(d / "snr.svg").getroot()
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        # one background rect plus one per cell
        want = 1 + s["nx"] * s["ny"]
        return len(rects) == want, f"{len(rects)} rects, want {want}"

    steps = [
        Step(_threads(["simulate", "--config", "survey.json",
                       "--out", "survey.emgd"], threads)),
        Step(_threads(["snr", "--in", "survey.emgd", "--target", "sbox-output",
                       "--byte", "0", "--split", "train",
                       "--out-heatmap", "snr.csv"], threads), [snr_argmax]),
        Step(["render", "--csv", "snr.csv", "--svg", "snr.svg",
              "--metric", "peak_snr"], [svg_parses]),
    ]
    sizes = dict(s, traces=s["nx"] * s["ny"] * s["train_per_cell"])
    return Plan({"survey.json": config}, steps, sizes)


# ------------------------------------------------------------------ attack

def attack(seed: int, threads: int) -> Plan:
    """CPA key recovery: 16 first-round sources under the centre of a 3x3
    grid, long fixed-key traces; the outer cells sit 1.4 mm away."""
    rng, next_seed = _seeds(seed)
    s = ATTACK
    step = 1.4
    centre = (s["ny"] // 2) * s["nx"] + s["nx"] // 2
    src = [step * (s["nx"] // 2), step * (s["ny"] // 2), 0.0]
    spacing = s["m"] // 16
    config = {
        "geometry": {"nx": s["nx"], "ny": s["ny"], "nz": 1, "step_mm": step,
                     "z_step_mm": step, "origin_mm": [0.0, 0.0, 0.2]},
        "m": s["m"], "seed": next_seed(),
        "traces_per_position": {"holdout": s["holdout_per_cell"]},
        "fixed_key": rng.randbytes(16).hex(),
        # Low enough that the centre cell discloses at the first checkpoint
        # for every seed, so every seed does the same CPA work.
        "device": {"noise_sigma": 0.3},
        "sources": [{"position_mm": src, "sample_indices": [10 + spacing * j],
                     "target": "FirstRoundSboxOutput", "byte_index": j,
                     "amplitude": 0.01} for j in range(16)],
    }
    budget = s["budget"]

    def hot_discloses(d):
        cells = _cells(d / "fr_disclosure.csv")
        hot = cells[centre]
        far = [v for i, v in enumerate(cells) if i != centre]
        ok = hot <= budget and all(math.isinf(v) for v in far)
        return ok, f"centre {hot} of {budget}, outer {far}"

    def nothing_discloses(d):
        cells = _cells(d / "lr_disclosure.csv")
        return all(math.isinf(v) for v in cells), f"cells {cells}"

    cpa = ["cpa", "--in", "attack.emgd", "--split", "holdout",
           "--budget", str(budget), "--checkpoint", str(s["checkpoint"])]
    steps = [
        Step(_threads(["simulate", "--config", "attack.json",
                       "--out", "attack.emgd"], threads)),
        Step(_threads(cpa + ["--target", "sbox-output",
                             "--out-disclosure", "fr_disclosure.csv",
                             "--out-ranks", "fr_ranks.csv"], threads),
             [hot_discloses]),
        Step(_threads(cpa + ["--target", "last-round-hd",
                             "--out-disclosure", "lr_disclosure.csv",
                             "--out-ranks", "lr_ranks.csv"], threads),
             [nothing_discloses]),
    ]
    sizes = dict(s, traces=s["nx"] * s["ny"] * s["holdout_per_cell"])
    return Plan({"attack.json": config}, steps, sizes)


# ----------------------------------------------------------------- profile

def profile(seed: int, threads: int) -> Plan:
    """Profiled attacks: a multi-place byte classifier with tiny SGD steps,
    then a wide last-round HD regressor feeding the hybrid attack."""
    rng, next_seed = _seeds(seed)
    s = PROFILE
    step = 0.3
    clf = {
        "geometry": {"nx": s["clf_nx"], "ny": s["clf_ny"], "nz": 1,
                     "step_mm": step, "z_step_mm": step,
                     "origin_mm": [0.0, 0.0, 0.05]},
        "m": s["clf_m"], "seed": next_seed(),
        "traces_per_position": {"train": s["clf_train_per_cell"],
                                "test": s["clf_test_per_cell"]},
        "device": {"noise_sigma": 1.0},
        "sources": [
            {"position_mm": [step, step, 0.0], "sample_indices": [10],
             "target": "FirstRoundSboxOutput", "byte_index": 0,
             "amplitude": 0.0095},
            {"position_mm": [step, step, -0.7], "sample_indices": [20],
             "target": "FirstRoundSboxOutput", "byte_index": 0,
             "amplitude": 0.80},
        ],
    }
    k = s["reg_k"]
    # c7's layout at about 3x its amplitude, so that 100 SGD steps train a
    # regressor good enough for the hybrid attack to disclose.
    reg_sources = [{"position_mm": [0.0, 0.0, 0.0],
                    "sample_indices": list(range(j * k, (j + 1) * k)),
                    "target": "LastRoundHDTrue", "byte_index": j,
                    "amplitude": 4e-3} for j in range(16)]
    reg_geometry = {"nx": 1, "ny": 1, "nz": 1, "step_mm": 0.5,
                    "z_step_mm": 0.5, "origin_mm": [0.0, 0.0, 0.2]}
    reg_train = {"geometry": reg_geometry, "m": 16 * k, "seed": next_seed(),
                 "traces_per_position": {"train": s["reg_train"],
                                         "test": s["reg_test"]},
                 "device": {"noise_sigma": 1.0}, "sources": reg_sources}
    reg_attack = {"geometry": reg_geometry, "m": 16 * k, "seed": next_seed(),
                  "traces_per_position": {"holdout": s["reg_holdout"]},
                  "fixed_key": rng.randbytes(16).hex(),
                  "device": {"noise_sigma": 1.0}, "sources": reg_sources}
    train_seed = next_seed() % 1000003
    positions = s["clf_positions"]
    budget = s["hybrid_budget"]

    def classifier_learned(d):
        cells = _cells(d / "clf_ranks.csv")
        trained = [cells[p] for p in positions]
        ok = all(v < MEAN_RANK_LIMIT for v in trained)
        return ok, f"trained-cell mean ranks {trained}, limit {MEAN_RANK_LIMIT}"

    def hybrid_discloses(d):
        cells = _cells(d / "hybrid_disclosure.csv")
        return cells[0] <= budget, f"disclosure {cells[0]} of {budget}"

    steps = [
        Step(_threads(["simulate", "--config", "clf.json", "--out", "clf.emgd"],
                      threads)),
        Step(["train", "--in", "clf.emgd", "--mode", "multiplace",
              "--positions", *map(str, positions), "--target", "sbox-output",
              "--byte", "0", "--batch-size", str(s["clf_batch"]),
              "--epochs", str(s["clf_epochs"]), "--steps", str(s["clf_steps"]),
              "--seed", str(train_seed), "--out-model", "clf.emmod"]),
        Step(_threads(["evaluate", "--model", "clf.emmod", "--in", "clf.emgd",
                       "--split", "test", "--target", "sbox-output",
                       "--out-heatmap", "clf_ranks.csv"], threads),
             [classifier_learned]),
        Step(_threads(["simulate", "--config", "reg_train.json",
                       "--out", "reg_train.emgd"], threads)),
        Step(_threads(["simulate", "--config", "reg_attack.json",
                       "--out", "reg_attack.emgd"], threads)),
        Step(["train", "--in", "reg_train.emgd", "--mode", "single",
              "--positions", "0", "--model-kind", "hd-regressor",
              "--lr", str(s["reg_lr"]), "--batch-size", str(s["reg_batch"]),
              "--epochs", str(s["reg_epochs"]), "--steps", str(s["reg_steps"]),
              "--seed", str(train_seed), "--out-model", "reg.emmod"]),
        Step(_threads(["hybrid", "--model", "reg.emmod", "--in", "reg_attack.emgd",
                       "--split", "holdout", "--budget", str(budget),
                       "--checkpoint", str(s["hybrid_checkpoint"]),
                       "--out-disclosure", "hybrid_disclosure.csv",
                       "--out-ranks", "hybrid_ranks.csv"], threads),
             [hybrid_discloses]),
    ]
    return Plan({"clf.json": clf, "reg_train.json": reg_train,
                 "reg_attack.json": reg_attack}, steps, dict(s, reg_m=16 * k))


WORKLOADS = {"survey": survey, "attack": attack, "profile": profile}
