"""Command-line front end: simulate -> snr -> train -> evaluate/attack -> render.

Every subcommand reads/writes files named by flags and logs progress as
line-delimited JSON on stderr; stdout stays silent. All randomness comes from
explicit seeds (config file or --seed), so a fixed command line produces
byte-identical artifacts, whatever --threads says.

--threads N (at least 1; default 1) lets simulate synthesize its chunks in
W = min(N, usable CPUs, chunks) processes, itself and W - 1 forked
multiprocessing workers; every process writes its records into --out in
place, so --out must be seekable (a pipe exits 1), and with W = 1 or no
os.fork nothing is forked. snr, cpa, evaluate and hybrid accept the
flag and ignore it: they sweep positions one after another in one thread,
and their matrix products already use every core through BLAS.

Commands that read a dataset check its header (train's selection, a model's
trace length) before reading any record. snr, cpa, evaluate and hybrid read
their one split with traceset.read_positions: one scan checks every record
of the file and finds the split's, so a malformed record or a split without
traces ends the command before any position is computed; the sweep then
reads one position's records at a time, which holds its peak memory to one
position plus the per-position accumulator. train reads the records of its
selected positions in its train and test splits with traceset.read_arrays
(mode all: every position), and either split without traces there ends it
before it trains. Its SGD flags (--lr, --batch-size, --epochs,
--steps) configure the classifier; the HD regressor is fitted by least
squares. evaluate scores the byte its classifier was trained on.

Exit codes: 0 success; 1 I/O or malformed file; 2 usage/config, including
argument errors and a split without traces; 3 analysis precondition (e.g.
mixed keys where a fixed key is required, a model of another trace length,
diverging training); 4 any other error, which is a defect in emgrid. Every
error is one JSON error event, never a traceback; --help prints text.
"""

import argparse
import json
import math
import os
import re
import sys

from .errors import AnalysisError, ConfigError, DataFormatError, raised_at
from .evaluation import (
    evaluate_classifier_grid,
    evaluate_cpa_grid,
    evaluate_hybrid_grid,
    evaluate_snr_grid,
)
from .heatmap import Heatmap, heatmap_from_csv, heatmap_to_csv, heatmap_to_svg
from .grid import require_finite
from .leakage import (
    FIRST_ROUND_SBOX_INPUT,
    FIRST_ROUND_SBOX_OUTPUT,
    LAST_ROUND_HD,
    LeakageModel,
)
from .profiler import (
    CLASSIFIER_256,
    HD_REGRESSOR_16,
    LEAKY_MEAN_RANK,
    TrainConfig,
    load_model,
    multiplace_train,
    save_model,
    second_half_mean,
    select_leaky_positions,
    select_top_n_positions,
)
from .simulator import load_sim_config, simulate_grid_dataset, simulation_workers
from .traceset import SPLIT_CODES, read_arrays, read_header, read_positions

TARGET_KINDS = {
    "sbox-input": FIRST_ROUND_SBOX_INPUT,
    "sbox-output": FIRST_ROUND_SBOX_OUTPUT,
    "last-round-hd": LAST_ROUND_HD,
}


def _log(event: str, **fields):
    safe = {k: ("inf" if isinstance(v, float) and math.isinf(v) else v)
            for k, v in fields.items()}
    print(json.dumps({"event": event, **safe}, sort_keys=True), file=sys.stderr)


def _target(args) -> LeakageModel:
    return LeakageModel(TARGET_KINDS[args.target], args.byte)


def _write_heatmap_csvs(h: Heatmap, path: str):
    """One CSV per z layer; single-layer grids write exactly `path`."""
    stem, ext = os.path.splitext(path)
    for iz in range(h.geometry.nz):
        target = path if h.geometry.nz == 1 else f"{stem}_z{iz}{ext}"
        with open(target, "w") as f:
            f.write(heatmap_to_csv(h.slice_z(iz)) + "\n")
        _log("wrote", path=target, metric=h.metric)


# ------------------------------------------------------------- subcommands

def _read_positions(args, model=None):
    """read_positions of the --in dataset's --split, once a model's trace
    length has been checked against the header, before any record is read.
    Returns (header, positions)."""
    if model is not None:
        m = read_header(args.dataset).m
        if m != model.m:
            raise AnalysisError(f"trace length {m} != model m {model.m}")
    return read_positions(args.dataset, SPLIT_CODES[args.split])


def cmd_simulate(args) -> int:
    if not os.path.isfile(args.config):
        raise ConfigError(f"config file not found: {args.config}")
    config = load_sim_config(args.config, seed=args.seed)
    step = max(1, config.total_traces // 20)
    last = 0

    def progress(done, total_traces):
        # chunks rarely end on a multiple of step: log each one crossed
        nonlocal last
        if done // step > last // step or done == total_traces:
            _log("progress", done=done, total=total_traces)
        last = done

    workers = simulation_workers(config, args.threads)
    header = simulate_grid_dataset(config, args.out, progress, args.threads)
    _log("dataset", path=args.out, positions=config.geometry.position_count,
         per_position=dict(config.traces_per_position), total=header.trace_count,
         m=header.m, seed=config.seed, workers=workers)
    return 0


def cmd_snr(args) -> int:
    target = _target(args)
    header, positions = _read_positions(args)
    h = evaluate_snr_grid(positions, header.geometry, target,
                          progress=lambda d: _log("position", **d))
    _write_heatmap_csvs(h, args.out_heatmap)
    return 0


def cmd_cpa(args) -> int:
    header, positions = _read_positions(args)
    disc, rank = evaluate_cpa_grid(
        positions, header.geometry, TARGET_KINDS[args.target],
        budget=args.budget, checkpoint_interval=args.checkpoint,
        progress=lambda d: _log("position", **d))
    _write_heatmap_csvs(disc, args.out_disclosure)
    _write_heatmap_csvs(rank, args.out_ranks)
    return 0


def _read_heatmap_csv(path):
    """A heatmap CSV file's (ny, nx) cells; bytes that are not UTF-8 make it
    a malformed file."""
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}: not UTF-8 text: {e}") from e
    return heatmap_from_csv(text)


def _selection_values(path, geometry):
    """A heatmap CSV's cells in position order; it must cover the grid, and
    the grid must have one z layer, as the CSV holds one layer."""
    if geometry.nz > 1:
        raise ConfigError(
            f"--heatmap selects from one (ny x nx) layer; the dataset grid "
            f"has {geometry.nz} z layers")
    grid = _read_heatmap_csv(path)
    if grid.shape != (geometry.ny, geometry.nx):
        raise ConfigError(
            f"heatmap {path} is {grid.shape[0]}x{grid.shape[1]} (ny x nx); "
            f"the dataset grid is {geometry.ny}x{geometry.nx}")
    return grid.ravel()


# the selection flags each train mode reads
_SELECTION_FLAGS = {"single": ("--positions",),
                    "multiplace": ("--positions", "--heatmap", "--threshold"),
                    "topn": ("--heatmap", "--n"), "all": ()}


def _select_positions(args, geometry):
    """The positions --positions (which must lie on the grid) or --heatmap
    select; None for mode all, which trains on every position with training
    traces. A selection flag that the mode would ignore is rejected."""
    given = [flag for flag, value in (("--positions", args.positions),
                                      ("--heatmap", args.heatmap),
                                      ("--threshold", args.threshold),
                                      ("--n", args.n)) if value is not None]
    unused = [flag for flag in given if flag not in _SELECTION_FLAGS[args.mode]]
    if unused:
        raise ConfigError(f"mode {args.mode} does not take {' or '.join(unused)}")
    if args.mode == "multiplace" and args.positions is not None and len(given) > 1:
        # given[0] is --positions, which selects on its own
        raise ConfigError("mode multiplace with --positions does not take "
                          + " or ".join(given[1:]))
    count = geometry.position_count
    outside = [p for p in args.positions or () if not 0 <= p < count]
    if outside:
        raise ConfigError(f"positions {outside} are outside the {count}-position grid")
    if args.mode == "single":
        if not args.positions or len(args.positions) != 1:
            raise ConfigError("mode single needs exactly one --positions entry")
        return args.positions
    if args.mode == "multiplace":
        if args.positions:
            return sorted(set(args.positions))
        if args.heatmap is None:
            raise ConfigError(
                "mode multiplace needs --positions or --heatmap to select from")
        threshold = LEAKY_MEAN_RANK if args.threshold is None else args.threshold
        values = _selection_values(args.heatmap, geometry)
        selected = sorted(select_leaky_positions(values, threshold))
        if not selected:
            raise AnalysisError(f"no position has mean rank <= {threshold}")
        return selected
    if args.mode == "topn":
        if args.heatmap is None or args.n is None:
            raise ConfigError("mode topn needs --heatmap and --n")
        values = _selection_values(args.heatmap, geometry)
        return select_top_n_positions(values, args.n)
    return None


def cmd_train(args) -> int:
    require_finite("--threshold", args.threshold)
    config = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                         epochs=args.epochs, steps_per_epoch=args.steps,
                         seed=args.seed, data_cap=args.data_cap)
    kind = CLASSIFIER_256 if args.model_kind == "classifier" else HD_REGRESSOR_16
    target = _target(args)
    positions = _select_positions(args, read_header(args.dataset).geometry)
    _, train, val = read_arrays(args.dataset,
                                [SPLIT_CODES["train"], SPLIT_CODES["test"]],
                                positions)
    at = "" if positions is None else f" at positions {list(positions)}"
    for split, arrays in (("train", train), ("test", val)):
        if len(arrays) == 0:
            raise ConfigError(f"no traces in split {split}{at} of {args.dataset}")
    if positions is None:
        positions = sorted({int(p) for p in train.positions})
    _log("selected", mode=args.mode, positions=[int(p) for p in positions])
    result = multiplace_train(train, val, positions, target, config, kind=kind)
    metric_name = "val_mean_rank" if kind == CLASSIFIER_256 else "val_mse"
    for i, v in enumerate(result.val_history):
        _log("epoch", index=i, **{metric_name: v})
    save_model(result.model, args.out_model)
    summary = {"path": args.out_model, "kind": kind,
               "traces": result.n_train, "positions": len(positions)}
    if result.val_history:
        summary["second_half_mean"] = second_half_mean(result.val_history)
    if result.iterations is not None:
        summary["iterations"] = result.iterations
    _log("model", **summary)
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    if model.kind != CLASSIFIER_256:
        raise ConfigError("evaluate expects a classifier model; "
                          "attack regressors with the hybrid command")
    target = LeakageModel(TARGET_KINDS[args.target], model.byte_index)
    header, positions = _read_positions(args, model)
    h = evaluate_classifier_grid(model, positions, header.geometry, target,
                                 progress=lambda d: _log("position", **d))
    _write_heatmap_csvs(h, args.out_heatmap)
    return 0


def cmd_hybrid(args) -> int:
    model = load_model(args.model)
    if model.kind != HD_REGRESSOR_16:
        raise ConfigError("hybrid expects an HD regressor model")
    header, positions = _read_positions(args, model)
    disc, rank = evaluate_hybrid_grid(
        model, positions, header.geometry, budget=args.budget,
        checkpoint_interval=args.checkpoint,
        progress=lambda d: _log("position", **d))
    _write_heatmap_csvs(disc, args.out_disclosure)
    _write_heatmap_csvs(rank, args.out_ranks)
    return 0


def cmd_render(args) -> int:
    for flag, value in (("--vmin", args.vmin), ("--vmax", args.vmax),
                        ("--mask-threshold", args.mask_threshold)):
        require_finite(flag, value)
    grid = _read_heatmap_csv(args.csv)
    svg = heatmap_to_svg(grid, args.metric, args.mask_threshold,
                         vmin=args.vmin, vmax=args.vmax)
    with open(args.svg, "w") as f:
        f.write(svg)
    _log("wrote", path=args.svg, cells=grid.size)
    return 0


# ------------------------------------------------------------------ parser

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e308" as an option, not a value; accept every
        # float literal, exponent included. Sub-parsers are built from this
        # class, so they inherit it.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):  # main logs it as one JSON error event
        raise ConfigError(f"{self.prog}: {message}")


def _int_at_least(low: int):
    """An argparse type: a whole number of at least low."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    parse.__name__ = "int"  # argparse's "invalid int value: 'abc'"
    return parse


def _add_threads(p):
    p.add_argument("--threads", type=_int_at_least(1), default=1,
                   help="simulate: synthesize in up to this many "
                        "processes (this one and forked workers), no more "
                        "than the usable CPUs or the chunks, each holding "
                        "about one 4 MiB chunk and writing its records into "
                        "--out in place; 1 forks nothing. "
                        "Other commands ignore it")


def _add_dataset(p):
    p.add_argument("--in", dest="dataset", required=True, help="dataset file")


def _add_target(p):
    p.add_argument("--target", choices=sorted(TARGET_KINDS), default="sbox-input")
    p.add_argument("--byte", type=int, default=0, help="target byte index")


def _add_disclosure(p):
    p.add_argument("--split", choices=sorted(SPLIT_CODES), default="holdout")
    p.add_argument("--budget", type=_int_at_least(0), default=None)
    p.add_argument("--checkpoint", type=_int_at_least(1), default=1000)
    p.add_argument("--out-disclosure", required=True)
    p.add_argument("--out-ranks", required=True)
    _add_threads(p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="emgrid",
        description="grid-annotated EM trace simulation and key-recovery analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a grid dataset from a config")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--out", required=True, help="output dataset file")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    _add_threads(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("snr", help="per-position peak-SNR map")
    _add_dataset(p)
    _add_target(p)
    p.add_argument("--split", choices=sorted(SPLIT_CODES), default="train")
    p.add_argument("--out-heatmap", required=True)
    _add_threads(p)
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("cpa", help="per-position CPA disclosure map")
    _add_dataset(p)
    p.add_argument("--target", choices=["last-round-hd", "sbox-output"],
                   default="last-round-hd", help="all 16 key bytes are attacked "
                   "(not sbox-input: guesses k and k ^ 0xff tie)")
    _add_disclosure(p)
    p.set_defaults(func=cmd_cpa)

    p = sub.add_parser("train", help="fit a profiling model")
    _add_dataset(p)
    p.add_argument("--mode", choices=["single", "multiplace", "topn", "all"],
                   required=True)
    p.add_argument("--positions", type=int, nargs="+", default=None)
    p.add_argument("--heatmap", default=None,
                   help="mean-rank CSV to select positions from")
    p.add_argument("--threshold", type=float, default=None,
                   help="with --mode multiplace --heatmap: train on cells whose "
                        f"mean rank is at or below this (default {LEAKY_MEAN_RANK:g})")
    p.add_argument("--n", type=int, default=None, help="top-n position count")
    p.add_argument("--model-kind", choices=["classifier", "hd-regressor"],
                   default="classifier")
    _add_target(p)
    p.add_argument("--data-cap", type=int, default=None)
    sgd = "configures the classifier's SGD only; hd-regressor ignores it"
    p.add_argument("--lr", type=float, default=0.01, help=sgd)
    p.add_argument("--batch-size", type=int, default=64, help=sgd)
    p.add_argument("--epochs", type=int, default=50, help=sgd)
    p.add_argument("--steps", type=int, default=400, help=sgd)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="classifier mean-rank map")
    p.add_argument("--model", required=True)
    _add_dataset(p)
    p.add_argument("--split", choices=sorted(SPLIT_CODES), default="test")
    p.add_argument("--target", choices=sorted(TARGET_KINDS), default="sbox-input",
                   help="the model's byte is the target byte")
    p.add_argument("--out-heatmap", required=True)
    _add_threads(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("hybrid", help="regressor-to-CPA disclosure map")
    p.add_argument("--model", required=True)
    _add_dataset(p)
    _add_disclosure(p)
    p.set_defaults(func=cmd_hybrid)

    p = sub.add_parser("render", help="heatmap CSV to SVG")
    p.add_argument("--csv", required=True)
    p.add_argument("--svg", required=True)
    p.add_argument("--metric", default="heatmap", help="figure title")
    p.add_argument("--mask-threshold", type=float, default=None)
    p.add_argument("--vmin", type=float, default=None)
    p.add_argument("--vmax", type=float, default=None)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (DataFormatError, OSError) as e:
        _log("error", kind=type(e).__name__, message=str(e))
        return 1
    except ConfigError as e:
        _log("error", kind="ConfigError", message=str(e))
        return 2
    except AnalysisError as e:
        _log("error", kind="AnalysisError", message=str(e))
        return 3
    except Exception as e:  # last resort: one event, never a traceback
        _log("error", kind=type(e).__name__, message=str(e),
             where=raised_at(e))
        return 4


if __name__ == "__main__":
    sys.exit(main())
