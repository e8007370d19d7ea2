"""Grid-annotated EM side-channel analysis toolkit.

Simulated probe-grid datasets, streaming SNR/CPA distinguishers, shallow
profiled attacks, a regressor-to-CPA hybrid, and grid heatmap evaluation,
wired together by the `emgrid` command-line tool.

The package exports the names of the README library example and the error
classes; everything else lives in the submodules (emgrid.profiler,
emgrid.distinguishers, ...).
"""
from .errors import AnalysisError, ConfigError, DataFormatError
from .evaluation import evaluate_cpa_grid
from .heatmap import heatmap_to_csv
from .leakage import FIRST_ROUND_SBOX_OUTPUT, LeakageModel
from .simulator import sim_config_from_dict, simulate_grid_dataset
from .traceset import SPLIT_HOLDOUT, read_arrays

__version__ = "0.1.0"
