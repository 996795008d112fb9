"""Group-fair conformal calibration of quantile regression bands.

Turns raw quantile predictions into prediction intervals that are
marginally valid and whose coverage is balanced across sensitive
groups: conformal calibration per (label bin, group) cell, with a
fixed-point exchange optimizer that equalizes per-group coverage while
controlling total interval width.
"""

__version__ = "0.1.0"

from .binning import BinPartition, bin_indices, equal_mass_bins
from .conformal import (
    GlobalThreshold,
    cqr_calibrate,
    cqr_score,
    empirical_quantile,
    split_cp_calibrate,
)
from .core import (
    Dataset,
    EmptyCellError,
    SplitSpec,
    ValidationError,
    load_dataset,
    split_dataset,
    write_dataset,
)
from .fair_calibration import (
    CoverageState,
    OptimizerTrace,
    ThresholdTable,
    brute_force_oracle,
    calibration_objective,
    cqr_calibrate_groupwise,
    eoc_optimize,
    fair_calibrate,
    init_thresholds,
    measure_coverage,
)
from .intervals import IntervalSet, predict_interval
from .metrics import EvalReport, evaluate, picp_gap, report_to_json
from .quantile_model import (
    QuantileLevels,
    QuantileModel,
    SyntheticSpec,
    fit,
    generate_synthetic,
    pinball_grad,
    pinball_loss,
)

__all__ = [
    "__version__",
    "BinPartition",
    "CoverageState",
    "Dataset",
    "EmptyCellError",
    "EvalReport",
    "GlobalThreshold",
    "IntervalSet",
    "OptimizerTrace",
    "QuantileLevels",
    "QuantileModel",
    "SplitSpec",
    "SyntheticSpec",
    "ThresholdTable",
    "ValidationError",
    "bin_indices",
    "brute_force_oracle",
    "calibration_objective",
    "cqr_calibrate",
    "cqr_calibrate_groupwise",
    "cqr_score",
    "empirical_quantile",
    "eoc_optimize",
    "equal_mass_bins",
    "evaluate",
    "fair_calibrate",
    "fit",
    "generate_synthetic",
    "init_thresholds",
    "load_dataset",
    "measure_coverage",
    "picp_gap",
    "pinball_grad",
    "pinball_loss",
    "predict_interval",
    "report_to_json",
    "split_cp_calibrate",
    "split_dataset",
    "write_dataset",
]
