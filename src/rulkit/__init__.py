"""rulkit: remaining-useful-life estimation for run-to-failure sensor data.

Parses the classic 26-column turbofan text files, runs a deterministic
preprocessing chain (constant-channel detection, exponential smoothing,
head trimming, min-max scaling, remaining-life labeling, windowing), and
trains small regressors — a feed-forward network on single cycles and a
recurrent network on sliding windows — with hand-derived gradients and
Adam, all on top of plain numpy.
"""

import os

# One BLAS thread unless the caller chose a count: the LSTM's products round
# differently at other thread counts. This only takes effect if numpy is not
# loaded yet, as when rulkit's command line starts.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .dataset_io import (
    EngineTrajectory,
    RulLabelFile,
    parse_rul_file,
    parse_trajectory_file,
    read_rul_labels,
    read_trajectories,
)
from .errors import (
    ConfigError,
    ParseError,
    ShapeError,
    TrainingError,
    ValidationError,
)
from .preprocess import (
    PreprocessResult,
    SampleSet,
    ScalerParams,
    load_bundle,
    prepare_test_engine,
    run_pipeline,
    write_bundle,
)
from .train_eval import (
    EvalReport,
    TrainConfig,
    TrainedModel,
    TrainHistory,
    evaluate,
    gradient_check_suite,
    load_checkpoint,
    train,
    write_checkpoint,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EngineTrajectory",
    "EvalReport",
    "ParseError",
    "PreprocessResult",
    "RulLabelFile",
    "SampleSet",
    "ScalerParams",
    "ShapeError",
    "TrainConfig",
    "TrainedModel",
    "TrainHistory",
    "TrainingError",
    "ValidationError",
    "evaluate",
    "gradient_check_suite",
    "load_bundle",
    "load_checkpoint",
    "parse_rul_file",
    "parse_trajectory_file",
    "prepare_test_engine",
    "read_rul_labels",
    "read_trajectories",
    "run_pipeline",
    "train",
    "write_bundle",
    "write_checkpoint",
    "__version__",
]
