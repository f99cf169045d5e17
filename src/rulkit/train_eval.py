"""Training loop, test-set evaluation, and the gradient verification suite.

The loop is the usual epoch/batch pattern: one seeded shuffle per epoch,
consecutive batches (final partial batch included), forward -> MSE ->
backward -> Adam. Validation MSE is computed over the full validation set
after every epoch. Targets stay in raw cycle units, so losses read as
squared cycles. Everything is deterministic given (seed, config, data).
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import models
from .dataset_io import EngineTrajectory, RulLabelFile
from .errors import ConfigError, ShapeError, TrainingError, ValidationError
from .ioutil import atomic_write_text, canonical_json, fmt_double, read_json, sha256_text
from .numerics import SeededRng
from .optim import AdamState, adam_step, clip_gradients, flatten_params, init_adam, unflatten
from .preprocess import (
    DEFAULT_ALPHA, DEFAULT_N_VAL, DEFAULT_TRIM, DEFAULT_WINDOW, SampleSet, ScalerParams,
    final_features, scaler_hash, smooth_trajectories,
)
from .preprocess import prepare_test_engine  # noqa: F401  perfbench's tracer wraps it here too

logger = logging.getLogger(__name__)

MODEL_KINDS = tuple(models.MODELS)

# Finite-difference step of the gradient check.
FD_EPS = 1e-5
# Perturbed parameter copies per stacked forward pass of numeric_gradients
# (even: each coordinate takes two). It bounds that pass's memory to
# FD_CHUNK parameter vectors plus FD_CHUNK models' activations.
FD_CHUNK = 512
# Widest-row floats (not bytes) per validation forward pass: an LSTM step's gates fit in L2.
BLOCK_FLOATS = 2**15


def _is_int(value) -> bool:
    """A Python int that is not a bool (JSON true would otherwise pass as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_field_types(values: dict) -> None:
    """Raise ConfigError if a TrainConfig field in `values` has the wrong type: JSON can
    hold 20.0 or true where an int belongs. rul_cap and grad_clip may be None."""
    for name in ("epochs", "batch_size", "window", "lstm_hidden", "trim", "n_val",
                 "seed", "rul_cap"):
        value = values.get(name, 0)
        if not (_is_int(value) or (value is None and name == "rul_cap")):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    hidden = values.get("mlp_hidden", ())
    if not (isinstance(hidden, tuple) and all(map(_is_int, hidden))):
        raise ConfigError(f"mlp hidden sizes must be a tuple of integers, got {hidden!r}")
    for name in ("lr", "alpha", "grad_clip"):
        value = values.get(name, 0)
        if not (_is_int(value) or (isinstance(value, float) and np.isfinite(value))
                or (value is None and name == "grad_clip")):
            raise ConfigError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Run configuration; defaults mirror the reference training recipe, and
    the pipeline's are run_pipeline's."""

    model: str = "lstm"
    epochs: int = 35
    batch_size: int = 64
    lr: float = 0.001
    window: int = DEFAULT_WINDOW
    seed: int = 42
    alpha: float = DEFAULT_ALPHA
    trim: int = DEFAULT_TRIM
    n_val: int = DEFAULT_N_VAL
    rul_cap: int | None = None
    grad_clip: float | None = None
    lstm_hidden: int = 64
    mlp_hidden: tuple[int, ...] = (64, 32)

    def __post_init__(self):
        check_field_types(vars(self))  # types first, so the range checks see numbers
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        for name in ("epochs", "batch_size", "window", "lstm_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.trim < 0:
            raise ConfigError(f"trim must be >= 0, got {self.trim}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.rul_cap is not None and self.rul_cap <= 0:
            raise ConfigError(f"rul_cap must be positive, got {self.rul_cap}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ConfigError(f"grad_clip must be positive, got {self.grad_clip}")
        if any(h < 1 for h in self.mlp_hidden):
            raise ConfigError(f"mlp hidden sizes must be >= 1, got {self.mlp_hidden}")

    @property
    def input_window(self) -> int | None:
        """The model's sample window: `window` for a model that takes windows, else None."""
        return self.window if models.MODELS[self.model].takes_windows else None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["mlp_hidden"] = list(self.mlp_hidden)
        return d

    def config_hash(self) -> str:
        return sha256_text(canonical_json(self.to_dict()))


@dataclass
class TrainHistory:
    """Per-epoch loss curves; wall-clock (epoch, validation) stays out of the CSV artifact."""

    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    val_seconds: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train_mse)


@dataclass
class EngineEval:
    engine_id: int
    true_rul: float
    predicted_rul: float
    predicted_rul_clamped: float


@dataclass
class EvalReport:
    """Per-engine predictions plus the aggregate test MSE and run metadata."""

    rows: list[EngineEval]
    mse: float
    seed: int
    config_hash: str
    checkpoint_hash: str = ""

    def to_dict(self) -> dict:
        d = asdict(self)
        d["engines"] = d.pop("rows")
        return d


@dataclass
class TrainedModel:
    """A parameter set plus the metadata needed to apply it safely."""

    kind: str
    params: models.MlpParams | models.LstmParams
    window: int
    feature_names: tuple[str, ...]
    scaler_hash: str
    config_hash: str
    seed: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predictions for a batch: (N, W, F) windows or (N, F) rows, in float64 as
        checkpointed. Each prediction depends only on its own sample, but BLAS may
        sum a batch of one in another order than a larger batch, so a single-engine
        request and its `evaluate` row agree to rounding, not bit for bit."""
        if self.params.takes_windows and (x.ndim != 3 or x.shape[1] != self.window):
            raise ValidationError(
                f"{self.kind} model expects (batch, {self.window}, features), got {x.shape}"
            )
        return self.params.forward(x)[0]


def predict_in_blocks(params, samples: SampleSet) -> np.ndarray:
    """Validation predictions, max(1, BLOCK_FLOATS // params.row_width) samples per forward pass."""
    block = max(1, BLOCK_FLOATS // params.row_width)
    preds = np.empty(len(samples))
    for start in range(0, len(samples), block):
        x = samples.inputs(slice(start, start + block))
        preds[start : start + block] = params.forward(x)[0]
    return preds


def train(
    config: TrainConfig,
    train_set: SampleSet,
    val_set: SampleSet,
    rng: SeededRng,
) -> tuple[models.MlpParams | models.LstmParams, AdamState, TrainHistory]:
    """Train per config; returns final parameters, optimizer state, history.

    Each split may come cut into rows or into windows of any length: train
    re-cuts it to config.input_window, so the LSTM trains on windows of
    config.window cycles and the MLP on single rows. The rng drives the
    weight init and one shuffle per epoch, in that order, so a given seed
    fixes the whole trajectory.

    The parameters live in one flat float64 vector; the returned tensors are
    views of it. Each batch and validation pass runs on a fresh copy of it in
    the class's compute_dtype, and Adam updates it from the upcast gradients.

    A non-finite training or validation loss raises TrainingError. An empty
    validation split has no loss: its history entry is nan.
    """
    train_set, val_set = (replace(s, window=config.input_window) for s in (train_set, val_set))
    n = len(train_set)
    if n == 0:
        raise ConfigError("training set is empty")

    init = models.MODELS[config.model].init(train_set.rows.shape[1], config, rng)
    flat, views = flatten_params(init.to_dict())
    params_obj = type(init).from_dict(views)
    state = init_adam(views, lr=config.lr)
    grad = np.zeros_like(flat)
    grad_views = unflatten(grad, views)
    work, work_grad = (a.astype(init.compute_dtype, copy=False) for a in (flat, grad))
    work_obj = type(init).from_dict(unflatten(work, views))
    work_grad_views = unflatten(work_grad, views)
    history = TrainHistory()

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.shuffle(n)
        sq_sum = 0.0
        for b, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            xb = train_set.inputs(idx)
            yb = train_set.targets[idx]
            np.copyto(work, flat, casting="same_kind")
            pred, cache = work_obj.forward(xb)
            loss, dpred = models.mse_loss(pred, yb)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"epoch {epoch} batch {b}: non-finite training loss {loss}"
                )
            work_obj.backward(cache, dpred, work_grad_views)
            np.copyto(grad, work_grad)
            if config.grad_clip is not None:
                clip_gradients(grad_views, config.grad_clip)
            adam_step(state, flat, grad)
            sq_sum += loss * len(idx)

        history.train_mse.append(sq_sum / n)
        val_started = time.perf_counter()
        if len(val_set):
            np.copyto(work, flat, casting="same_kind")
            val_pred = predict_in_blocks(work_obj, val_set)
            history.val_mse.append(float(np.mean((val_pred - val_set.targets) ** 2)))
            if not np.isfinite(history.val_mse[-1]):
                raise TrainingError(
                    f"epoch {epoch}: non-finite validation loss {history.val_mse[-1]}"
                )
        else:
            history.val_mse.append(float("nan"))
        history.val_seconds.append(time.perf_counter() - val_started)
        history.epoch_seconds.append(time.perf_counter() - started)
        logger.info(
            "epoch %d/%d train_mse=%.4f val_mse=%.4f (%.1fs, validation %.2fs)",
            epoch, config.epochs, history.train_mse[-1], history.val_mse[-1],
            history.epoch_seconds[-1], history.val_seconds[-1],
        )

    return params_obj, state, history


def evaluate(
    model: TrainedModel,
    test_trajectories: Sequence[EngineTrajectory],
    ruls: RulLabelFile,
    scaler: ScalerParams,
    config: TrainConfig,
    checkpoint_hash: str = "",
) -> EvalReport:
    """One prediction per test engine from its final_inputs, in float64 through
    TrainedModel.predict as a single-engine request is (the two agree to rounding).

    The i-th label pairs with the i-th engine in id order. Negative
    predictions are reported raw (they drive the MSE) with a clamped
    companion value.
    """
    if len(ruls) != len(test_trajectories):
        raise ValidationError(
            f"label count {len(ruls)} does not match test engine count "
            f"{len(test_trajectories)}"
        )
    preds = model.predict(final_inputs(model, test_trajectories, scaler, config))

    rows_out = [
        EngineEval(
            engine_id=traj.engine_id,
            true_rul=float(label),
            predicted_rul=float(pred),
            predicted_rul_clamped=float(max(pred, 0.0)),
        )
        for traj, label, pred in zip(test_trajectories, ruls.ruls, preds)
    ]
    mse = float(np.mean([(r.predicted_rul - r.true_rul) ** 2 for r in rows_out]))
    return EvalReport(
        rows=rows_out,
        mse=mse,
        seed=model.seed,
        config_hash=model.config_hash,
        checkpoint_hash=checkpoint_hash,
    )


def check_scaler(model: TrainedModel, scaler: ScalerParams) -> None:
    """Raise ValidationError unless `scaler` is the one the model was trained on."""
    if model.feature_names != scaler.feature_names:
        raise ValidationError("model feature order does not match the scaler")
    if model.scaler_hash != scaler_hash(scaler):
        raise ValidationError(
            "checkpoint was trained against a different scaler (hash mismatch); "
            "re-run preprocessing or use the matching scaler.json"
        )


def final_inputs(model: TrainedModel, trajectories: Sequence[EngineTrajectory],
                 scaler: ScalerParams, config: TrainConfig) -> np.ndarray:
    """Each engine's model input, final_features at config.input_window, stacked:
    (N, W, F) windows or (N, F) rows. The scaler must be the model's."""
    check_scaler(model, scaler)
    return np.stack([final_features(smoothed, scaler, window=config.input_window)
                     for smoothed in smooth_trajectories(trajectories, config.alpha)])


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


def numeric_gradients(
    params_obj, x: np.ndarray, y: np.ndarray, eps: float = FD_EPS
) -> dict[str, np.ndarray]:
    """Central finite differences of the batch MSE w.r.t. every parameter.

    With theta the flat parameter vector, copy 2j of a stack holds theta
    with coordinate j moved to theta_j + eps and copy 2j + 1 to theta_j - eps;
    one stacked forward pass evaluates the batch MSE of every copy, and the
    gradient is (up - down) / (2 eps). The stack is built FD_CHUNK copies at
    a time, so memory stays bounded for a full-size model. Every copy's loss
    goes through the same floating-point operations as perturbing that one
    coordinate in place and running the model alone, so the result is
    bit-identical to that per-coordinate loop. The caller's tensors are only
    read.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (len(x),):
        raise ShapeError(f"target shape {y.shape} does not match batch {len(x)}")
    tensors = params_obj.to_dict()
    flat, _ = flatten_params(tensors)
    grad = np.empty_like(flat)
    buffer = np.empty((min(FD_CHUNK, 2 * flat.size), flat.size))
    for start in range(0, flat.size, FD_CHUNK // 2):
        coords = np.arange(start, min(start + FD_CHUNK // 2, flat.size))
        copies = 2 * np.arange(coords.size)
        stack = buffer[: 2 * coords.size]
        stack[...] = flat
        stack[copies, coords] += eps
        stack[copies + 1, coords] -= eps
        pred = type(params_obj).from_dict(unflatten(stack, tensors)).forward(x)[0]
        err = pred - y
        losses = np.mean(err * err, axis=-1)
        grad[coords] = (losses[0::2] - losses[1::2]) / (2.0 * eps)
    return unflatten(grad, tensors)


def gradient_check_suite(model_kind: str, trials: int, rng: SeededRng) -> float:
    """Worst relative gap between analytic and finite-difference gradients.

    Each trial draws a feature count and a batch size, then the model
    class's draw_check_case (a small random architecture and inputs), then
    targets, and compares every coordinate with denominator
    max(1, |analytic|).
    """
    if model_kind not in MODEL_KINDS:
        raise ConfigError(f"model kind must be one of {MODEL_KINDS}, got {model_kind!r}")
    worst = 0.0
    gen = rng.generator
    for _ in range(trials):
        feats = int(gen.integers(1, 6))
        batch = int(gen.integers(1, 4))
        params_obj, x, pred, cache = models.MODELS[model_kind].draw_check_case(feats, batch, rng)
        y = rng.uniform(0.0, 5.0, (batch,))
        _, dpred = models.mse_loss(pred, y)
        analytic = params_obj.backward(cache, dpred)
        numeric = numeric_gradients(params_obj, x, y)
        for name in analytic:
            ga = analytic[name].reshape(-1)
            gn = numeric[name].reshape(-1)
            rel = np.abs(ga - gn) / np.maximum(1.0, np.abs(ga))
            worst = max(worst, float(rel.max()))
    return worst


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "rulkit-checkpoint-v2"


def write_history_csv(path: Path | str, history: TrainHistory) -> None:
    lines = ["epoch,train_mse,val_mse"]
    for e, (tr, va) in enumerate(zip(history.train_mse, history.val_mse), start=1):
        lines.append(f"{e},{fmt_double(tr)},{fmt_double(va)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def checkpoint_dict(model: TrainedModel, adam_state: AdamState, config: TrainConfig) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "model": model.kind,
        "gate_order": list(models.GATE_ORDER),
        "arch": model.params.arch,
        "window": model.window,
        "feature_names": list(model.feature_names),
        "scaler_hash": model.scaler_hash,
        "config": config.to_dict(),
        "config_hash": model.config_hash,
        "seed": model.seed,
        "params": {k: v.tolist() for k, v in model.params.to_dict().items()},
        "optimizer": {"lr": adam_state.lr, "beta1": adam_state.beta1, "beta2": adam_state.beta2,
                      "eps": adam_state.eps, "step": adam_state.step},
    }


def write_checkpoint(
    path: Path | str, model: TrainedModel, adam_state: AdamState, config: TrainConfig
) -> None:
    """Write a checkpoint; of `adam_state`, only its five scalars, not its moments."""
    atomic_write_text(path, canonical_json(checkpoint_dict(model, adam_state, config)) + "\n")


def load_checkpoint(path: Path | str) -> tuple[TrainedModel, dict, TrainConfig]:
    """Read a checkpoint: the model, the `optimizer` entry (Adam's lr, beta1,
    beta2, eps and step; the moments are not saved) and the config.

    A file of another format, a missing or malformed entry, or a top-level
    model, window, seed or config_hash unequal to its config's, fails naming
    the file."""
    d = read_json(path)
    try:
        return _checkpoint_from_dict(d)
    except KeyError as exc:
        raise ValidationError(f"{path}: checkpoint has no entry {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _checkpoint_from_dict(d: dict) -> tuple[TrainedModel, dict, TrainConfig]:
    found = d.get("format") if isinstance(d, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise ValidationError(
            f"unrecognized checkpoint format {found!r}, expected {CHECKPOINT_FORMAT!r}; "
            "re-run `rulkit train` to write one"
        )
    if d.get("gate_order") != list(models.GATE_ORDER):
        raise ValidationError(
            f"checkpoint gate order {d.get('gate_order')} does not match "
            f"this build's {list(models.GATE_ORDER)}"
        )
    if d["model"] not in models.MODELS:
        raise ValidationError(f"unknown model kind {d['model']!r} in checkpoint")
    for key in ("params", "config", "optimizer"):
        if not isinstance(d[key], dict):
            raise ValidationError(f"checkpoint entry {key!r} is not a JSON object")
    tensors = {k: np.array(v, dtype=np.float64) for k, v in d["params"].items()}
    params = models.MODELS[d["model"]].from_dict(tensors)
    if params.stack_shape:
        raise ValidationError(
            f"parameters hold a stack of shape {params.stack_shape}, not one model"
        )
    cfg_dict = dict(d["config"])
    cfg_dict["mlp_hidden"] = tuple(cfg_dict["mlp_hidden"])
    config = TrainConfig(**cfg_dict)
    expected = {"model": config.model, "window": config.window, "seed": config.seed,
                "config_hash": config.config_hash()}
    for key, want in expected.items():
        if d[key] != want:
            raise ValidationError(
                f"checkpoint {key} {d[key]!r} does not match its config's {want!r}"
            )
    model = TrainedModel(
        kind=d["model"],
        params=params,
        window=d["window"],
        feature_names=tuple(d["feature_names"]),
        scaler_hash=d["scaler_hash"],
        config_hash=d["config_hash"],
        seed=d["seed"],
    )
    return model, d["optimizer"], config


def write_eval_report(path: Path | str, report: EvalReport) -> None:
    atomic_write_text(path, canonical_json(report.to_dict()) + "\n")


def write_predictions_csv(path: Path | str, report: EvalReport) -> None:
    lines = ["engine_id,true_rul,predicted_rul,predicted_rul_clamped"]
    for r in report.rows:
        lines.append(
            f"{r.engine_id},{fmt_double(r.true_rul)},"
            f"{fmt_double(r.predicted_rul)},{fmt_double(r.predicted_rul_clamped)}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
