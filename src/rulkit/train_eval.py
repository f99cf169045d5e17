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
from dataclasses import asdict, dataclass, field
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
    SampleSet, ScalerParams, final_features, scaler_hash, selection_from_feature_names,
    smooth_trajectories,
)
from .preprocess import prepare_test_engine  # noqa: F401  perfbench's tracer wraps it here too

logger = logging.getLogger(__name__)

MODEL_KINDS = tuple(models.MODELS)

# Finite-difference step of the gradient check, and the distance from relu's
# kink at zero within which an MLP instance is redrawn.
FD_EPS = 1e-5
KINK_MARGIN = 1e-3
# Perturbed parameter copies per stacked forward pass of numeric_gradients
# (even: each coordinate takes two). It bounds that pass's memory to
# FD_CHUNK parameter vectors plus FD_CHUNK models' activations.
FD_CHUNK = 512


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
    """Run configuration; defaults mirror the reference training recipe."""

    model: str = "lstm"
    epochs: int = 35
    batch_size: int = 64
    lr: float = 0.001
    window: int = 20
    seed: int = 42
    alpha: float = 0.1
    trim: int = 10
    n_val: int = 20
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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["mlp_hidden"] = list(self.mlp_hidden)
        return d

    def config_hash(self) -> str:
        return sha256_text(canonical_json(self.to_dict()))


@dataclass
class TrainHistory:
    """Per-epoch loss curves; wall-clock stays out of the CSV artifact."""

    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

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
        """Predictions for a batch: (N, W, F) windows or (N, F) rows."""
        if self.params.takes_windows and (x.ndim != 3 or x.shape[1] != self.window):
            raise ValidationError(
                f"{self.kind} model expects (batch, {self.window}, features), got {x.shape}"
            )
        return self.params.forward(x)[0]


def _predict_in_chunks(params, samples: SampleSet, chunk: int = 512) -> np.ndarray:
    preds = np.empty(len(samples))
    for start in range(0, len(samples), chunk):
        x = samples.inputs(slice(start, start + chunk))
        preds[start : start + chunk] = params.forward(x)[0]
    return preds


def init_model_params(config: TrainConfig, n_features: int, rng: SeededRng):
    if config.model == "lstm":
        return models.init_lstm(n_features, config.lstm_hidden, rng)
    return models.init_mlp((n_features, *config.mlp_hidden, 1), rng)


def train(
    config: TrainConfig,
    train_set: SampleSet,
    val_set: SampleSet,
    rng: SeededRng,
) -> tuple[models.MlpParams | models.LstmParams, AdamState, TrainHistory]:
    """Train per config; returns final parameters, optimizer state, history.

    The LSTM trains on windows of config.window cycles, the MLP on single
    rows (window None). The rng drives the weight init and one shuffle per
    epoch, in that order, so a given seed fixes the whole trajectory.

    The parameters live in one flat vector that Adam updates in place; the
    returned model's tensors are views of it.

    A non-finite training or validation loss raises TrainingError. An empty
    validation split has no loss: its history entry is nan.
    """
    n = len(train_set)
    if n == 0:
        raise ConfigError("training set is empty")
    window = config.window if models.MODELS[config.model].takes_windows else None
    for name, samples in (("training", train_set), ("validation", val_set)):
        if samples.window != window:
            raise ConfigError(
                f"{config.model} model needs samples with window {window}, "
                f"got {name} samples with window {samples.window}"
            )

    init = init_model_params(config, train_set.rows.shape[1], rng)
    flat, views = flatten_params(init.to_dict())
    params_obj = type(init).from_dict(views)
    state = init_adam(views, lr=config.lr)
    history = TrainHistory()

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.shuffle(n)
        sq_sum = 0.0
        for b, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            xb = train_set.inputs(idx)
            yb = train_set.targets[idx]
            pred, cache = params_obj.forward(xb)
            loss, dpred = models.mse_loss(pred, yb)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"epoch {epoch} batch {b}: non-finite training loss {loss}"
                )
            grads = params_obj.backward(cache, dpred)
            if config.grad_clip is not None:
                clip_gradients(grads, config.grad_clip)
            adam_step(state, flat, grads)
            sq_sum += loss * len(idx)

        history.train_mse.append(sq_sum / n)
        if len(val_set):
            val_pred = _predict_in_chunks(params_obj, val_set)
            history.val_mse.append(float(np.mean((val_pred - val_set.targets) ** 2)))
            if not np.isfinite(history.val_mse[-1]):
                raise TrainingError(
                    f"epoch {epoch}: non-finite validation loss {history.val_mse[-1]}"
                )
        else:
            history.val_mse.append(float("nan"))
        history.epoch_seconds.append(time.perf_counter() - started)
        logger.info(
            "epoch %d/%d train_mse=%.4f val_mse=%.4f (%.1fs)",
            epoch, config.epochs,
            history.train_mse[-1], history.val_mse[-1], history.epoch_seconds[-1],
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
    """One prediction per test engine from its final window (or row).

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
    if model.scaler_hash and model.scaler_hash != scaler_hash(scaler):
        raise ValidationError(
            "checkpoint was trained against a different scaler (hash mismatch); "
            "re-run preprocessing or use the matching scaler.json"
        )


def final_inputs(model: TrainedModel, trajectories: Sequence[EngineTrajectory],
                 scaler: ScalerParams, config: TrainConfig) -> np.ndarray:
    """Each engine's final window (or row), stacked; the scaler must be the model's."""
    check_scaler(model, scaler)
    selection = selection_from_feature_names(scaler.feature_names)
    samples = []
    for smoothed in smooth_trajectories(trajectories, config.alpha):
        window, row = final_features(smoothed, scaler, selection, window=config.window)
        samples.append(window if model.params.takes_windows else row)
    return np.stack(samples)


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

    Each trial draws a small random architecture, inputs and targets, and
    compares every coordinate with denominator max(1, |analytic|).

    Finite differences only approximate a derivative where the function is
    differentiable across the whole +/-FD_EPS interval, and relu has a kink
    at zero, so instances whose pre-activations land within KINK_MARGIN of
    zero are redrawn. The recurrent model is smooth everywhere and needs
    no such screening.
    """
    if model_kind not in MODEL_KINDS:
        raise ConfigError(f"model kind must be one of {MODEL_KINDS}, got {model_kind!r}")
    worst = 0.0
    gen = rng.generator
    for _ in range(trials):
        feats = int(gen.integers(1, 6))
        batch = int(gen.integers(1, 4))
        if model_kind == "lstm":
            hidden = int(gen.integers(1, 5))
            steps = int(gen.integers(1, 6))
            params_obj = models.init_lstm(feats, hidden, rng)
            x = rng.uniform(-1.0, 1.0, (batch, steps, feats))
            pred, cache = params_obj.forward(x)
        else:
            while True:
                h1 = int(gen.integers(1, 7))
                h2 = int(gen.integers(1, 7))
                params_obj = models.init_mlp((feats, h1, h2, 1), rng)
                x = rng.uniform(-1.0, 1.0, (batch, feats))
                pred, cache = params_obj.forward(x)
                if min(np.abs(z).min() for z in cache.pre_acts) > KINK_MARGIN:
                    break
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

CHECKPOINT_FORMAT = "rulkit-checkpoint-v1"


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
        "adam_state": adam_state.to_dict(),
    }


def write_checkpoint(
    path: Path | str, model: TrainedModel, adam_state: AdamState, config: TrainConfig
) -> None:
    atomic_write_text(path, canonical_json(checkpoint_dict(model, adam_state, config)) + "\n")


def load_checkpoint(path: Path | str) -> tuple[TrainedModel, AdamState, TrainConfig]:
    """Read a checkpoint; a missing or malformed entry, or a top-level model,
    window or seed unequal to its config's, fails naming the file."""
    d = read_json(path)
    try:
        return _checkpoint_from_dict(d)
    except KeyError as exc:
        raise ValidationError(f"{path}: checkpoint has no entry {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _checkpoint_from_dict(d: dict) -> tuple[TrainedModel, AdamState, TrainConfig]:
    if not isinstance(d, dict) or d.get("format") != CHECKPOINT_FORMAT:
        raise ValidationError("unrecognized checkpoint format")
    if d.get("gate_order") != list(models.GATE_ORDER):
        raise ValidationError(
            f"checkpoint gate order {d.get('gate_order')} does not match "
            f"this build's {list(models.GATE_ORDER)}"
        )
    if d["model"] not in models.MODELS:
        raise ValidationError(f"unknown model kind {d['model']!r} in checkpoint")
    for key in ("params", "config", "adam_state"):
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
    for key in ("model", "window", "seed"):
        if d[key] != getattr(config, key):
            raise ValidationError(
                f"checkpoint {key} {d[key]!r} does not match its config's "
                f"{getattr(config, key)!r}"
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
    return model, AdamState.from_dict(d["adam_state"], params.to_dict()), config


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
