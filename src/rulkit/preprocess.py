"""Preprocessing chain for trajectory data.

Fixed stage order: drop constant sensors -> exponential smoothing (sensor
channels only) -> head trim -> min-max scaling fitted on training engines
-> remaining-life labeling, with an engine-level train/validation split.
Re-running on identical inputs and seed reproduces identical arrays.

Each split is one SampleSet of scaled rows; the LSTM's windows are gathered
from them batch by batch and never stored, in memory or in a bundle.

The default drop set is detected, not hardcoded: any sensor whose raw value
range across all training engines is below CONSTANT_TOLERANCE carries no
signal and is excluded. Operating settings are kept as features, except that
a zero-range setting (the single-condition files ship one) is excluded the
same way, since a constant column cannot be min-max scaled.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset_io import EngineTrajectory, N_SENSORS, N_SETTINGS
from .errors import ConfigError, ValidationError
from .ioutil import atomic_write_text, canonical_json, read_json, sha256_text
from .numerics import SeededRng

logger = logging.getLogger(__name__)

CONSTANT_TOLERANCE = 1e-12
DEFAULT_ALPHA = 0.1
DEFAULT_TRIM = 10
DEFAULT_WINDOW = 20
DEFAULT_N_VAL = 20


@dataclass(frozen=True)
class FeatureSelection:
    """Which of the 3 settings and 21 sensors feed the models."""

    dropped_sensors: frozenset[int]
    dropped_settings: frozenset[int] = frozenset()

    def __post_init__(self):
        bad = [s for s in self.dropped_sensors if not 1 <= s <= N_SENSORS]
        if bad:
            raise ConfigError(f"sensor indices out of range 1..{N_SENSORS}: {sorted(bad)}")
        bad = [s for s in self.dropped_settings if not 1 <= s <= N_SETTINGS]
        if bad:
            raise ConfigError(f"setting indices out of range 1..{N_SETTINGS}: {sorted(bad)}")

    @property
    def kept_settings(self) -> list[int]:
        return [i for i in range(1, N_SETTINGS + 1) if i not in self.dropped_settings]

    @property
    def kept_sensors(self) -> list[int]:
        return [i for i in range(1, N_SENSORS + 1) if i not in self.dropped_sensors]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(
            [f"setting_{i}" for i in self.kept_settings]
            + [f"sensor_{i}" for i in self.kept_sensors]
        )

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def selection_from_feature_names(names: Sequence[str]) -> FeatureSelection:
    """Rebuild a FeatureSelection from a stored feature-name list.

    Inverse of FeatureSelection.feature_names; rejects unknown names and
    orderings other than the canonical settings-then-sensors layout.
    """
    kept_settings, kept_sensors = set(), set()
    for name in names:
        kind, _, num = name.partition("_")
        if not num.isdigit():
            raise ValidationError(f"unrecognized feature name {name!r}")
        idx = int(num)
        if kind == "setting" and 1 <= idx <= N_SETTINGS:
            kept_settings.add(idx)
        elif kind == "sensor" and 1 <= idx <= N_SENSORS:
            kept_sensors.add(idx)
        else:
            raise ValidationError(f"unrecognized feature name {name!r}")
    selection = FeatureSelection(
        frozenset(range(1, N_SENSORS + 1)) - frozenset(kept_sensors),
        frozenset(range(1, N_SETTINGS + 1)) - frozenset(kept_settings),
    )
    if selection.feature_names != tuple(names):
        raise ValidationError(
            f"feature names {tuple(names)} are not in canonical order "
            f"{selection.feature_names}"
        )
    return selection


def detect_constant_sensors(
    trajectories: Sequence[EngineTrajectory], tol: float = CONSTANT_TOLERANCE
) -> set[int]:
    """Sensor indices (1-based) whose raw range over all engines is <= tol."""
    if not trajectories:
        raise ValidationError("cannot detect constant sensors on empty input")
    stacked = np.vstack([t.sensors_matrix for t in trajectories])
    spans = stacked.max(axis=0) - stacked.min(axis=0)
    return {i + 1 for i in range(N_SENSORS) if spans[i] <= tol}


def detect_constant_settings(
    trajectories: Sequence[EngineTrajectory], tol: float = CONSTANT_TOLERANCE
) -> set[int]:
    """Operating-setting indices (1-based) with zero range, analogously."""
    if not trajectories:
        raise ValidationError("cannot detect constant settings on empty input")
    stacked = np.vstack([t.settings_matrix for t in trajectories])
    spans = stacked.max(axis=0) - stacked.min(axis=0)
    return {i + 1 for i in range(N_SETTINGS) if spans[i] <= tol}


def select_features(
    trajectories: Sequence[EngineTrajectory], tol: float = CONSTANT_TOLERANCE
) -> FeatureSelection:
    """Build the feature selection by scanning raw training data."""
    dropped_sensors = detect_constant_sensors(trajectories, tol)
    dropped_settings = detect_constant_settings(trajectories, tol)
    if dropped_settings:
        logger.info(
            "excluding zero-range operating settings %s from features",
            sorted(dropped_settings),
        )
    return FeatureSelection(frozenset(dropped_sensors), frozenset(dropped_settings))


def ewma_smooth(series: np.ndarray, alpha: float) -> np.ndarray:
    """Exponentially weighted average along axis 0.

    s[0] = x[0]; s[t] = alpha * x[t] + (1 - alpha) * s[t-1].
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
    x = np.asarray(series, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValidationError("cannot smooth an empty series")
    # alpha * x[t] for every t up front, then one in-place add per step:
    # the same two roundings per element as the recurrence written out.
    out = alpha * x
    out[0] = x[0]
    decay = 1.0 - alpha
    step = np.empty_like(out[0])
    for t in range(1, x.shape[0]):
        np.multiply(out[t - 1], decay, out=step)
        out[t] += step
    return out


def smooth_trajectory(traj: EngineTrajectory, alpha: float) -> EngineTrajectory:
    """Smooth sensor channels only; operating settings pass through untouched."""
    return traj.with_sensors(ewma_smooth(traj.sensors_matrix, alpha))


def trim_head(traj: EngineTrajectory, n: int = DEFAULT_TRIM) -> EngineTrajectory:
    """Drop the first n cycles; retained cycle numbers are preserved.

    The result's arrays are read-only views of the input's.
    """
    if n < 0:
        raise ConfigError(f"trim length must be >= 0, got {n}")
    if n == 0:
        return traj
    if len(traj) <= n:
        raise ValidationError(
            f"engine {traj.engine_id}: cannot trim {n} cycles from a "
            f"{len(traj)}-cycle trajectory"
        )
    return EngineTrajectory(
        traj.engine_id, traj.cycles[n:], traj.settings_matrix[n:], traj.sensors_matrix[n:]
    )


def feature_matrix(traj: EngineTrajectory, selection: FeatureSelection) -> np.ndarray:
    """(L, F) matrix of the kept settings and sensors, in feature_names order."""
    cols = []
    settings = traj.settings_matrix
    sensors = traj.sensors_matrix
    for i in selection.kept_settings:
        cols.append(settings[:, i - 1])
    for i in selection.kept_sensors:
        cols.append(sensors[:, i - 1])
    return np.column_stack(cols)


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature min/max fitted on training engines only.

    transform maps fitted training data into [0, 1] exactly; out-of-range
    values (test time) are clamped to [0, 1].
    """

    feature_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        if len(self.feature_names) != self.mins.shape[0] or self.mins.shape != self.maxs.shape:
            raise ValidationError("scaler feature names and bounds disagree in length")
        for name, lo, hi in zip(self.feature_names, self.mins, self.maxs):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                problem = "a non-finite bound"
            elif hi < lo:
                problem = "max < min"
            elif hi == lo:
                problem = "max == min (zero range)"
            else:
                continue
            raise ValidationError(
                f"scaler has {problem} for feature {name!r}: min={lo}, max={hi}"
            )

    def transform(self, features: np.ndarray) -> np.ndarray:
        scaled = (features - self.mins) / (self.maxs - self.mins)
        return np.clip(scaled, 0.0, 1.0)

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        return self.mins + scaled * (self.maxs - self.mins)

    def to_dict(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "mins": [float(v) for v in self.mins],
            "maxs": [float(v) for v in self.maxs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerParams":
        return cls(
            tuple(d["feature_names"]),
            np.array(d["mins"], dtype=np.float64),
            np.array(d["maxs"], dtype=np.float64),
        )


def fit_minmax(
    trajectories: Sequence[EngineTrajectory], selection: FeatureSelection
) -> ScalerParams:
    """Fit per-feature min/max over all rows of (smoothed, trimmed) train data."""
    if not trajectories:
        raise ValidationError("cannot fit a scaler on empty input")
    stacked = np.vstack([feature_matrix(t, selection) for t in trajectories])
    mins = stacked.min(axis=0)
    maxs = stacked.max(axis=0)
    flat = np.flatnonzero(maxs - mins <= 0.0)
    if flat.size:
        names = [selection.feature_names[i] for i in flat]
        raise ConfigError(
            f"features {names} are constant on the training data; "
            "extend the drop set so every kept feature has positive range"
        )
    return ScalerParams(selection.feature_names, mins, maxs)


@dataclass(frozen=True)
class ScaledEngine:
    """One engine after smoothing, trimming and scaling."""

    engine_id: int
    cycles: np.ndarray
    features: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]


def apply_minmax(
    scaler: ScalerParams, traj: EngineTrajectory, selection: FeatureSelection
) -> ScaledEngine:
    """Scale one trajectory's kept features into [0, 1] (clamped)."""
    if selection.feature_names != scaler.feature_names:
        raise ValidationError(
            f"feature order mismatch: selection {selection.feature_names} "
            f"vs scaler {scaler.feature_names}"
        )
    features = scaler.transform(feature_matrix(traj, selection))
    return ScaledEngine(traj.engine_id, traj.cycles, features)


def label_rul(
    traj: EngineTrajectory | ScaledEngine,
    known_terminal_rul: int = 0,
    cap: int | None = None,
) -> np.ndarray:
    """Per-cycle remaining life: (last_cycle - cycle) + terminal RUL.

    Training engines run to failure (terminal RUL 0); test engines stop
    early and take their terminal value from the label file. An optional
    cap clips large early-life labels.
    """
    if known_terminal_rul < 0:
        raise ConfigError(f"terminal RUL must be non-negative, got {known_terminal_rul}")
    rul = (traj.cycles[-1] - traj.cycles + known_terminal_rul).astype(np.float64)
    if cap is not None:
        if cap <= 0:
            raise ConfigError(f"RUL cap must be positive, got {cap}")
        np.minimum(rul, float(cap), out=rul)
    return rul


@dataclass(frozen=True, eq=False)
class SampleSet:
    """The samples of one split, cut from its scaled rows on request.

    `rows` (R, F), `rul` (R,) and `engine_ids` (R,) hold the split's cycles,
    one contiguous run per engine. With `window` None each row is a sample;
    with window W each W consecutive rows of one engine are a sample whose
    target is the RUL of the last, gathered only when asked for.
    """

    rows: np.ndarray
    rul: np.ndarray
    engine_ids: np.ndarray
    window: int | None = None
    # Row index of each sample's first row, and each sample's target.
    starts: np.ndarray = field(init=False, repr=False)
    targets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids, n = self.engine_ids, self.rows.shape[0]
        if self.rows.ndim != 2 or not self.rul.shape == ids.shape == (n,):
            raise ValidationError(
                f"rows {self.rows.shape}, RUL {self.rul.shape} and engine ids {ids.shape} disagree"
            )
        firsts = np.flatnonzero(np.diff(ids, prepend=ids[:1] - 1))
        run_ids, runs = np.unique(ids[firsts], return_counts=True)
        if np.any(runs > 1):
            raise ValidationError(f"engine {run_ids[runs > 1][0]}: rows are not one run")
        if self.window is not None and self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        width = self.window or 1
        lengths = np.diff(np.r_[firsts, n])
        if np.any(lengths < width):
            short = np.argmax(lengths < width)
            raise ValidationError(
                f"engine {ids[firsts[short]]}: {lengths[short]} cycles is shorter than "
                f"window {width}"
            )
        # Runs are contiguous, so a sample starting at row r stays in one
        # engine iff its last row, r + width - 1, has the same engine id.
        starts = np.flatnonzero(ids[: n - width + 1] == ids[width - 1 :])
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "targets", self.rul[starts + width - 1])

    def __len__(self) -> int:
        return self.starts.shape[0]

    def inputs(self, idx: np.ndarray | slice) -> np.ndarray:
        """Model inputs of samples `idx`: (n, F) rows or (n, window, F) windows."""
        if self.window is None:
            return self.rows[idx]
        return self.rows[self.starts[idx, None] + np.arange(self.window)]


def make_rows(scaled: ScaledEngine, rul: np.ndarray) -> SampleSet:
    """Every retained cycle of one engine as an independent sample."""
    return SampleSet(
        scaled.features.copy(),
        rul.copy(),
        np.full(len(scaled), scaled.engine_id, dtype=np.int64),
    )


def make_windows(
    scaled: ScaledEngine, rul: np.ndarray, window: int = DEFAULT_WINDOW
) -> SampleSet:
    """All sliding windows of one engine: L - window + 1 samples.

    The target of a window is the RUL at its last (most recent) cycle.
    """
    return replace(make_rows(scaled, rul), window=window)


def _split_samples(
    parts: Sequence[SampleSet], ids: set[int], n_features: int, window: int
) -> SampleSet:
    """The samples of the engines in `ids`, in the order of `parts`."""
    parts = [p for p in parts if p.engine_ids[0] in ids]
    return SampleSet(
        np.concatenate([p.rows for p in parts] + [np.zeros((0, n_features))]),
        np.concatenate([p.rul for p in parts] + [np.zeros(0)]),
        np.concatenate([p.engine_ids for p in parts] + [np.zeros(0, dtype=np.int64)]),
        window,
    )


def split_by_engine(
    engine_ids: Sequence[int], n_val: int = DEFAULT_N_VAL, seed: int = 0
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Seeded engine-level split into (train ids, validation ids).

    Deterministic per seed; the partition is disjoint and exhaustive.
    """
    ids = sorted(engine_ids)
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate engine ids in split input")
    if n_val < 0:
        raise ConfigError(f"n_val must be >= 0, got {n_val}")
    if n_val >= len(ids):
        raise ConfigError(f"n_val={n_val} must be smaller than engine count {len(ids)}")
    order = SeededRng(seed).shuffle(len(ids))
    val = tuple(sorted(ids[i] for i in order[:n_val]))
    train = tuple(sorted(ids[i] for i in order[n_val:]))
    return train, val


def effective_trim(length: int, trim: int, window: int) -> int:
    """Trim to apply to one engine, reduced so a final window still fits.

    Engines shorter than the window even untrimmed return 0; the window
    builder front-pads those (test-time policy).
    """
    return min(trim, max(length - window, 0))


def final_window(scaled: ScaledEngine, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Last `window` scaled rows, front-padded with the earliest row if short."""
    feats = scaled.features
    if len(scaled) >= window:
        return feats[-window:].copy()
    pad = np.repeat(feats[:1], window - len(scaled), axis=0)
    return np.vstack([pad, feats])


@dataclass
class PreprocessResult:
    """Everything the trainer needs; a split's windows and rows share arrays."""

    selection: FeatureSelection
    scaler: ScalerParams
    train_ids: tuple[int, ...]
    val_ids: tuple[int, ...]
    seed: int
    train_windows: SampleSet
    val_windows: SampleSet
    train_rows: SampleSet
    val_rows: SampleSet

    @property
    def total_windows(self) -> int:
        return len(self.train_windows) + len(self.val_windows)

    @property
    def total_rows(self) -> int:
        return len(self.train_rows) + len(self.val_rows)


def run_pipeline(
    train_trajectories: Sequence[EngineTrajectory],
    *,
    alpha: float = DEFAULT_ALPHA,
    trim: int = DEFAULT_TRIM,
    window: int = DEFAULT_WINDOW,
    n_val: int = DEFAULT_N_VAL,
    seed: int = 0,
    rul_cap: int | None = None,
    const_tol: float = CONSTANT_TOLERANCE,
) -> PreprocessResult:
    """Run the full training-side chain on parsed training trajectories."""
    if not train_trajectories:
        raise ValidationError("no training trajectories")
    selection = select_features(train_trajectories, const_tol)
    prepared = [
        trim_head(smooth_trajectory(t, alpha), trim) for t in train_trajectories
    ]
    scaler = fit_minmax(prepared, selection)
    scaled = [apply_minmax(scaler, t, selection) for t in prepared]
    labels = [label_rul(s, 0, rul_cap) for s in scaled]

    train_ids, val_ids = split_by_engine(
        [t.engine_id for t in train_trajectories], n_val, seed
    )
    parts = [make_windows(eng, rul, window) for eng, rul in zip(scaled, labels)]
    train_windows = _split_samples(parts, set(train_ids), selection.n_features, window)
    val_windows = _split_samples(parts, set(val_ids), selection.n_features, window)
    return PreprocessResult(
        selection=selection,
        scaler=scaler,
        train_ids=train_ids,
        val_ids=val_ids,
        seed=seed,
        train_windows=train_windows,
        val_windows=val_windows,
        train_rows=replace(train_windows, window=None),
        val_rows=replace(val_windows, window=None),
    )


INVARIANTS = (
    "scaled features lie in [0, 1]",
    "scaler inverse round-trips its own transform",
    "engine split is disjoint and exhaustive",
)


def invariant_failures(
    trajectories: Sequence[EngineTrajectory],
    result: PreprocessResult,
) -> list[str]:
    """Names (from INVARIANTS) of the invariants that `result` breaks.

    `result` must come from run_pipeline on `trajectories` at the default
    alpha and trim; an empty list means every invariant holds.
    """
    failures = []
    splits = [s.rows for s in (result.train_rows, result.val_rows) if s.rows.size]
    if not splits or any(rows.min() < 0.0 or rows.max() > 1.0 for rows in splits):
        failures.append(INVARIANTS[0])
    features = np.vstack([
        feature_matrix(trim_head(smooth_trajectory(t, DEFAULT_ALPHA)), result.selection)
        for t in trajectories
    ])
    round_trip = result.scaler.inverse(result.scaler.transform(features))
    if not np.allclose(round_trip, features, rtol=1e-12, atol=1e-12):
        failures.append(INVARIANTS[1])
    train_ids, val_ids = set(result.train_ids), set(result.val_ids)
    if train_ids & val_ids or train_ids | val_ids != {t.engine_id for t in trajectories}:
        failures.append(INVARIANTS[2])
    return failures


BUNDLE_FORMAT = "rulkit-bundle-v2"
_SPLITS = ("train", "val")


def write_bundle(out_dir: Path | str, result: PreprocessResult, pipeline: dict) -> None:
    """Persist a PreprocessResult as meta.json, scaler.json and .npy arrays.

    A split is stored as its rows, RUL and engine ids: `<split>_rows.npy`,
    `<split>_rul.npy` and `<split>_engines.npy`.

    `pipeline` records the arguments the chain ran with, so downstream
    stages can reuse them and refuse mismatched combinations.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scaler_json = canonical_json(result.scaler.to_dict())
    meta = {
        "format": BUNDLE_FORMAT,
        "pipeline": pipeline,
        "feature_names": list(result.selection.feature_names),
        "train_ids": list(result.train_ids),
        "val_ids": list(result.val_ids),
        "split_seed": result.seed,
        "scaler_hash": sha256_text(scaler_json),
        "counts": {
            "engines": len(result.train_ids) + len(result.val_ids),
            "train_windows": len(result.train_windows),
            "val_windows": len(result.val_windows),
            "train_rows": len(result.train_rows),
            "val_rows": len(result.val_rows),
            "total_windows": result.total_windows,
            "total_rows": result.total_rows,
        },
    }
    atomic_write_text(out / "meta.json", canonical_json(meta) + "\n")
    atomic_write_text(out / "scaler.json", scaler_json + "\n")
    for split in _SPLITS:
        samples = getattr(result, f"{split}_rows")
        np.save(out / f"{split}_rows.npy", samples.rows)
        np.save(out / f"{split}_rul.npy", samples.rul)
        np.save(out / f"{split}_engines.npy", samples.engine_ids)


@dataclass
class Bundle:
    """A bundle loaded back from disk; a split's windows and rows share arrays."""

    meta: dict
    scaler: ScalerParams
    train_windows: SampleSet
    val_windows: SampleSet
    train_rows: SampleSet
    val_rows: SampleSet


def load_scaler(path: Path | str) -> ScalerParams:
    """Read a scaler.json; bad content fails with an error naming the file."""
    d = read_json(path)
    try:
        return ScalerParams.from_dict(d)
    except KeyError as exc:
        raise ValidationError(f"{path}: missing entry {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _load_array(path: Path, dtype: type, shape: tuple) -> np.ndarray:
    """One bundle array, which must have exactly this dtype and shape."""
    try:
        arr = np.load(path)
    except (ValueError, EOFError) as exc:
        raise ValidationError(f"{path}: unreadable array ({exc})") from None
    if arr.dtype != dtype or arr.shape != shape:
        raise ValidationError(
            f"{path}: expected {np.dtype(dtype)} array of shape {shape} (row count "
            f"from meta.json), got {arr.dtype} array of shape {arr.shape}"
        )
    return arr


def load_bundle(bundle_dir: Path | str) -> Bundle:
    """Read a bundle back, checking every array against meta.json.

    Arrays need write_bundle's dtypes and meta.json's row counts; a split's
    engine ids must be its meta.json ids, one run of at least a window per
    engine, so no window spans two engines. Any mismatch raises
    ValidationError naming the file.
    """
    out = Path(bundle_dir)
    meta_path = out / "meta.json"
    if not meta_path.is_file():
        raise ValidationError(f"{out} is not a preprocessing bundle (no meta.json)")
    meta = read_json(meta_path)
    fmt = meta.get("format") if isinstance(meta, dict) else None
    if fmt != BUNDLE_FORMAT:
        raise ValidationError(
            f"{meta_path}: bundle format {fmt!r} is not {BUNDLE_FORMAT!r}; "
            "re-run `rulkit preprocess` to rebuild the bundle"
        )
    try:
        counts = meta["counts"]
        window = meta["pipeline"]["window"]
        n_features = len(meta["feature_names"])
        split_ids = {split: sorted(meta[f"{split}_ids"]) for split in _SPLITS}
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{meta_path}: missing or malformed entry {exc}") from None
    if not isinstance(window, int) or window < 1:
        raise ValidationError(f"{meta_path}: pipeline window must be a positive integer")
    scaler = load_scaler(out / "scaler.json")
    parts = {}
    for split in _SPLITS:
        n = counts.get(f"{split}_rows")
        rows = _load_array(out / f"{split}_rows.npy", np.float64, (n, n_features))
        rul = _load_array(out / f"{split}_rul.npy", np.float64, (n,))
        engines_path = out / f"{split}_engines.npy"
        engines = _load_array(engines_path, np.int64, (n,))
        if np.unique(engines).tolist() != split_ids[split]:
            raise ValidationError(f"{engines_path}: engine ids are not meta.json's {split}_ids")
        try:
            parts[f"{split}_rows"] = SampleSet(rows, rul, engines)
            parts[f"{split}_windows"] = replace(parts[f"{split}_rows"], window=window)
        except ValidationError as exc:
            raise ValidationError(f"{engines_path}: {exc}") from None
    engine_ids = np.union1d(parts["train_rows"].engine_ids, parts["val_rows"].engine_ids)
    for name, actual in (
        ("train_windows", len(parts["train_windows"])),
        ("val_windows", len(parts["val_windows"])),
        ("total_windows", counts["train_windows"] + counts["val_windows"]),
        ("total_rows", counts["train_rows"] + counts["val_rows"]),
        ("engines", engine_ids.size),
    ):
        if counts.get(name) != actual:
            raise ValidationError(
                f"{meta_path}: counts.{name} is {counts.get(name)}, but the arrays hold {actual}"
            )
    return Bundle(meta=meta, scaler=scaler, **parts)


def prepare_test_engine(
    traj: EngineTrajectory,
    scaler: ScalerParams,
    selection: FeatureSelection,
    *,
    alpha: float = DEFAULT_ALPHA,
    trim: int = DEFAULT_TRIM,
    window: int = DEFAULT_WINDOW,
) -> tuple[np.ndarray, np.ndarray]:
    """Test-time features for one engine: (final window (W, F), final row (F,)).

    Applies the identical chain with the short-engine policy: the trim is
    reduced when the trajectory is too short, and trajectories shorter than
    the window are front-padded with their earliest scaled row.
    """
    n = effective_trim(len(traj), trim, window)
    prepared = trim_head(smooth_trajectory(traj, alpha), n)
    scaled = apply_minmax(scaler, prepared, selection)
    return final_window(scaled, window), scaled.features[-1].copy()
