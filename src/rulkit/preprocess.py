"""Preprocessing chain for trajectory data.

Fixed stage order: select the varying channels -> exponential smoothing
(sensor channels only) -> head trim -> min-max scaling fitted on training
engines -> remaining-life labeling, with an engine-level train/validation
split. Re-running on identical inputs and seed reproduces identical arrays.

Scaled data is one engine's (L, F) array or one SampleSet per split, built
in one concatenation; the LSTM's windows are gathered from a split's rows
batch by batch and never stored. At test time there is no trim: smoothing
precedes it and scaling is row by row, so it could only drop rows ahead of
the final window, and only the rows that window needs are scaled.

The feature set is a tuple of names, the form every artifact stores, and
the ScalerParams fitted on it is its one holder. It is detected, not
hardcoded: of the 3 operating settings and 21 sensors, each whose raw value
range across all training engines exceeds CONSTANT_TOLERANCE is kept. A
zero-range channel carries no signal and cannot be min-max scaled; the
single-condition files ship constant sensors and one constant setting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import cached_property
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


# Every setting and sensor, in the settings-then-sensors order of the raw
# columns; a feature set is the subsequence of these names it keeps.
FEATURE_NAMES = tuple(
    [f"setting_{i}" for i in range(1, N_SETTINGS + 1)]
    + [f"sensor_{i}" for i in range(1, N_SENSORS + 1)]
)


def feature_columns(names: Sequence[str]) -> np.ndarray:
    """Each name's index in FEATURE_NAMES, its column in feature_matrix's (L, 24)
    matrix. The names must be known and in FEATURE_NAMES order."""
    for name in names:
        if name not in FEATURE_NAMES:
            raise ValidationError(f"unrecognized feature name {name!r}")
    columns = np.array([FEATURE_NAMES.index(name) for name in names], dtype=np.intp)
    if np.any(np.diff(columns) <= 0):
        raise ValidationError(
            f"feature names {tuple(names)} are not in canonical order (settings, then sensors)"
        )
    return columns


def selection_from_feature_names(names: Sequence[str]) -> tuple[str, ...]:
    """A stored feature-name list as a tuple, checked by feature_columns."""
    names = tuple(names)
    feature_columns(names)
    return names


def feature_matrix(traj: EngineTrajectory, columns: np.ndarray | slice = slice(None)
                   ) -> np.ndarray:
    """(L, F) matrix of the settings, then the sensors, at `columns` (default: all 24)."""
    return np.hstack([traj.settings_matrix, traj.sensors_matrix])[:, columns]


def select_features(trajectories: Sequence[EngineTrajectory]) -> tuple[str, ...]:
    """The names of each setting and sensor whose raw range over all engines
    exceeds CONSTANT_TOLERANCE, in FEATURE_NAMES order."""
    if not trajectories:
        raise ValidationError("cannot select features on empty input")
    stacked = np.vstack([feature_matrix(t) for t in trajectories])
    varies = stacked.max(axis=0) - stacked.min(axis=0) > CONSTANT_TOLERANCE
    if not varies.any():
        raise ValidationError("no setting or sensor varies across the training engines")
    if not varies[:N_SETTINGS].all():
        logger.info(
            "excluding zero-range operating settings %s from features",
            (np.flatnonzero(~varies[:N_SETTINGS]) + 1).tolist(),
        )
    return tuple(n for n, keep in zip(FEATURE_NAMES, varies) if keep)


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
    # A single engine's rows are ~21 values, so the loop is bound by the
    # cost of each numpy call, not by arithmetic. Each step is therefore
    # just two ufunc calls: the row views are built once (iterating over
    # `out` always yields views; a reshape would copy a Fortran-ordered
    # input), decay is a 0-d float64 array so no Python float is converted
    # per call, and `out` is passed positionally.
    out = alpha * x
    out[0] = x[0]
    decay = np.array(1.0 - alpha)
    rows = list(out if out.ndim > 1 else out[:, None])
    step = np.empty_like(rows[0])
    for prev, cur in zip(rows, rows[1:]):
        np.multiply(prev, decay, step)
        np.add(cur, step, cur)
    return out


def smooth_trajectory(traj: EngineTrajectory, alpha: float) -> EngineTrajectory:
    """Smooth sensor channels only; operating settings pass through untouched."""
    return traj.with_sensors(ewma_smooth(traj.sensors_matrix, alpha))


def smooth_trajectories(
    trajectories: Sequence[EngineTrajectory], alpha: float
) -> list[EngineTrajectory]:
    """smooth_trajectory of every engine, in one ewma_smooth call.

    The sensors are stacked into a zero-padded (L_max, E, 21) array, so the
    recurrence runs one time loop for all engines. Each element still gets
    the same two roundings in the same order, and padding only follows an
    engine's last row, so every result is bit-identical to its own call.
    """
    stack = np.zeros((max(map(len, trajectories), default=0), len(trajectories), N_SENSORS))
    for k, traj in enumerate(trajectories):
        stack[: len(traj), k] = traj.sensors_matrix
    smoothed = ewma_smooth(stack, alpha)
    return [traj.with_sensors(smoothed[: len(traj), k]) for k, traj in enumerate(trajectories)]


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


@dataclass(frozen=True, eq=False)
class ScalerParams:
    """The feature set, by name, and its per-feature min/max fitted on training
    engines only.

    transform maps fitted training data into [0, 1] exactly; out-of-range
    values (test time) are clamped to [0, 1].
    """

    feature_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray
    # feature_columns(feature_names): each feature's column in feature_matrix.
    columns: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "columns", feature_columns(self.feature_names))
        n = len(self.feature_names)
        if np.shape(self.mins) != (n,) or np.shape(self.maxs) != (n,):
            raise ValidationError(f"scaler feature names and bounds disagree in length: {n} "
                                  f"names, mins {np.shape(self.mins)}, maxs {np.shape(self.maxs)}")
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalerParams):
            return NotImplemented
        return (self.feature_names == other.feature_names
                and np.array_equal(self.mins, other.mins)
                and np.array_equal(self.maxs, other.maxs))

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


def scaler_hash(scaler: ScalerParams) -> str:
    """sha256 of the scaler's canonical JSON, the text scaler.json holds."""
    return sha256_text(canonical_json(scaler.to_dict()))


def fit_minmax(
    trajectories: Sequence[EngineTrajectory], feature_names: tuple[str, ...]
) -> ScalerParams:
    """Fit the named features' min/max over all rows of (smoothed, trimmed) train data."""
    if not trajectories:
        raise ValidationError("cannot fit a scaler on empty input")
    columns = feature_columns(feature_names)
    stacked = np.vstack([feature_matrix(t, columns) for t in trajectories])
    mins = stacked.min(axis=0)
    maxs = stacked.max(axis=0)
    flat = np.flatnonzero(maxs - mins <= 0.0)
    if flat.size:
        names = [feature_names[i] for i in flat]
        raise ConfigError(
            f"features {names} are constant on the smoothed, trimmed training data "
            "and cannot be min-max scaled"
        )
    return ScalerParams(tuple(feature_names), mins, maxs)


def apply_minmax(scaler: ScalerParams, traj: EngineTrajectory) -> np.ndarray:
    """One trajectory's scaler features scaled into [0, 1] (clamped): an (L, F) array."""
    return scaler.transform(feature_matrix(traj, scaler.columns))


def label_rul(traj: EngineTrajectory, cap: int | None = None) -> np.ndarray:
    """Per-cycle remaining life of a run-to-failure engine: last_cycle - cycle.

    An optional cap clips large early-life labels.
    """
    rul = (traj.cycles[-1] - traj.cycles).astype(np.float64)
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


def make_rows(engines: Sequence[EngineTrajectory], scaler: ScalerParams,
              rul_cap: int | None = None) -> SampleSet:
    """One split's (smoothed, trimmed) engines as samples of one cycle each:
    scaled rows and labels, engine by engine in input order."""
    ids = np.array([t.engine_id for t in engines], dtype=np.int64)
    return SampleSet(
        np.concatenate([apply_minmax(scaler, t) for t in engines]
                       + [np.zeros((0, len(scaler.feature_names)))]),
        np.concatenate([label_rul(t, rul_cap) for t in engines] + [np.zeros(0)]),
        np.repeat(ids, [len(t) for t in engines]),
    )


def make_windows(engines: Sequence[EngineTrajectory], scaler: ScalerParams,
                 rul_cap: int | None = None, window: int = DEFAULT_WINDOW) -> SampleSet:
    """make_rows' split as sliding windows: L - window + 1 samples per engine.

    The target of a window is the RUL at its last (most recent) cycle.
    """
    return replace(make_rows(engines, scaler, rul_cap), window=window)


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


@dataclass(frozen=True)
class PreprocessResult:
    """One preprocessed training set, from run_pipeline or load_bundle: run_pipeline's
    arguments, the scaler, the split and each split's rows. The rest is derived;
    a split's windows are cut from its rows once, on first access, sharing their arrays."""

    pipeline: dict
    scaler: ScalerParams
    train_ids: tuple[int, ...]
    val_ids: tuple[int, ...]
    train_rows: SampleSet
    val_rows: SampleSet

    @cached_property
    def train_windows(self) -> SampleSet:
        return replace(self.train_rows, window=self.pipeline["window"])

    @cached_property
    def val_windows(self) -> SampleSet:
        return replace(self.val_rows, window=self.pipeline["window"])

    @property
    def total_windows(self) -> int:
        return len(self.train_windows) + len(self.val_windows)

    @property
    def total_rows(self) -> int:
        return len(self.train_rows) + len(self.val_rows)

    @property
    def meta(self) -> dict:
        """meta.json's content: write_bundle writes it, load_bundle checks a stored one."""
        return {
            "format": BUNDLE_FORMAT,
            "pipeline": self.pipeline,
            "feature_names": list(self.scaler.feature_names),
            "train_ids": list(self.train_ids),
            "val_ids": list(self.val_ids),
            "split_seed": self.pipeline["seed"],
            "scaler_hash": scaler_hash(self.scaler),
            "counts": {
                "engines": len(set(self.train_ids) | set(self.val_ids)),
                "train_windows": len(self.train_windows),
                "val_windows": len(self.val_windows),
                "train_rows": len(self.train_rows),
                "val_rows": len(self.val_rows),
                "total_windows": self.total_windows,
                "total_rows": self.total_rows,
            },
        }


def run_pipeline(
    train_trajectories: Sequence[EngineTrajectory],
    *,
    alpha: float = DEFAULT_ALPHA,
    trim: int = DEFAULT_TRIM,
    window: int = DEFAULT_WINDOW,
    n_val: int = DEFAULT_N_VAL,
    seed: int = 0,
    rul_cap: int | None = None,
) -> PreprocessResult:
    """Run the full training-side chain on parsed training trajectories."""
    if not train_trajectories:
        raise ValidationError("no training trajectories")
    prepared = [trim_head(t, trim) for t in smooth_trajectories(train_trajectories, alpha)]
    scaler = fit_minmax(prepared, select_features(train_trajectories))
    train_ids, val_ids = split_by_engine([t.engine_id for t in train_trajectories], n_val, seed)
    train_rows, val_rows = (
        make_rows([t for t in prepared if t.engine_id in ids], scaler, rul_cap)
        for ids in (set(train_ids), set(val_ids))
    )
    result = PreprocessResult(
        dict(alpha=alpha, trim=trim, window=window, n_val=n_val, seed=seed, rul_cap=rul_cap),
        scaler, train_ids, val_ids, train_rows, val_rows,
    )
    # Cutting the windows rejects an engine shorter than one.
    logger.info("%d training windows", result.total_windows)
    return result


INVARIANTS = (
    "scaled features lie in [0, 1]",
    "scaler inverse round-trips its own transform",
    "engine split is disjoint and exhaustive",
)


def invariant_failures(
    trajectories: Sequence[EngineTrajectory],
    result: PreprocessResult,
) -> list[str]:
    """Names (from INVARIANTS) of the invariants that `result`, run_pipeline's
    result on `trajectories`, breaks; an empty list means every invariant holds."""
    failures = []
    splits = [s.rows for s in (result.train_rows, result.val_rows) if s.rows.size]
    if not splits or any(rows.min() < 0.0 or rows.max() > 1.0 for rows in splits):
        failures.append(INVARIANTS[0])
    features = np.vstack([
        feature_matrix(trim_head(t, result.pipeline["trim"]), result.scaler.columns)
        for t in smooth_trajectories(trajectories, result.pipeline["alpha"])
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


def write_bundle(out_dir: Path | str, result: PreprocessResult,
                 pipeline: dict | None = None) -> None:
    """Persist a PreprocessResult as meta.json (its `meta`), scaler.json and .npy arrays.

    A split is stored as its rows, RUL and engine ids: `<split>_rows.npy`, `<split>_rul.npy`
    and `<split>_engines.npy`. A `pipeline` other than result.pipeline writes nothing.
    """
    if pipeline is not None and pipeline != result.pipeline:
        raise ConfigError(f"pipeline {pipeline} is not the result's {result.pipeline}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "meta.json", canonical_json(result.meta) + "\n")
    atomic_write_text(out / "scaler.json", canonical_json(result.scaler.to_dict()) + "\n")
    for split in _SPLITS:
        samples = getattr(result, f"{split}_rows")
        np.save(out / f"{split}_rows.npy", samples.rows)
        np.save(out / f"{split}_rul.npy", samples.rul)
        np.save(out / f"{split}_engines.npy", samples.engine_ids)


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
    """One bundle array, which must have exactly this dtype and shape, all finite."""
    try:
        arr = np.load(path)
    except (ValueError, EOFError) as exc:
        raise ValidationError(f"{path}: unreadable array ({exc})") from None
    if arr.dtype != dtype or arr.shape != shape:
        raise ValidationError(
            f"{path}: expected {np.dtype(dtype)} array of shape {shape} (row count "
            f"from meta.json), got {arr.dtype} array of shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{path}: array holds non-finite values")
    return arr


def _stored_count(meta_path: Path, counts: dict, key: str) -> int:
    value = counts.get(key)
    if type(value) is not int or value < 0:
        raise ValidationError(f"{meta_path}: counts.{key} must be a non-negative integer, "
                              f"got {value!r}")
    return value


def load_bundle(bundle_dir: Path | str) -> PreprocessResult:
    """Read a bundle back as the PreprocessResult it was written from.

    scaler.json's hash must be meta.json's scaler_hash; arrays need write_bundle's
    dtypes, meta.json's row counts and finite values; a split's engine ids must be
    its meta.json ids, one run of at least a window per engine. Every other entry
    of meta.json must equal the result's `meta`. A mismatch raises ValidationError
    naming the file.
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
        counts, pipeline = meta["counts"], meta["pipeline"]
        window, _ = pipeline["window"], pipeline["seed"]  # the seed is meta's split_seed
        split_ids = {split: tuple(meta[f"{split}_ids"]) for split in _SPLITS}
        meta_scaler_hash = meta["scaler_hash"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{meta_path}: missing or malformed entry {exc}") from None
    if not isinstance(window, int) or window < 1:
        raise ValidationError(f"{meta_path}: pipeline window must be a positive integer")
    if not isinstance(counts, dict):
        raise ValidationError(f"{meta_path}: counts is not a JSON object")
    scaler_path = out / "scaler.json"
    scaler = load_scaler(scaler_path)
    if scaler_hash(scaler) != meta_scaler_hash:
        raise ValidationError(
            f"{scaler_path}: scaler does not match the scaler_hash in {meta_path}; "
            "re-run `rulkit preprocess` to rebuild the bundle"
        )
    rows = {}
    for split in _SPLITS:
        n = _stored_count(meta_path, counts, f"{split}_rows")
        split_rows = _load_array(out / f"{split}_rows.npy", np.float64,
                                 (n, len(scaler.feature_names)))
        rul = _load_array(out / f"{split}_rul.npy", np.float64, (n,))
        engines_path = out / f"{split}_engines.npy"
        engines = _load_array(engines_path, np.int64, (n,))
        if np.unique(engines).tolist() != sorted(split_ids[split]):
            raise ValidationError(f"{engines_path}: engine ids are not meta.json's {split}_ids")
        try:
            rows[split] = SampleSet(split_rows, rul, engines)
        except ValidationError as exc:
            raise ValidationError(f"{engines_path}: {exc}") from None
    result = PreprocessResult(pipeline, scaler, split_ids["train"], split_ids["val"],
                              rows["train"], rows["val"])
    for split in _SPLITS:
        try:
            getattr(result, f"{split}_windows")
        except ValidationError as exc:
            raise ValidationError(f"{out / f'{split}_engines.npy'}: {exc}") from None
    expected = result.meta
    for key, actual in expected["counts"].items():
        if _stored_count(meta_path, counts, key) != actual:
            raise ValidationError(f"{meta_path}: counts.{key} is {counts[key]}, "
                                  f"but the arrays hold {actual}")
    for key, value in expected.items():
        if meta.get(key) != value:
            raise ValidationError(f"{meta_path}: {key} is {meta.get(key)!r}, "
                                  f"but the rest of the bundle gives {value!r}")
    return result


def prepare_test_engine(
    traj: EngineTrajectory,
    scaler: ScalerParams,
    selection: Sequence[str],
    *,
    alpha: float = DEFAULT_ALPHA,
    trim: int = DEFAULT_TRIM,
    window: int = DEFAULT_WINDOW,
) -> tuple[np.ndarray, np.ndarray]:
    """Test-time features for one engine: (final window (W, F), final row (F,)).

    `selection`, the caller's feature names, must be the scaler's. Smooths, then
    runs final_features for the window, whose last row is the row. `trim`
    cannot change the result (see the module docstring); a negative one is
    still rejected.
    """
    if tuple(selection) != scaler.feature_names:
        raise ValidationError(f"feature order mismatch: selection {tuple(selection)} "
                              f"vs scaler {scaler.feature_names}")
    smoothed = smooth_trajectory(traj, alpha)
    if trim < 0:
        raise ConfigError(f"trim length must be >= 0, got {trim}")
    w = final_features(smoothed, scaler, window=window)
    return w, w[-1].copy()


def final_features(
    smoothed: EngineTrajectory,
    scaler: ScalerParams,
    *,
    window: int | None,
) -> np.ndarray:
    """One smoothed engine's model input, scaling only the rows it needs:
    with `window` None the final row (F,); with window W the final W rows
    (W, F), front-padded with the earliest scaled row if the engine is shorter."""
    scaled = apply_minmax(scaler, trim_head(smoothed, max(len(smoothed) - (window or 1), 0)))
    if window is None:
        return scaled[0]
    return np.vstack([np.repeat(scaled[:1], window - len(scaled), axis=0), scaled])
