"""The test-time chain against the old one that trimmed each engine's head.

`reference_final_features` is the chain from when test engines were trimmed
before scaling: `effective_trim` reduced the trim so a final window still
fit, then the trimmed engine was scaled whole and its final window and row
cut. It is frozen here as the oracle. On random engines, trims and windows,
prepare_test_engine and train_eval.final_inputs must equal it bit for bit,
since the trim can only drop rows ahead of the final window.
`reference_smooth` smooths one engine on its own, so the second property
also checks that stacking every engine into one array changes no bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulkit import models, preprocess, train_eval
from rulkit.dataset_io import EngineTrajectory, N_SENSORS, N_SETTINGS
from rulkit.errors import ConfigError
from rulkit.numerics import SeededRng


def reference_effective_trim(length: int, trim: int, window: int) -> int:
    """Trim to apply to one engine, reduced so a final window still fits."""
    return min(trim, max(length - window, 0))


def reference_trim_head(traj: EngineTrajectory, n: int) -> EngineTrajectory:
    if n < 0:
        raise ConfigError(f"trim length must be >= 0, got {n}")
    if n == 0:
        return traj
    return EngineTrajectory(traj.engine_id, traj.values[n:])


def reference_final_window(features: np.ndarray, window: int) -> np.ndarray:
    if len(features) >= window:
        return features[-window:].copy()
    pad = np.repeat(features[:1], window - len(features), axis=0)
    return np.vstack([pad, features])


def reference_final_features(smoothed, scaler, selection, trim, window):
    """(final window (W, F), final row (F,)) of one smoothed engine."""
    n = reference_effective_trim(len(smoothed), trim, window)
    trimmed = reference_trim_head(smoothed, n)
    columns = preprocess.feature_columns(selection)
    raw = trimmed.values[:, columns]
    features = np.clip((raw - scaler.mins) / (scaler.maxs - scaler.mins), 0.0, 1.0)
    return reference_final_window(features, window), features[-1].copy()


def reference_smooth(traj, alpha):
    """One engine smoothed alone: its sensors by ewma_smooth, its settings raw."""
    values = preprocess.ewma_smooth(traj.values, alpha)
    values[:, :N_SETTINGS] = traj.values[:, :N_SETTINGS]
    return EngineTrajectory(traj.engine_id, values)


def _engine(engine_id, length, gen):
    return EngineTrajectory(engine_id, np.hstack([
        gen.uniform(-1.5, 1.5, (length, N_SETTINGS)),
        gen.uniform(-0.5, 1.5, (length, N_SENSORS)),
    ]))


@pytest.fixture(scope="module")
def fitted():
    """A scaler and its feature names, fitted on a small random corpus."""
    gen = np.random.Generator(np.random.PCG64(5))
    train = [_engine(i, 60, gen) for i in range(1, 5)]
    result = preprocess.run_pipeline(train, trim=3, window=5, n_val=1, seed=0)
    return result.scaler, result.scaler.feature_names


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 60), min_size=1, max_size=5),
    st.integers(0, 15),
    st.integers(1, 25),
    st.sampled_from([0.1, 0.37, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_test_time_chain_equals_the_trimming_reference(fitted, lengths, trim, window,
                                                       alpha, seed):
    scaler, selection = fitted
    gen = np.random.Generator(np.random.PCG64(seed))
    engines = [_engine(i, length, gen) for i, length in enumerate(lengths, start=1)]
    expected = [
        reference_final_features(
            preprocess.smooth_trajectory(t, alpha), scaler, selection, trim, window
        )
        for t in engines
    ]
    for traj, (want_window, want_row) in zip(engines, expected):
        got_window, got_row = preprocess.prepare_test_engine(
            traj, scaler, selection, alpha=alpha, trim=trim, window=window
        )
        assert got_window.shape == want_window.shape
        assert got_window.tobytes() == want_window.tobytes()
        assert got_row.tobytes() == want_row.tobytes()

    for kind in train_eval.MODEL_KINDS:
        config = train_eval.TrainConfig(model=kind, window=window, trim=trim, alpha=alpha,
                                        lstm_hidden=2, mlp_hidden=(2,))
        params = models.MODELS[kind].init(len(selection), config, SeededRng(0))
        model = train_eval.TrainedModel(
            kind=kind, params=params, window=window, feature_names=selection,
            scaler_hash=train_eval.scaler_hash(scaler), config_hash="", seed=0,
        )
        got = train_eval.final_inputs(model, engines, scaler, config)
        want = np.stack([w if kind == "lstm" else r for w, r in expected])
        assert got.tobytes() == want.tobytes()


@st.composite
def _scoring_cases(draw):
    """A window (None: the MLP's rows), engine lengths of 1, below, at and above
    it, an alpha, and a scaler over a drawn column set, with or without settings."""
    window = draw(st.none() | st.integers(1, 30))
    width = window or 1
    lengths = draw(st.lists(
        st.just(1) | st.integers(1, max(width - 1, 1)) | st.just(width)
        | st.integers(width + 1, width + 40),
        min_size=1, max_size=6,
    ))
    alpha = draw(st.sampled_from([1.0, 0.1, 0.01]))
    first = 0 if draw(st.booleans()) else N_SETTINGS
    columns = draw(st.lists(st.integers(first, N_SETTINGS + N_SENSORS - 1),
                            min_size=1, max_size=8, unique=True))
    return window, lengths, alpha, sorted(columns), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_scoring_cases())
def test_stacked_scoring_equals_the_per_engine_reference(case):
    window, lengths, alpha, columns, seed = case
    gen = np.random.Generator(np.random.PCG64(seed))
    mins = gen.uniform(-0.5, 0.5, len(columns))
    scaler = preprocess.ScalerParams(tuple(preprocess.FEATURE_NAMES[c] for c in columns),
                                     mins, mins + gen.uniform(0.1, 2.0, len(columns)))
    selection = scaler.feature_names
    engines = [_engine(i, length, gen) for i, length in enumerate(lengths, start=1)]
    expected = [reference_final_features(reference_smooth(t, alpha), scaler, selection,
                                         0, window or 1) for t in engines]
    if window is not None:
        for traj, (want_window, want_row) in zip(engines, expected):
            got_window, got_row = preprocess.prepare_test_engine(
                traj, scaler, selection, alpha=alpha, window=window)
            assert got_window.shape == want_window.shape
            assert got_window.tobytes() == want_window.tobytes()
            assert got_row.tobytes() == want_row.tobytes()

    kind = "mlp" if window is None else "lstm"
    config = train_eval.TrainConfig(model=kind, window=window or 1, alpha=alpha,
                                    lstm_hidden=2, mlp_hidden=(2,))
    model = train_eval.TrainedModel(
        kind=kind, params=models.MODELS[kind].init(len(selection), config, SeededRng(0)),
        window=config.window, feature_names=selection,
        scaler_hash=train_eval.scaler_hash(scaler), config_hash="", seed=0,
    )
    got = train_eval.final_inputs(model, engines, scaler, config)
    want = np.stack([w if window is not None else r for w, r in expected])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("trim", [-1, -7])
def test_negative_trim_raises_the_reference_error(fitted, trim):
    scaler, selection = fitted
    traj = preprocess.smooth_trajectory(_engine(1, 30, np.random.Generator(np.random.PCG64(1))),
                                        0.1)
    with pytest.raises(ConfigError) as want:
        reference_final_features(traj, scaler, selection, trim, 20)
    with pytest.raises(ConfigError) as got:
        preprocess.prepare_test_engine(traj, scaler, selection, trim=trim, window=20)
    assert str(got.value) == str(want.value)
