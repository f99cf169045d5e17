"""Preprocessing chain: smoothing, trimming, scaling, labeling, windowing."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rulkit import dataset_io, simdata
from rulkit.dataset_io import EngineTrajectory, N_SENSORS, N_SETTINGS
from rulkit.errors import ConfigError, ValidationError
from rulkit.ioutil import canonical_json, sha256_text
from rulkit.numerics import SeededRng
from rulkit.preprocess import (
    FEATURE_NAMES,
    ScalerParams,
    apply_minmax,
    ewma_smooth,
    feature_columns,
    feature_matrix,
    final_features,
    fit_minmax,
    INVARIANTS,
    invariant_failures,
    label_rul,
    load_bundle,
    load_scaler,
    make_rows,
    make_windows,
    prepare_test_engine,
    run_pipeline,
    select_features,
    selection_from_feature_names,
    smooth_trajectories,
    smooth_trajectory,
    split_by_engine,
    trim_head,
    write_bundle,
)


def make_traj(engine_id, sensors, settings=None, start_cycle=1):
    """Trajectory from an (L, 21) sensor matrix (settings default to zeros)."""
    sensors = np.asarray(sensors, dtype=np.float64)
    length = sensors.shape[0]
    if settings is None:
        settings = np.zeros((length, N_SETTINGS))
    cycles = np.arange(start_cycle, start_cycle + length)
    return EngineTrajectory(engine_id, cycles, settings, sensors)


def random_traj(engine_id, length, seed, sensor_scale=1.0):
    gen = np.random.Generator(np.random.PCG64(seed))
    sensors = gen.uniform(0.0, sensor_scale, (length, N_SENSORS))
    settings = gen.uniform(-1.0, 1.0, (length, N_SETTINGS))
    return make_traj(engine_id, sensors, settings)


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------


def test_ewma_hand_oracle_alpha_half():
    # s0=1; s1=0.5*2+0.5*1=1.5; s2=0.5*3+0.5*1.5=2.25 (exact in binary).
    out = ewma_smooth(np.array([1.0, 2.0, 3.0]), alpha=0.5)
    assert out.tolist() == [1.0, 1.5, 2.25]


def test_ewma_hand_oracle_alpha_quarter():
    # s2 = 0.25*10 + 0.75*2 = 4 exactly.
    out = ewma_smooth(np.array([2.0, 2.0, 10.0]), alpha=0.25)
    assert out.tolist() == [2.0, 2.0, 4.0]


def test_ewma_alpha_one_is_identity():
    series = SeededRng(4).uniform(-10.0, 10.0, (50, 3))
    assert np.array_equal(ewma_smooth(series, 1.0), series)


def test_ewma_constant_series_is_fixed_point():
    series = np.full((30, 2), -3.75)
    assert np.array_equal(ewma_smooth(series, 0.1), series)


def test_ewma_columns_are_independent():
    series = np.column_stack([np.array([1.0, 2.0, 3.0]), np.array([5.0, 5.0, 5.0])])
    out = ewma_smooth(series, 0.5)
    assert out[:, 0].tolist() == [1.0, 1.5, 2.25]
    assert out[:, 1].tolist() == [5.0, 5.0, 5.0]


def test_ewma_stays_within_data_range():
    series = SeededRng(8).uniform(2.0, 7.0, 200)
    out = ewma_smooth(series, 0.1)
    assert out.min() >= 2.0 and out.max() <= 7.0


def reference_ewma(x, alpha):
    """The recurrence written out per step, as ewma_smooth first computed it."""
    out = np.empty_like(x)
    out[0] = x[0]
    decay = 1.0 - alpha
    for t in range(1, x.shape[0]):
        out[t] = alpha * x[t] + decay * out[t - 1]
    return out


def _column_strided(x):
    """x's values in every other slot of a wider array's last axis."""
    wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
    wide[..., ::2] = x
    return wide[..., ::2]


# The same values in different memory layouts. ewma_smooth walks axis 0 of
# `alpha * x`, which keeps the input's layout; a loop over a reshaped copy
# instead of views would leave a Fortran-ordered 3-D result unsmoothed.
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "column-strided": _column_strided,
    "transposed": lambda x: np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0),
}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40),
    st.sampled_from([(), (1,), (3,), (21,), (2, 3), (3, 4)]),
    st.one_of(st.just(1.0), st.floats(1e-6, 1.0, exclude_min=True)),
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(LAYOUTS)),
)
@example(6, (3, 4), 0.1, 0, "F")
@example(1, (21,), 0.1, 0, "C")
@example(1, (3, 4), 0.37, 1, "transposed")
def test_ewma_matches_reference_loop_bit_for_bit(length, tail, alpha, seed, layout):
    gen = np.random.Generator(np.random.PCG64(seed))
    x = gen.normal(size=(length,) + tail) * 10.0 ** gen.integers(-300, 300, (length,) + tail)
    x[gen.random(x.shape) < 0.1] = -0.0
    x = LAYOUTS[layout](x)
    before = x.copy()
    got, want = ewma_smooth(x, alpha), reference_ewma(before, alpha)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(x.view(np.uint64), before.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(
    np.float64, hnp.array_shapes(max_dims=3, max_side=12),
    elements=st.floats(allow_nan=False, allow_infinity=False),
))
def test_ewma_alpha_one_is_identity_property(x):
    assert np.array_equal(ewma_smooth(x, 1.0), x)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 60),
    st.sampled_from([(), (1,), (3,), (2, 3)]),
    st.floats(1e-6, 1.0),
    st.floats(1e-300, 1e300),
    st.booleans(),
)
def test_ewma_constant_series_stays_constant(length, tail, alpha, magnitude, negative):
    # Not an exact fixed point: at alpha 0.1 the constant 0.3 smooths to
    # 0.30000000000000004 at step 1. Each step rounds three times and damps
    # the error it inherits, so step t is within 2 * t * eps relative.
    value = -magnitude if negative else magnitude
    out = ewma_smooth(np.full((length,) + tail, value), alpha)
    steps = np.arange(length).reshape((length,) + (1,) * len(tail))
    assert np.all(np.abs(out - value) <= 2 * steps * np.finfo(np.float64).eps * magnitude)


@pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
def test_ewma_rejects_bad_alpha(alpha):
    with pytest.raises(ConfigError, match="alpha"):
        ewma_smooth(np.ones(5), alpha)


def test_ewma_rejects_empty_series():
    with pytest.raises(ValidationError, match="empty"):
        ewma_smooth(np.zeros((0, 2)), 0.5)


def test_smooth_trajectory_touches_sensors_only():
    traj = random_traj(1, 20, seed=0)
    smoothed = smooth_trajectory(traj, 0.1)
    assert np.array_equal(smoothed.settings_matrix, traj.settings_matrix)
    assert np.array_equal(
        smoothed.sensors_matrix, ewma_smooth(traj.sensors_matrix, 0.1)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 60), min_size=1, max_size=8),
    st.floats(1e-6, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_smooth_trajectories_matches_per_engine_bit_for_bit(lengths, alpha, seed):
    engines = [random_traj(k + 1, n, seed + k, sensor_scale=1e3) for k, n in enumerate(lengths)]
    for traj, smoothed in zip(engines, smooth_trajectories(engines, alpha)):
        want = ewma_smooth(traj.sensors_matrix, alpha)
        assert np.array_equal(smoothed.sensors_matrix.view(np.int64), want.view(np.int64))
        assert smoothed.settings_matrix is traj.settings_matrix
        assert smoothed.cycles is traj.cycles


def test_smooth_trajectories_rejects_empty_input():
    with pytest.raises(ValidationError, match="empty"):
        smooth_trajectories([], 0.1)


# ---------------------------------------------------------------------------
# Trimming and feature selection
# ---------------------------------------------------------------------------


def test_trim_head_drops_rows_and_keeps_cycle_numbers():
    traj = random_traj(1, 15, seed=1)
    trimmed = trim_head(traj, 10)
    assert len(trimmed) == 5
    assert trimmed.cycles.tolist() == list(range(11, 16))
    assert np.array_equal(trimmed.sensors_matrix, traj.sensors_matrix[10:])


def test_trim_head_zero_is_identity():
    traj = random_traj(1, 5, seed=2)
    assert trim_head(traj, 0) is traj


def test_trim_head_rejects_overlong_trim():
    traj = random_traj(7, 10, seed=3)
    with pytest.raises(ValidationError, match="engine 7"):
        trim_head(traj, 10)


def test_trim_head_rejects_negative():
    with pytest.raises(ConfigError):
        trim_head(random_traj(1, 5, seed=4), -1)


def without(*dropped):
    """The feature names of every setting and sensor except `dropped`."""
    return tuple(n for n in FEATURE_NAMES if n not in dropped)


def test_feature_selection_orders_settings_before_sensors():
    names = without("sensor_1", "sensor_5", "setting_3")
    assert names[:2] == ("setting_1", "setting_2")
    assert "sensor_1" not in names
    assert "sensor_5" not in names
    assert len(names) == 2 + (N_SENSORS - 2)
    # Columns index the settings-then-sensors matrix: sensor k is column 2 + k.
    columns = feature_columns(names)
    assert columns.tolist()[:4] == [0, 1, 4, 5]
    assert feature_matrix(random_traj(1, 4, seed=15), columns).shape == (4, len(names))


def test_feature_selection_rejects_out_of_range():
    with pytest.raises(ValidationError, match="unrecognized feature name 'sensor_0'"):
        feature_columns(("sensor_0",))
    with pytest.raises(ValidationError, match="unrecognized feature name 'setting_4'"):
        feature_columns(("setting_4",))


def test_selection_round_trips_through_feature_names():
    names = without(*(f"sensor_{i}" for i in (1, 5, 6, 10, 16, 18, 19)), "setting_3")
    assert selection_from_feature_names(list(names)) == names


def test_selection_from_names_rejects_unknown_and_misordered():
    with pytest.raises(ValidationError, match="unrecognized feature name"):
        selection_from_feature_names(("setting_1", "sensor_99"))
    with pytest.raises(ValidationError, match="unrecognized feature name"):
        selection_from_feature_names(("voltage_2",))
    with pytest.raises(ValidationError, match="canonical order"):
        selection_from_feature_names(("sensor_2", "setting_1"))
    with pytest.raises(ValidationError, match="canonical order"):
        selection_from_feature_names(("sensor_2", "sensor_2"))


def test_detect_constant_channels():
    sensors = np.tile(np.arange(1.0, 22.0), (30, 1))  # every sensor constant
    sensors[:, 4] = np.linspace(0.0, 1.0, 30)  # sensor 5 varies
    settings = np.zeros((30, N_SETTINGS))
    settings[:, 0] = np.linspace(-1, 1, 30)  # setting 1 varies
    traj = make_traj(1, sensors, settings)
    assert select_features([traj]) == ("setting_1", "sensor_5")
    with pytest.raises(ValidationError, match="no setting or sensor varies"):
        select_features([make_traj(1, sensors[:, [0] * N_SENSORS])])


def test_detect_constant_spans_multiple_engines():
    # Constant within each engine but different across engines -> not constant.
    a = make_traj(1, np.full((10, N_SENSORS), 1.0))
    b = make_traj(2, np.full((10, N_SENSORS), 2.0))
    names = select_features([a, b])
    assert names == tuple(f"sensor_{i}" for i in range(1, N_SENSORS + 1))


def test_select_features_drops_detected_channels():
    sensors = SeededRng(5).uniform(0.0, 1.0, (40, N_SENSORS))
    sensors[:, 0] = 518.67  # sensor 1 constant
    settings = SeededRng(6).uniform(-1.0, 1.0, (40, N_SETTINGS))
    settings[:, 2] = 100.0  # setting 3 constant
    names = select_features([make_traj(1, sensors, settings)])
    assert names == without("sensor_1", "setting_3")
    assert "sensor_1" not in names
    assert "setting_3" not in names


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


def test_fit_minmax_oracle():
    names = ("setting_1", "setting_2", "setting_3", "sensor_1")
    sensors = np.zeros((4, N_SENSORS))
    sensors[:, 0] = [2.0, 8.0, 4.0, 6.0]
    settings = np.column_stack([
        np.array([0.0, 1.0, 0.5, 0.25]),
        np.array([-1.0, 1.0, 0.0, 0.0]),
        np.array([5.0, 6.0, 7.0, 8.0]),
    ])
    scaler = fit_minmax([make_traj(1, sensors, settings)], names)
    assert scaler.feature_names == ("setting_1", "setting_2", "setting_3", "sensor_1")
    assert scaler.mins.tolist() == [0.0, -1.0, 5.0, 2.0]
    assert scaler.maxs.tolist() == [1.0, 1.0, 8.0, 8.0]
    scaled = scaler.transform(np.array([[0.5, 0.0, 5.0, 5.0]]))
    assert scaled.tolist() == [[0.5, 0.5, 0.0, 0.5]]


def test_fit_minmax_names_constant_features():
    sensors = np.zeros((5, N_SENSORS))
    sensors[:, 0] = 7.0  # sensor 1 constant -> cannot scale
    sensors[:, 1] = np.arange(5.0)
    with pytest.raises(ConfigError, match=r"sensor_1.*constant"):
        fit_minmax([make_traj(1, sensors)], ("sensor_1", "sensor_2"))


def test_transform_clamps_out_of_range_values():
    scaler = ScalerParams(("sensor_1",), np.array([0.0]), np.array([10.0]))
    scaled = scaler.transform(np.array([[-5.0], [5.0], [25.0]]))
    assert scaled.tolist() == [[0.0], [0.5], [1.0]]


def test_scaler_inverse_round_trip_tight():
    gen = np.random.Generator(np.random.PCG64(21))
    mins = gen.uniform(-100.0, 0.0, 6)
    maxs = mins + gen.uniform(0.5, 9000.0, 6)
    scaler = ScalerParams(tuple(f"sensor_{i}" for i in range(1, 7)), mins, maxs)
    x = mins + (maxs - mins) * gen.uniform(0.0, 1.0, (500, 6))
    np.testing.assert_allclose(
        scaler.inverse(scaler.transform(x)), x, rtol=1e-12, atol=1e-12
    )


def test_scaler_dict_round_trip():
    scaler = ScalerParams(("setting_1", "sensor_2"), np.array([0.1, -3.0]), np.array([0.2, 9.5]))
    assert ScalerParams.from_dict(scaler.to_dict()) == scaler


def test_scalers_compare_by_names_and_bounds():
    names = ("setting_1", "sensor_2")
    scaler = ScalerParams(names, np.array([0.1, -3.0]), np.array([0.2, 9.5]))
    assert scaler == ScalerParams(names, np.array([0.1, -3.0]), np.array([0.2, 9.5]))
    assert scaler != ScalerParams(names, np.array([0.1, -2.0]), np.array([0.2, 9.5]))
    assert scaler != ScalerParams(names, np.array([0.1, -3.0]), np.array([0.2, 9.0]))
    assert scaler != ScalerParams(("setting_1", "sensor_3"), scaler.mins, scaler.maxs)
    assert scaler != names


def test_scaler_rejects_inconsistent_bounds():
    with pytest.raises(ValidationError, match="max < min"):
        ScalerParams(("sensor_1",), np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValidationError, match="disagree in length"):
        ScalerParams(("sensor_1",), np.array([0.0, 1.0]), np.array([1.0, 2.0]))


@pytest.mark.parametrize(
    "mins, maxs, problem",
    [
        ([0.0, 2.0], [1.0, 2.0], "max == min"),
        ([0.0, np.nan], [1.0, 2.0], "non-finite"),
        ([0.0, 1.0], [1.0, np.inf], "non-finite"),
        ([0.0, 3.0], [1.0, 2.0], "max < min"),
    ],
)
def test_scaler_from_dict_rejects_degenerate_bounds_naming_feature(mins, maxs, problem):
    d = {"feature_names": ["setting_1", "sensor_2"], "mins": mins, "maxs": maxs}
    with pytest.raises(ValidationError, match=f"{problem}.*'sensor_2'"):
        ScalerParams.from_dict(d)


@pytest.mark.parametrize("mins, maxs", [(0.5, 0.7), ([[0.1], [0.2]], [[0.2], [0.3]])])
def test_load_scaler_rejects_bounds_that_are_not_one_entry_per_name(tmp_path, mins, maxs):
    path = tmp_path / "scaler.json"
    path.write_text(json.dumps(
        {"feature_names": ["setting_1", "sensor_2"], "mins": mins, "maxs": maxs}
    ), encoding="utf-8")
    with pytest.raises(ValidationError, match="scaler.json: .*disagree in length"):
        load_scaler(path)


def test_load_bundle_rejects_unknown_feature_with_consistent_hash(tiny_corpus, tmp_path):
    # scaler.json and meta.json agree, down to the hash, on a name no raw column has.
    result = run_pipeline(tiny_corpus, trim=5, window=10, n_val=1, seed=2)
    write_bundle(tmp_path / "bundle", result)
    scaler_path, meta_path = tmp_path / "bundle" / "scaler.json", tmp_path / "bundle" / "meta.json"
    d = json.loads(scaler_path.read_text(encoding="utf-8"))
    d["feature_names"][-1] = "sensor_99"
    text = canonical_json(d)
    scaler_path.write_text(text + "\n", encoding="utf-8")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta.update(feature_names=d["feature_names"], scaler_hash=sha256_text(text))
    meta_path.write_text(canonical_json(meta) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError,
                       match="scaler.json: unrecognized feature name 'sensor_99'"):
        load_bundle(tmp_path / "bundle")


def test_load_bundle_rejects_zero_range_scaler(tiny_corpus, tmp_path):
    # A hand-edited scaler.json with max == min would divide by zero at
    # transform time; loading the bundle must fail instead.
    result = run_pipeline(tiny_corpus, trim=5, window=10, n_val=1, seed=2)
    pipeline = {"alpha": 0.1, "trim": 5, "window": 10, "n_val": 1, "seed": 2, "rul_cap": None}
    write_bundle(tmp_path / "bundle", result, pipeline)
    path = tmp_path / "bundle" / "scaler.json"
    d = json.loads(path.read_text(encoding="utf-8"))
    d["maxs"][1] = d["mins"][1]
    path.write_text(json.dumps(d), encoding="utf-8")
    name = d["feature_names"][1]
    with pytest.raises(ValidationError, match=f"scaler.json: .*max == min.*'{name}'"):
        load_bundle(tmp_path / "bundle")


def test_prepare_test_engine_rejects_a_selection_not_the_scalers():
    traj = random_traj(1, 10, seed=9)
    scaler = fit_minmax([traj], without("sensor_1"))
    with pytest.raises(ValidationError, match="feature order mismatch"):
        prepare_test_engine(traj, scaler, without("sensor_2"), trim=0, window=5)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(1, 12),
    st.integers(0, 5),
    st.lists(st.integers(1, 40), min_size=1, max_size=4),
    st.floats(1e-3, 1e6),
    st.integers(0, 2**32 - 1),
)
def test_scaled_output_stays_in_unit_interval(
    n_train, window, trim, test_lengths, spread, seed
):
    """Training rows span [0, 1] exactly; test engines outside the fitted range clamp into it."""
    gen = np.random.Generator(np.random.PCG64(seed))
    train = [
        random_traj(i + 1, int(gen.integers(trim + window, trim + window + 20)), seed + i)
        for i in range(n_train)
    ]
    result = run_pipeline(train, trim=trim, window=window, n_val=1, seed=0)
    rows = np.concatenate([result.train_rows.rows, result.val_rows.rows])
    assert rows.min(axis=0).tolist() == [0.0] * rows.shape[1]
    assert rows.max(axis=0).tolist() == [1.0] * rows.shape[1]

    for engine_id, length in enumerate(test_lengths, start=1):
        # Per column: inside the training range, above it or below it by up to `spread`.
        offset = gen.choice([0.0, 1.0, -1.0], size=N_SENSORS) * spread
        offset[0] = 1.0 + spread  # above every training value: out of range
        sensors = gen.uniform(0.0, 1.0, (length, N_SENSORS)) + offset
        settings = gen.uniform(-1.0, 1.0, (length, N_SETTINGS)) * (1.0 + spread)
        test = make_traj(engine_id, sensors, settings)
        last_window, last_row = prepare_test_engine(
            test, result.scaler, result.scaler.feature_names, trim=trim, window=window
        )
        for scaled in (last_window, last_row):
            assert np.all((scaled >= 0.0) & (scaled <= 1.0))
        raw = feature_matrix(smooth_trajectory(test, 0.1), result.scaler.columns)
        unclamped = (raw - result.scaler.mins) / (result.scaler.maxs - result.scaler.mins)
        assert np.any((unclamped < 0.0) | (unclamped > 1.0))


# ---------------------------------------------------------------------------
# Labeling
# ---------------------------------------------------------------------------


def test_label_rul_run_to_failure_oracle():
    traj = random_traj(1, 5, seed=10)
    assert label_rul(traj).tolist() == [4.0, 3.0, 2.0, 1.0, 0.0]


def test_label_rul_cap_clips_early_life():
    traj = random_traj(1, 5, seed=12)
    assert label_rul(traj, cap=3).tolist() == [3.0, 3.0, 2.0, 1.0, 0.0]


def test_label_rul_ignores_trimmed_prefix():
    # Labels depend on the last cycle only, so trimming the head does not
    # change the labels of the remaining cycles.
    traj = random_traj(1, 12, seed=13)
    full = label_rul(traj)
    trimmed = label_rul(trim_head(traj, 4))
    assert trimmed.tolist() == full[4:].tolist()


def test_label_rul_validation():
    traj = random_traj(1, 5, seed=14)
    with pytest.raises(ConfigError, match="cap"):
        label_rul(traj, cap=0)


# ---------------------------------------------------------------------------
# Windowing and splitting
# ---------------------------------------------------------------------------


def _split(*engines):
    """make_rows' first two arguments for engines given as (engine id,
    (L, F) features in [0, 1]): an engine's first F raw columns hold its
    features, and a unit scaler passes them through unchanged."""
    n = engines[0][1].shape[1]
    trajectories = []
    for engine_id, features in engines:
        raw = np.zeros((len(features), N_SETTINGS + N_SENSORS))
        raw[:, :n] = features
        trajectories.append(EngineTrajectory(
            engine_id, np.arange(1, len(features) + 1), raw[:, :N_SETTINGS], raw[:, N_SETTINGS:]
        ))
    return trajectories, ScalerParams(FEATURE_NAMES[:n], np.zeros(n), np.ones(n))


def test_make_windows_oracle():
    feats = np.array([[0.0], [1.0], [2.0], [3.0]]) / 16
    ws = make_windows(*_split((4, feats)), window=2)
    windows = ws.inputs(np.arange(len(ws)))
    assert windows.shape == (3, 2, 1)
    assert (windows[:, :, 0] * 16).tolist() == [[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]
    assert ws.targets.tolist() == [2.0, 1.0, 0.0]
    assert ws.engine_ids.tolist() == [4, 4, 4, 4]
    assert ws.inputs(slice(1, 2)).tolist() == windows[1:2].tolist()


def test_make_windows_count_formula():
    for length, window in [(20, 20), (21, 20), (50, 20), (30, 7)]:
        feats = np.zeros((length, 3))
        ws = make_windows(*_split((1, feats)), window=window)
        assert len(ws) == length - window + 1


def test_make_windows_rejects_short_engine_and_bad_window():
    feats = np.zeros((5, 2))
    with pytest.raises(ValidationError, match="engine 9"):
        make_windows(*_split((9, feats)), window=6)
    with pytest.raises(ConfigError, match="window"):
        make_windows(*_split((1, feats)), window=0)


def test_make_rows_copies_data():
    feats = np.arange(6.0).reshape(3, 2) / 8
    trajectories, scaler = _split((2, feats))
    rs = make_rows(trajectories, scaler)
    assert rs.rows.tolist() == feats.tolist()
    assert rs.rul.tolist() == [2.0, 1.0, 0.0]
    rs.rows[0, 0] = 99.0
    assert trajectories[0].settings_matrix[0, 0] == 0.0


def test_make_rows_concatenates_a_split_in_input_order():
    a, b = np.full((3, 2), 0.25), np.full((2, 2), 0.5)
    rs = make_rows(*_split((7, a), (3, b)), rul_cap=1)
    assert rs.rows.tolist() == np.concatenate([a, b]).tolist()
    assert rs.engine_ids.tolist() == [7, 7, 7, 3, 3]
    assert rs.rul.tolist() == [1.0, 1.0, 0.0, 1.0, 0.0]
    _, scaler = _split((1, a))
    empty = make_windows([], scaler, window=4)
    assert empty.rows.shape == (0, 2) and empty.engine_ids.dtype == np.int64
    assert len(empty) == 0


def test_split_by_engine_disjoint_exhaustive_and_deterministic():
    ids = list(range(1, 101))
    train_a, val_a = split_by_engine(ids, n_val=20, seed=3)
    train_b, val_b = split_by_engine(ids, n_val=20, seed=3)
    assert (train_a, val_a) == (train_b, val_b)
    assert len(val_a) == 20 and len(train_a) == 80
    assert set(train_a) | set(val_a) == set(ids)
    assert set(train_a) & set(val_a) == set()
    assert list(train_a) == sorted(train_a)


def test_split_by_engine_seed_changes_selection():
    ids = list(range(1, 101))
    _, val_a = split_by_engine(ids, n_val=20, seed=1)
    _, val_b = split_by_engine(ids, n_val=20, seed=2)
    assert val_a != val_b


def test_split_by_engine_accepts_arbitrary_ids():
    train, val = split_by_engine([3, 7, 9, 12], n_val=1, seed=0)
    assert len(val) == 1 and len(train) == 3
    assert set(train) | set(val) == {3, 7, 9, 12}


def test_split_by_engine_validation():
    with pytest.raises(ValidationError, match="duplicate"):
        split_by_engine([1, 1, 2], n_val=1)
    with pytest.raises(ConfigError, match="n_val"):
        split_by_engine([1, 2], n_val=2)
    with pytest.raises(ConfigError, match="n_val"):
        split_by_engine([1, 2], n_val=-1)


def test_final_features_slices_or_pads():
    # sensor_1 takes the values k/16, which the [0, 1] scaler leaves exact.
    scaler = ScalerParams(("sensor_1",), np.array([0.0]), np.array([1.0]))
    sensors = np.zeros((10, N_SENSORS))
    sensors[:, 0] = np.arange(10.0) / 16
    traj = make_traj(1, sensors)
    window = final_features(traj, scaler, window=4)
    assert (window[:, 0] * 16).tolist() == [6.0, 7.0, 8.0, 9.0]
    padded = final_features(make_traj(1, sensors[5:7]), scaler, window=5)
    assert (padded[:, 0] * 16).tolist() == [5.0, 5.0, 5.0, 5.0, 6.0]
    row = final_features(traj, scaler, window=None)
    assert row.shape == (1,) and row[0] * 16 == 9.0


# ---------------------------------------------------------------------------
# Full pipeline and bundles
# ---------------------------------------------------------------------------


@pytest.fixture()
def tiny_corpus():
    return [
        random_traj(1, 45, seed=100),
        random_traj(2, 40, seed=101),
        random_traj(3, 52, seed=102),
        random_traj(4, 38, seed=103),
    ]


def test_run_pipeline_counts_and_ranges(tiny_corpus):
    result = run_pipeline(tiny_corpus, trim=5, window=10, n_val=1, seed=2)
    lengths = [45, 40, 52, 38]
    expected_windows = sum(l - 5 - 10 + 1 for l in lengths)
    expected_rows = sum(l - 5 for l in lengths)
    assert result.total_windows == expected_windows
    assert result.total_rows == expected_rows
    assert len(result.val_ids) == 1 and len(result.train_ids) == 3
    for rs in (result.train_rows, result.val_rows):
        assert rs.rows.min() >= 0.0 and rs.rows.max() <= 1.0
    # Window/row engine tags respect the split.
    assert set(result.train_windows.engine_ids) == set(result.train_ids)
    assert set(result.val_windows.engine_ids) == set(result.val_ids)


def test_run_pipeline_is_deterministic(tiny_corpus):
    a = run_pipeline(tiny_corpus, trim=5, window=10, n_val=1, seed=2)
    b = run_pipeline(tiny_corpus, trim=5, window=10, n_val=1, seed=2)
    assert np.array_equal(a.train_rows.rows, b.train_rows.rows)
    assert np.array_equal(a.train_rows.targets, b.train_rows.targets)
    assert a.train_ids == b.train_ids
    assert a.scaler == b.scaler


def test_run_pipeline_rejects_empty_input():
    with pytest.raises(ValidationError):
        run_pipeline([])


def test_invariant_failures_names_each_broken_invariant(tiny_corpus):
    result = run_pipeline(tiny_corpus, window=10, n_val=1, seed=2)
    assert invariant_failures(tiny_corpus, result) == []
    r = result.val_rows
    shifted = dataclasses.replace(result, val_rows=dataclasses.replace(r, rows=r.rows + 0.5))
    assert invariant_failures(tiny_corpus, shifted) == [INVARIANTS[0]]
    s = result.scaler
    narrow = ScalerParams(s.feature_names, (s.mins + s.maxs) / 2, s.maxs)
    assert invariant_failures(
        tiny_corpus, dataclasses.replace(result, scaler=narrow)
    ) == [INVARIANTS[1]]
    for val_ids in (result.val_ids + result.train_ids[:1], ()):
        broken = dataclasses.replace(result, val_ids=val_ids)
        assert invariant_failures(tiny_corpus, broken) == [INVARIANTS[2]]


def test_invariant_failures_uses_the_results_alpha_and_trim():
    # `rulkit verify`'s corpus. Rows smoothed at the default alpha 0.1, or kept by
    # the default trim 10, fall outside these scalers' fitted ranges, so checking
    # them instead of the result's own would fail the round trip.
    train_text, _, _ = simdata.generate_corpus(simdata.SimConfig(5, 3, 900, seed=0))
    trajectories = dataset_io.parse_trajectory_file(train_text)
    for alpha, trim in ((0.1, 30), (0.05, 10)):
        result = run_pipeline(trajectories, alpha=alpha, trim=trim, n_val=1, seed=0)
        assert invariant_failures(trajectories, result) == []


def test_prepare_test_engine_matches_training_chain(tiny_corpus):
    result = run_pipeline(tiny_corpus, trim=5, window=10, n_val=1, seed=2)
    traj = tiny_corpus[0]
    window, row = prepare_test_engine(
        traj, result.scaler, result.scaler.feature_names, alpha=0.1, trim=5, window=10
    )
    chained = apply_minmax(
        result.scaler, trim_head(smooth_trajectory(traj, 0.1), 5)
    )
    assert np.array_equal(window, chained[-10:])
    assert np.array_equal(row, chained[-1])


def test_prepare_test_engine_pads_short_trajectory(tiny_corpus):
    result = run_pipeline(tiny_corpus, trim=5, window=10, n_val=1, seed=2)
    short = random_traj(9, 6, seed=104)  # shorter than the window
    window, row = prepare_test_engine(
        short, result.scaler, result.scaler.feature_names, alpha=0.1, trim=5, window=10
    )
    assert window.shape[0] == 10
    # Front rows repeat the earliest available scaled row.
    assert np.array_equal(window[0], window[1])
    assert np.array_equal(window[-1], row)


@pytest.mark.parametrize("length", [45, 6])
def test_final_features_row_is_prepare_test_engines_row(tiny_corpus, length):
    """The row alone, one scaled row, is bit for bit the last row of the
    (front-padded, for the short engine) window that prepare_test_engine scales."""
    result = run_pipeline(tiny_corpus, trim=5, window=10, n_val=1, seed=2)
    traj = random_traj(9, length, seed=104)
    _, want = prepare_test_engine(
        traj, result.scaler, result.scaler.feature_names, alpha=0.1, trim=5, window=10
    )
    got = final_features(smooth_trajectory(traj, 0.1), result.scaler, window=None)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_bundle_write_load_round_trip(tiny_corpus, tmp_path):
    result = run_pipeline(tiny_corpus, trim=5, window=10, n_val=1, seed=2)
    pipeline = {"alpha": 0.1, "trim": 5, "window": 10, "n_val": 1, "seed": 2, "rul_cap": None}
    write_bundle(tmp_path / "bundle", result, pipeline)
    bundle = load_bundle(tmp_path / "bundle")
    assert bundle.meta["pipeline"] == pipeline
    assert tuple(bundle.meta["feature_names"]) == result.scaler.feature_names
    assert bundle.meta["counts"]["total_windows"] == result.total_windows
    assert bundle.meta == result.meta
    assert type(bundle) is type(result) and bundle.pipeline == result.pipeline
    for name in ("train_windows", "val_windows", "train_rows", "val_rows"):
        loaded, built = getattr(bundle, name), getattr(result, name)
        assert loaded.window == built.window
        assert np.array_equal(loaded.inputs(np.arange(len(loaded))),
                              built.inputs(np.arange(len(built))))
        assert np.array_equal(loaded.targets, built.targets)
    assert bundle.train_windows.rows is bundle.train_rows.rows
    assert sorted(p.name for p in (tmp_path / "bundle").iterdir()) == [
        "meta.json", "scaler.json", "train_engines.npy", "train_rows.npy", "train_rul.npy",
        "val_engines.npy", "val_rows.npy", "val_rul.npy",
    ]
    assert bundle.scaler == result.scaler


def test_write_bundle_rejects_a_pipeline_the_result_was_not_built_with(tiny_corpus, tmp_path):
    result = run_pipeline(tiny_corpus, alpha=0.1, trim=5, window=10, n_val=1, seed=2)
    pipeline = {"alpha": 0.2, "trim": 5, "window": 10, "n_val": 1, "seed": 2, "rul_cap": None}
    with pytest.raises(ConfigError, match="'alpha': 0.2.* is not the result's .*'alpha': 0.1"):
        write_bundle(tmp_path / "bundle", result, pipeline)
    assert not (tmp_path / "bundle" / "meta.json").exists()


def test_load_bundle_rejects_non_bundle_dir(tmp_path):
    with pytest.raises(ValidationError, match="meta.json"):
        load_bundle(tmp_path)


def _write_tiny_bundle(tiny_corpus, path):
    result = run_pipeline(tiny_corpus, trim=5, window=10, n_val=1, seed=2)
    pipeline = {"alpha": 0.1, "trim": 5, "window": 10, "n_val": 1, "seed": 2, "rul_cap": None}
    write_bundle(path, result, pipeline)
    return result


def test_load_bundle_rejects_edited_count(tiny_corpus, tmp_path):
    bundle = tmp_path / "bundle"
    _write_tiny_bundle(tiny_corpus, bundle)
    meta = json.loads((bundle / "meta.json").read_text(encoding="utf-8"))
    n = meta["counts"]["val_rows"]
    meta["counts"]["val_rows"] = n + 1
    (bundle / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(
        ValidationError,
        match=rf"val_rows\.npy: expected float64 array of shape \({n + 1}, \d+\) "
        rf"\(row count from meta\.json\), got float64 array of shape \({n}, ",
    ):
        load_bundle(bundle)
    meta["counts"]["val_rows"] = n
    meta["counts"]["total_windows"] += 1
    (bundle / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(ValidationError, match=r"meta\.json: counts\.total_windows"):
        load_bundle(bundle)


def test_load_bundle_rejects_truncated_arrays(tiny_corpus, tmp_path):
    bundle = tmp_path / "bundle"
    _write_tiny_bundle(tiny_corpus, bundle)
    targets = bundle / "train_rul.npy"
    n = len(np.load(targets))
    np.save(targets, np.load(targets)[:-1])
    with pytest.raises(
        ValidationError,
        match=rf"train_rul\.npy: expected float64 array of shape \({n},\) "
        rf".* got float64 array of shape \({n - 1},\)",
    ):
        load_bundle(bundle)
    _write_tiny_bundle(tiny_corpus, bundle)
    rows = bundle / "val_rows.npy"
    rows.write_bytes(rows.read_bytes()[:-8])
    with pytest.raises(ValidationError, match="val_rows.npy: unreadable array"):
        load_bundle(bundle)


@pytest.mark.parametrize(
    "name, dtype",
    [("train_rows.npy", np.float32), ("val_rul.npy", np.float32),
     ("train_engines.npy", np.int32), ("val_engines.npy", np.float64)],
)
def test_load_bundle_rejects_wrong_dtype(tiny_corpus, tmp_path, name, dtype):
    bundle = tmp_path / "bundle"
    _write_tiny_bundle(tiny_corpus, bundle)
    np.save(bundle / name, np.load(bundle / name).astype(dtype))
    with pytest.raises(ValidationError, match=f"{name}: expected .* got {np.dtype(dtype)}"):
        load_bundle(bundle)


@pytest.mark.parametrize(
    "name, value",
    [("train_rows.npy", np.nan), ("val_rows.npy", np.inf),
     ("train_rul.npy", -np.inf), ("val_rul.npy", np.nan)],
)
def test_load_bundle_rejects_non_finite_values(tiny_corpus, tmp_path, name, value):
    bundle = tmp_path / "bundle"
    _write_tiny_bundle(tiny_corpus, bundle)
    arr = np.load(bundle / name)
    arr.flat[arr.size // 2] = value
    np.save(bundle / name, arr)
    with pytest.raises(ValidationError, match=f"{name}: array holds non-finite values"):
        load_bundle(bundle)


def test_load_bundle_rejects_wrong_window_shape(tiny_corpus, tmp_path):
    bundle = tmp_path / "bundle"
    _write_tiny_bundle(tiny_corpus, bundle)
    rows = np.load(bundle / "train_rows.npy")
    np.save(bundle / "train_rows.npy", rows[:, 1:])
    expected = rf"train_rows.npy: expected float64 array of shape \(\d+, {rows.shape[1]}\)"
    with pytest.raises(ValidationError, match=expected):
        load_bundle(bundle)
    # A window longer than an engine's run could only be cut across engines.
    _write_tiny_bundle(tiny_corpus, bundle)
    meta = json.loads((bundle / "meta.json").read_text(encoding="utf-8"))
    meta["pipeline"]["window"] = 34
    (bundle / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(ValidationError, match=r"_engines\.npy: engine \d+: 33 cycles is "
                       r"shorter than window 34"):
        load_bundle(bundle)


def test_load_bundle_rejects_v1_bundle(tiny_corpus, tmp_path):
    bundle = tmp_path / "bundle"
    _write_tiny_bundle(tiny_corpus, bundle)
    meta = json.loads((bundle / "meta.json").read_text(encoding="utf-8"))
    meta["format"] = "rulkit-bundle-v1"
    (bundle / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(ValidationError, match=r"meta\.json: bundle format 'rulkit-bundle-v1' "
                       r".*re-run `rulkit preprocess`"):
        load_bundle(bundle)


def _rewrite_engines(bundle, split, edit):
    path = bundle / f"{split}_engines.npy"
    np.save(path, edit(np.load(path)))


def test_load_bundle_rejects_engines_split_into_two_runs(tiny_corpus, tmp_path):
    bundle = tmp_path / "bundle"
    _write_tiny_bundle(tiny_corpus, bundle)

    def swap_first_and_last_row(e):
        e[[0, -1]] = e[[-1, 0]]
        return e

    _rewrite_engines(bundle, "train", swap_first_and_last_row)
    with pytest.raises(ValidationError,
                       match=r"train_engines\.npy: engine \d+: rows are not one run"):
        load_bundle(bundle)


def test_load_bundle_rejects_engines_not_in_meta(tiny_corpus, tmp_path):
    bundle = tmp_path / "bundle"
    result = _write_tiny_bundle(tiny_corpus, bundle)
    other = result.train_ids[0]
    # The validation engine's rows relabelled as a training engine's.
    _rewrite_engines(bundle, "val", lambda e: np.full_like(e, other))
    with pytest.raises(ValidationError,
                       match=r"val_engines\.npy: engine ids are not meta\.json's val_ids"):
        load_bundle(bundle)
    _write_tiny_bundle(tiny_corpus, bundle)
    meta = json.loads((bundle / "meta.json").read_text(encoding="utf-8"))
    meta["train_ids"] = meta["train_ids"][1:]
    (bundle / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(ValidationError,
                       match=r"train_engines\.npy: engine ids are not meta\.json's train_ids"):
        load_bundle(bundle)
