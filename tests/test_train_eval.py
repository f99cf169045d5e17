"""Training loop, evaluation, artifact round-trips, and the check suite."""

import csv
import json

import numpy as np
import pytest

from rulkit import dataset_io, models, preprocess, train_eval
from rulkit.errors import ConfigError, ShapeError, ValidationError
from rulkit.numerics import SeededRng
from rulkit.train_eval import (
    EvalReport,
    TrainConfig,
    TrainedModel,
    evaluate,
    gradient_check_suite,
    load_checkpoint,
    scaler_hash,
    train,
    write_checkpoint,
    write_eval_report,
    write_history_csv,
    write_predictions_csv,
)


@pytest.fixture(scope="module")
def small_data(small_corpus_paths):
    trajectories = dataset_io.read_trajectories(small_corpus_paths["train"])
    test_trajectories = dataset_io.read_trajectories(small_corpus_paths["test"])
    ruls = dataset_io.read_rul_labels(small_corpus_paths["rul"])
    result = preprocess.run_pipeline(trajectories, n_val=1, seed=0)
    return result, test_trajectories, ruls


def _quick_config(**overrides):
    base = dict(model="lstm", epochs=2, seed=0, lstm_hidden=12, n_val=1)
    base.update(overrides)
    return TrainConfig(**base)


def _fit(config, result):
    if config.model == "lstm":
        data = (result.train_windows, result.val_windows)
    else:
        data = (result.train_rows, result.val_rows)
    return train(config, *data, SeededRng(config.seed))


def _wrap(config, result, params):
    return TrainedModel(
        kind=config.model,
        params=params,
        window=config.window,
        feature_names=result.selection.feature_names,
        scaler_hash=scaler_hash(result.scaler),
        config_hash=config.config_hash(),
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_config_defaults_mirror_training_recipe():
    config = TrainConfig()
    assert config.model == "lstm"
    assert config.epochs == 35
    assert config.batch_size == 64
    assert config.lr == 0.001
    assert config.window == 20
    assert config.alpha == 0.1
    assert config.trim == 10
    assert config.n_val == 20
    assert config.lstm_hidden == 64
    assert config.mlp_hidden == (64, 32)
    assert config.rul_cap is None and config.grad_clip is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"model": "transformer"},
        {"epochs": 0},
        {"batch_size": 0},
        {"lr": 0.0},
        {"alpha": 0.0},
        {"alpha": 1.5},
        {"trim": -1},
        {"seed": -1},
        {"rul_cap": 0},
        {"grad_clip": -1.0},
        {"mlp_hidden": (64, 0)},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


def test_config_hash_tracks_content():
    assert TrainConfig().config_hash() == TrainConfig().config_hash()
    assert TrainConfig().config_hash() != TrainConfig(seed=1).config_hash()
    assert TrainConfig().config_hash() != TrainConfig(model="mlp").config_hash()


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def test_train_reduces_loss_and_records_history(small_data):
    result, _, _ = small_data
    config = _quick_config(epochs=4)
    params, state, history = _fit(config, result)
    assert len(history) == 4
    assert history.train_mse[-1] < history.train_mse[0]
    assert all(np.isfinite(v) for v in history.train_mse + history.val_mse)
    assert len(history.epoch_seconds) == 4
    assert state.step == 4 * -(-len(result.train_windows) // config.batch_size)


def test_train_is_deterministic_per_seed(small_data):
    result, _, _ = small_data
    a, _, hist_a = _fit(_quick_config(), result)
    b, _, hist_b = _fit(_quick_config(), result)
    for k, v in a.to_dict().items():
        assert np.array_equal(v, b.to_dict()[k]), k
    assert hist_a.train_mse == hist_b.train_mse
    assert hist_a.val_mse == hist_b.val_mse


def test_train_seed_changes_outcome(small_data):
    result, _, _ = small_data
    a, _, _ = _fit(_quick_config(seed=0), result)
    b, _, _ = _fit(_quick_config(seed=1), result)
    assert not np.array_equal(a.w_x, b.w_x)


def test_train_mlp_on_rows(small_data):
    result, _, _ = small_data
    config = _quick_config(model="mlp", mlp_hidden=(16, 8))
    params, _, history = _fit(config, result)
    assert params.layer_sizes == (result.selection.n_features, 16, 8, 1)
    assert history.train_mse[-1] < history.train_mse[0]


def test_train_rejects_empty_and_mismatched_data(small_data):
    result, _, _ = small_data
    empty = preprocess.SampleSet(
        np.zeros((0, 16)), np.zeros(0), np.zeros(0, dtype=np.int64), window=20
    )
    with pytest.raises(ConfigError, match="empty"):
        train(_quick_config(), empty, empty, SeededRng(0))
    with pytest.raises(ConfigError, match="lstm model needs samples with window 20, "
                       "got training samples with window None"):
        train(_quick_config(), result.train_rows, result.val_rows, SeededRng(0))
    with pytest.raises(ConfigError, match="mlp model needs samples with window None, "
                       "got validation samples with window 20"):
        train(_quick_config(model="mlp"), result.train_rows, result.val_windows, SeededRng(0))
    with pytest.raises(ConfigError, match="window 12, got training samples with window 20"):
        train(_quick_config(window=12), result.train_windows, result.val_windows, SeededRng(0))


def test_partial_final_batch_is_used(small_data):
    # Adam step count proves every batch ran, including the remainder.
    result, _, _ = small_data
    n = len(result.train_windows)
    config = _quick_config(epochs=1, batch_size=n - 1)
    _, state, _ = _fit(config, result)
    assert state.step == 2


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_evaluate_one_prediction_per_engine(small_data):
    result, test_trajectories, ruls = small_data
    config = _quick_config()
    params, _, _ = _fit(config, result)
    report = evaluate(_wrap(config, result, params), test_trajectories, ruls, result.scaler, config)
    assert len(report.rows) == len(test_trajectories)
    assert [r.engine_id for r in report.rows] == [t.engine_id for t in test_trajectories]
    manual = np.mean([
        (r.predicted_rul - r.true_rul) ** 2 for r in report.rows
    ])
    assert report.mse == pytest.approx(manual, rel=1e-15)
    for r in report.rows:
        assert r.predicted_rul_clamped == max(r.predicted_rul, 0.0)


def test_evaluate_rejects_label_count_mismatch(small_data):
    result, test_trajectories, ruls = small_data
    config = _quick_config()
    params, _, _ = _fit(config, result)
    model = _wrap(config, result, params)
    with pytest.raises(ValidationError, match="label count"):
        evaluate(model, test_trajectories[:-1], ruls, result.scaler, config)


def test_evaluate_rejects_stale_scaler(small_data):
    result, test_trajectories, ruls = small_data
    config = _quick_config()
    params, _, _ = _fit(config, result)
    model = _wrap(config, result, params)
    tampered = preprocess.ScalerParams(
        result.scaler.feature_names, result.scaler.mins, result.scaler.maxs + 1.0
    )
    with pytest.raises(ValidationError, match="hash mismatch"):
        evaluate(model, test_trajectories, ruls, tampered, config)


def test_trained_model_predict_validates_window_length(small_data):
    result, _, _ = small_data
    config = _quick_config()
    params, _, _ = _fit(config, result)
    model = _wrap(config, result, params)
    with pytest.raises(ValidationError, match="expects"):
        model.predict(np.zeros((2, 5, result.selection.n_features)))


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def test_history_csv_format(tmp_path):
    history = train_eval.TrainHistory(
        train_mse=[100.0, 50.5], val_mse=[90.25, float("nan")], epoch_seconds=[0.1, 0.2]
    )
    path = tmp_path / "history.csv"
    write_history_csv(path, history)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_mse,val_mse"
    assert lines[1] == "1,100,90.25"
    assert lines[2] == "2,50.5,nan"


def test_checkpoint_round_trip(small_data, tmp_path):
    result, _, _ = small_data
    config = _quick_config()
    params, state, _ = _fit(config, result)
    model = _wrap(config, result, params)
    path = tmp_path / "checkpoint.json"
    write_checkpoint(path, model, state, config)

    loaded_model, loaded_state, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    assert loaded_model.kind == model.kind
    assert loaded_model.feature_names == model.feature_names
    assert loaded_model.scaler_hash == model.scaler_hash
    assert loaded_model.window == model.window
    for k, v in model.params.to_dict().items():
        assert np.array_equal(loaded_model.params.to_dict()[k], v), k
    assert loaded_state.step == state.step
    assert loaded_state.layout == state.layout
    assert np.array_equal(loaded_state.m, state.m)
    assert np.array_equal(loaded_state.v, state.v)

    x = result.val_windows.inputs(slice(0, 3))
    assert np.array_equal(model.predict(x), loaded_model.predict(x))


def test_checkpoint_rejects_foreign_format(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps({"format": "other"}))
    with pytest.raises(ValidationError, match="format"):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_gate_order(small_data, tmp_path):
    result, _, _ = small_data
    config = _quick_config()
    params, state, _ = _fit(config, result)
    path = tmp_path / "checkpoint.json"
    write_checkpoint(path, _wrap(config, result, params), state, config)
    blob = json.loads(path.read_text())
    blob["gate_order"] = ["f", "i", "g", "o"]
    path.write_text(json.dumps(blob))
    with pytest.raises(ValidationError, match="gate order"):
        load_checkpoint(path)


def test_eval_report_and_predictions_csv_round_trip(small_data, tmp_path):
    result, test_trajectories, ruls = small_data
    config = _quick_config()
    params, _, _ = _fit(config, result)
    report = evaluate(_wrap(config, result, params), test_trajectories, ruls, result.scaler, config)

    report_path = tmp_path / "eval_report.json"
    write_eval_report(report_path, report)
    decoded = json.loads(report_path.read_text())
    assert decoded["mse"] == report.mse
    assert len(decoded["engines"]) == len(report.rows)
    assert decoded["engines"][0]["engine_id"] == report.rows[0].engine_id

    csv_path = tmp_path / "predictions.csv"
    write_predictions_csv(csv_path, report)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report.rows)
    for row, expected in zip(rows, report.rows):
        assert int(row["engine_id"]) == expected.engine_id
        assert float(row["true_rul"]) == expected.true_rul
        assert float(row["predicted_rul"]) == expected.predicted_rul
        assert float(row["predicted_rul_clamped"]) == expected.predicted_rul_clamped


def test_artifact_writers_are_reproducible(small_data, tmp_path):
    result, _, _ = small_data
    config = _quick_config()
    params, state, history = _fit(config, result)
    model = _wrap(config, result, params)
    for name, writer in [
        ("history.csv", lambda p: write_history_csv(p, history)),
        ("checkpoint.json", lambda p: write_checkpoint(p, model, state, config)),
    ]:
        a, b = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        writer(a)
        writer(b)
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# Gradient suite
# ---------------------------------------------------------------------------


def test_gradient_check_suite_small_runs_clean():
    assert gradient_check_suite("mlp", 5, SeededRng(123)) < 1e-5
    assert gradient_check_suite("lstm", 5, SeededRng(123)) < 1e-5


def test_gradient_check_suite_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="model kind"):
        gradient_check_suite("cnn", 5, SeededRng(0))


def test_gradient_check_suite_catches_broken_gradients(monkeypatch):
    # Corrupt one gradient tensor and confirm the suite notices.
    real_backward = models.mlp_backward

    def broken(params, cache, dpred):
        grads = real_backward(params, cache, dpred)
        grads["b0"] = grads["b0"] + 1.0
        return grads

    monkeypatch.setattr(models, "mlp_backward", broken)
    assert gradient_check_suite("mlp", 3, SeededRng(0)) > 1e-2
