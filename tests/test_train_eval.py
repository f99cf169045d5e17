"""Training loop, evaluation, artifact round-trips, and the check suite."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from rulkit import dataset_io, models, preprocess, train_eval
from rulkit.errors import ConfigError, ShapeError, TrainingError, ValidationError
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
    return train(config, result.train_rows, result.val_rows, SeededRng(config.seed))


def _wrap(config, result, params):
    return TrainedModel(
        kind=config.model,
        params=params,
        window=config.window,
        feature_names=result.scaler.feature_names,
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
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"grad_clip": float("nan")},
        {"grad_clip": float("inf")},
        {"epochs": 2.0},
        {"batch_size": True},
        {"window": 20.0},
        {"lstm_hidden": "64"},
        {"trim": 10.5},
        {"n_val": None},
        {"seed": "x"},
        {"rul_cap": 125.0},
        {"rul_cap": False},
        {"mlp_hidden": (64, 32.0)},
        {"mlp_hidden": (64, True)},
        {"mlp_hidden": [64, 32]},
        {"lr": "0.001"},
        {"lr": True},
        {"alpha": None},
        {"grad_clip": "1.0"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


def test_config_accepts_ints_for_real_fields():
    config = TrainConfig(lr=1, alpha=1, grad_clip=5, rul_cap=125)
    assert (config.lr, config.alpha, config.grad_clip, config.rul_cap) == (1, 1, 5, 125)


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
    assert all(0.0 < v <= e for v, e in zip(history.val_seconds, history.epoch_seconds))
    assert len(history.val_seconds) == 4
    assert state.step == 4 * -(-len(result.train_windows) // config.batch_size)


def test_train_is_deterministic_per_seed(small_data):
    result, _, _ = small_data
    a, _, hist_a = _fit(_quick_config(), result)
    b, _, hist_b = _fit(_quick_config(), result)
    for k, v in a.to_dict().items():
        assert np.array_equal(v.view(np.uint64), b.to_dict()[k].view(np.uint64)), k
    assert list(map(float.hex, hist_a.train_mse)) == list(map(float.hex, hist_b.train_mse))
    assert list(map(float.hex, hist_a.val_mse)) == list(map(float.hex, hist_b.val_mse))


def test_validation_reads_the_final_weights_in_float32(small_data):
    # The LSTM validates on a float32 copy of the master weights taken after
    # the epoch's last Adam step.
    result, _, _ = small_data
    config = _quick_config()
    params, _, history = _fit(config, result)
    work = models.LstmParams.from_dict(
        {k: t.astype(np.float32) for k, t in params.to_dict().items()})
    val_set = replace(result.val_rows, window=config.window)
    pred = train_eval.predict_in_blocks(work, val_set)
    assert history.val_mse[-1] == float(np.mean((pred - val_set.targets) ** 2))


def test_train_seed_changes_outcome(small_data):
    result, _, _ = small_data
    a, _, _ = _fit(_quick_config(seed=0), result)
    b, _, _ = _fit(_quick_config(seed=1), result)
    assert not np.array_equal(a.w_x, b.w_x)


def test_train_mlp_on_rows(small_data):
    result, _, _ = small_data
    config = _quick_config(model="mlp", mlp_hidden=(16, 8))
    params, _, history = _fit(config, result)
    assert params.layer_sizes == (len(result.scaler.feature_names), 16, 8, 1)
    assert history.train_mse[-1] < history.train_mse[0]


def test_train_rejects_empty_and_non_finite_data(small_data):
    result, _, _ = small_data
    empty = preprocess.SampleSet(
        np.zeros((0, 16)), np.zeros(0), np.zeros(0, dtype=np.int64), window=20
    )
    with pytest.raises(ConfigError, match="empty"):
        train(_quick_config(), empty, empty, SeededRng(0))
    val = result.val_windows
    rows = val.rows.copy()
    rows[-1, 0] = np.nan
    poisoned = preprocess.SampleSet(rows, val.rul, val.engine_ids, window=val.window)
    with pytest.raises(TrainingError, match="epoch 1: non-finite validation loss nan"):
        train(_quick_config(epochs=1), result.train_windows, poisoned, SeededRng(0))


@pytest.mark.parametrize("kind", train_eval.MODEL_KINDS)
def test_train_cuts_rows_and_windows_alike(small_data, kind):
    """train re-cuts each split to config.input_window, so rows, the pipeline's
    windows and windows of another length all give the same run, bit for bit."""
    result, _, _ = small_data
    config = _quick_config(model=kind, mlp_hidden=(8,))
    runs = [
        train(config, replace(result.train_rows, window=w), replace(result.val_rows, window=w),
              SeededRng(config.seed))
        for w in (None, config.window, 7)
    ]
    want_params, _, want_history = runs[0]
    for params, _, history in runs[1:]:
        for curve in ("train_mse", "val_mse"):
            assert list(map(float.hex, getattr(history, curve))) == list(
                map(float.hex, getattr(want_history, curve)))
        for name, tensor in want_params.to_dict().items():
            assert params.to_dict()[name].tobytes() == tensor.tobytes(), name


def test_input_window_follows_the_model_kind():
    assert TrainConfig(model="lstm", window=12).input_window == 12
    assert TrainConfig(model="mlp", window=12).input_window is None
    assert "input_window" not in TrainConfig().to_dict()


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


@pytest.mark.parametrize("kind", train_eval.MODEL_KINDS)
def test_final_inputs_stack_per_engine_prepare_test_engine(small_data, kind):
    result, test_trajectories, _ = small_data
    config = _quick_config(model=kind)
    params = models.MODELS[kind].init(len(result.scaler.feature_names), config, SeededRng(0))
    longest = max(test_trajectories, key=len)
    assert len(longest) > config.window + config.trim
    # Shorter than the window (front-padded), as long as it, and up to a trim longer.
    cut = [
        dataset_io.EngineTrajectory(
            100 + n, longest.cycles[:n], longest.settings_matrix[:n], longest.sensors_matrix[:n]
        )
        for n in (1, 7, config.window - 1, config.window, config.window + config.trim - 1)
    ]
    engines = list(test_trajectories) + cut
    got = train_eval.final_inputs(_wrap(config, result, params), engines, result.scaler, config)
    per_engine = [
        preprocess.prepare_test_engine(
            t, result.scaler, result.scaler.feature_names,
            alpha=config.alpha, trim=config.trim, window=config.window,
        )
        for t in engines
    ]
    want = np.stack([window if kind == "lstm" else row for window, row in per_engine])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_trained_model_predict_validates_window_length(small_data):
    result, _, _ = small_data
    config = _quick_config()
    params, _, _ = _fit(config, result)
    model = _wrap(config, result, params)
    with pytest.raises(ValidationError, match="expects"):
        model.predict(np.zeros((2, 5, len(result.scaler.feature_names))))


# ---------------------------------------------------------------------------
# Validation forward passes run in blocks
# ---------------------------------------------------------------------------


def _blocks(n, size):
    return [min(size, n - start) for start in range(0, n, size)]


def test_lstm_validation_never_forwards_more_than_a_block(pipeline_seed1, forward_rows, caplog):
    """The recipe's LSTM (4H = 256 floats per gate row) validates 128 windows
    at a time, after its 64-window training batches; the epoch's log line
    reports the validation seconds."""
    val = pipeline_seed1.val_windows
    config = TrainConfig(epochs=1, seed=0)
    with caplog.at_level("INFO", logger="rulkit.train_eval"):
        _, _, history = train(config, val, val, SeededRng(0))
    assert forward_rows == _blocks(len(val), 64) + _blocks(len(val), 128)
    assert f"validation {history.val_seconds[0]:.2f}s" in caplog.text


def test_mlp_validation_keeps_512_row_blocks(pipeline_seed1, forward_rows):
    """The recipe's MLP (widest layer 64) validates 512 rows at a time."""
    val = pipeline_seed1.val_rows
    train(TrainConfig(model="mlp", epochs=1, seed=0), val, val, SeededRng(0))
    assert forward_rows == _blocks(len(val), 64) + _blocks(len(val), 512)


def test_evaluate_scores_all_engines_in_one_forward(
    pipeline_seed1, test_trajectories, rul_labels, forward_rows
):
    """Only validation runs in blocks: 200 test engines, more than one LSTM
    block, are scored by one forward pass over all their final windows."""
    result = pipeline_seed1
    config = TrainConfig()
    params = models.init_lstm(len(result.scaler.feature_names), config.lstm_hidden, SeededRng(5))
    model = _wrap(config, result, params)
    engines = list(test_trajectories) * 2
    report = evaluate(model, engines, dataset_io.RulLabelFile(rul_labels.ruls * 2),
                      result.scaler, config)
    assert forward_rows == [200]
    whole = params.forward(train_eval.final_inputs(model, engines, result.scaler, config))[0]
    assert [r.predicted_rul for r in report.rows] == whole.tolist()


@pytest.mark.parametrize("kind", train_eval.MODEL_KINDS)
def test_single_engine_request_is_one_forward(small_data, forward_rows, kind):
    result, test_trajectories, _ = small_data
    config = _quick_config(model=kind)
    params = models.MODELS[kind].init(len(result.scaler.feature_names), config, SeededRng(0))
    model = _wrap(config, result, params)
    x = train_eval.final_inputs(model, test_trajectories[:1], result.scaler, config)
    pred = model.predict(x)
    assert forward_rows == [1] and pred.shape == (1,)


@pytest.mark.parametrize("kind", train_eval.MODEL_KINDS)
def test_single_engine_request_matches_its_evaluate_row(
    pipeline_seed1, test_trajectories, rul_labels, kind
):
    """A request for one engine is a float64 forward pass of batch 1; evaluate
    forwards all 100 engines at once. Each row depends only on its own sample,
    but BLAS may sum a batch of one in another order, so the two agree to
    rounding (1e-12 relative), not bit for bit."""
    result = pipeline_seed1
    config = TrainConfig(model=kind)
    params = models.MODELS[kind].init(len(result.scaler.feature_names), config, SeededRng(5))
    model = _wrap(config, result, params)
    report = evaluate(model, test_trajectories, rul_labels, result.scaler, config)
    for traj, row in zip(test_trajectories, report.rows):
        x = train_eval.final_inputs(model, [traj], result.scaler, config)
        single = model.predict(x)[0]
        assert abs(single - row.predicted_rul) <= 1e-12 * abs(row.predicted_rul), traj.engine_id


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

    loaded_model, loaded_optimizer, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    assert loaded_model.kind == model.kind
    assert loaded_model.feature_names == model.feature_names
    assert loaded_model.scaler_hash == model.scaler_hash
    assert loaded_model.window == model.window
    for k, v in model.params.to_dict().items():
        assert np.array_equal(loaded_model.params.to_dict()[k], v), k
    assert loaded_optimizer == {"lr": state.lr, "beta1": state.beta1, "beta2": state.beta2,
                                "eps": state.eps, "step": state.step}

    x = result.val_windows.inputs(slice(0, 3))
    assert np.array_equal(model.predict(x), loaded_model.predict(x))


def _count_numbers(node) -> int:
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return sum(map(_count_numbers, node))
    return int(isinstance(node, (int, float)) and not isinstance(node, bool))


@pytest.mark.parametrize("kind", train_eval.MODEL_KINDS)
def test_checkpoint_holds_parameters_and_optimizer_scalars_only(small_data, tmp_path, kind):
    """Adam's moment vectors are not saved: besides the metadata, a checkpoint
    holds one float per parameter and the optimizer's five scalars."""
    result, _, _ = small_data
    config = _quick_config(model=kind, epochs=1)
    params, state, _ = _fit(config, result)
    path = tmp_path / "checkpoint.json"
    write_checkpoint(path, _wrap(config, result, params), state, config)
    blob = json.loads(path.read_text())
    assert set(blob) == {"format", "model", "gate_order", "arch", "window", "feature_names",
                         "scaler_hash", "config", "config_hash", "seed", "params", "optimizer"}
    assert blob["format"] == "rulkit-checkpoint-v2"
    assert _count_numbers(blob["params"]) == sum(t.size for t in params.to_dict().values())
    assert blob["optimizer"] == {"lr": config.lr, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                                 "step": state.step}
    assert state.step > 0


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

    def broken(params, cache, dpred, out=None):
        grads = real_backward(params, cache, dpred, out)
        grads["b0"] += 1.0
        return grads

    monkeypatch.setattr(models, "mlp_backward", broken)
    assert gradient_check_suite("mlp", 3, SeededRng(0)) > 1e-2
