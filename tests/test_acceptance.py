"""Acceptance gate: one test per release criterion.

Each test prints one line to the end-of-run summary (see conftest). The
expensive model trainings are shared through the session-scoped
reference_runs fixture; everything here checks outcomes, not internals.
"""

import csv
import json
import time

import numpy as np

from rulkit import dataset_io, preprocess, train_eval
from rulkit.cli import main as cli_main
from rulkit.numerics import SeededRng

EXPECTED_TRAIN_WINDOWS = 17731
LSTM_MSE_BAND = (400.0, 1600.0)
MLP_MSE_BAND = (900.0, 3500.0)


def _seeds(reference_runs):
    return sorted({seed for _, seed in reference_runs})


# criterion 1 ---------------------------------------------------------------


def test_a1_window_count_and_speed(corpus_paths):
    start = time.perf_counter()
    trajectories = dataset_io.read_trajectories(corpus_paths["train"])
    result = preprocess.run_pipeline(trajectories)
    elapsed = time.perf_counter() - start
    assert result.total_windows == EXPECTED_TRAIN_WINDOWS
    assert elapsed < 10.0, f"parse + preprocess took {elapsed:.2f}s"


# criterion 2 ---------------------------------------------------------------


def test_a2_dataset_counts_exact(train_trajectories, test_trajectories, rul_labels):
    assert len(train_trajectories) == 100
    assert len(test_trajectories) == 100
    assert len(rul_labels.ruls) == 100
    for group in (train_trajectories, test_trajectories):
        ids = [t.engine_id for t in group]
        assert ids == sorted(set(ids))


# criterion 3 ---------------------------------------------------------------


def test_a3_gradients_match_finite_differences():
    start = time.perf_counter()
    for kind in train_eval.MODEL_KINDS:
        worst = train_eval.gradient_check_suite(kind, trials=100, rng=SeededRng(7))
        assert worst < 1e-5, f"{kind}: worst relative error {worst:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.2f}s"


# criterion 4 ---------------------------------------------------------------


def test_a4_recurrent_beats_feedforward_every_seed(reference_runs):
    for seed in _seeds(reference_runs):
        lstm = reference_runs[("lstm", seed)].report.mse
        mlp = reference_runs[("mlp", seed)].report.mse
        assert lstm < mlp, f"seed {seed}: lstm {lstm:.1f} vs mlp {mlp:.1f}"


# criterion 5 ---------------------------------------------------------------


def test_a5_test_mse_within_bands(reference_runs):
    in_band = 0
    observed = []
    for seed in _seeds(reference_runs):
        lstm = reference_runs[("lstm", seed)].report.mse
        mlp = reference_runs[("mlp", seed)].report.mse
        observed.append(f"seed {seed}: lstm {lstm:.1f}, mlp {mlp:.1f}")
        if (
            LSTM_MSE_BAND[0] <= lstm <= LSTM_MSE_BAND[1]
            and MLP_MSE_BAND[0] <= mlp <= MLP_MSE_BAND[1]
        ):
            in_band += 1
    assert in_band >= 2, "; ".join(observed)


# criterion 6 ---------------------------------------------------------------


def test_a6_losses_halve_over_training(reference_runs):
    for seed in _seeds(reference_runs):
        history = reference_runs[("lstm", seed)].history
        assert len(history) == 35
        assert history.train_mse[-1] <= 0.5 * history.train_mse[0], f"seed {seed}"
        assert history.val_mse[-1] <= 0.5 * history.val_mse[0], f"seed {seed}"


# criterion 7 ---------------------------------------------------------------


def test_a7_reruns_byte_identical(small_corpus_paths, tmp_path):
    def run(tag: str) -> dict[str, bytes]:
        bundle = tmp_path / tag / "bundle"
        out = tmp_path / tag / "run"
        report = tmp_path / tag / "report"
        assert cli_main([
            "preprocess", "--train-file", str(small_corpus_paths["train"]),
            "--out", str(bundle), "--n-val", "1", "--seed", "0",
        ]) == 0
        assert cli_main([
            "train", "--bundle", str(bundle), "--out", str(out),
            "--epochs", "3", "--seed", "42",
        ]) == 0
        assert cli_main([
            "evaluate", "--checkpoint", str(out / "checkpoint.json"),
            "--test-file", str(small_corpus_paths["test"]),
            "--rul-file", str(small_corpus_paths["rul"]),
            "--scaler", str(bundle / "scaler.json"), "--out", str(report),
        ]) == 0
        return {
            "history.csv": (out / "history.csv").read_bytes(),
            "checkpoint.json": (out / "checkpoint.json").read_bytes(),
            "eval_report.json": (report / "eval_report.json").read_bytes(),
        }

    first = run("first")
    second = run("second")
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"


# criterion 8 ---------------------------------------------------------------


def test_a8_preprocessing_invariants(train_trajectories, pipeline_seed1):
    result = pipeline_seed1

    # Scaled features in [0, 1], scaler inverse undoes its transform on the
    # data it was fitted to, engine split disjoint and exhaustive.
    assert preprocess.invariant_failures(train_trajectories, result) == []

    # Smoothing: identity at alpha=1, and the constant -2.5 stays exact at
    # alpha=0.1. Not every constant does: 0.3 drifts by an ulp at step 1.
    series = SeededRng(8).generator.normal(size=(60, 4))
    assert np.array_equal(preprocess.ewma_smooth(series, alpha=1.0), series)
    flat = np.full((40, 3), -2.5)
    assert np.array_equal(preprocess.ewma_smooth(flat, alpha=0.1), flat)

    # Engine-level split: 80/20.
    assert len(result.train_ids) == 80 and len(result.val_ids) == 20


# criterion 9 ---------------------------------------------------------------


def test_a9_report_matches_predictions_csv(reference_runs, tmp_path):
    report = reference_runs[("lstm", _seeds(reference_runs)[0])].report
    report_path = tmp_path / "eval_report.json"
    csv_path = tmp_path / "predictions.csv"
    train_eval.write_eval_report(report_path, report)
    train_eval.write_predictions_csv(csv_path, report)

    stored_mse = json.loads(report_path.read_text())["mse"]
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    recomputed = np.mean([
        (float(r["predicted_rul"]) - float(r["true_rul"])) ** 2 for r in rows
    ])
    assert abs(recomputed - stored_mse) < 1e-9
