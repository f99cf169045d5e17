"""Shared fixtures: one session corpus and one set of reference trainings.

The corpus is synthesized unless RULKIT_DATA_DIR points at a directory
holding real train_FD001.txt / test_FD001.txt / RUL_FD001.txt files, in
which case those are used instead. The reference trainings (both model
kinds, seeds 1-3, default config) are expensive, so they run once per
session and every test that needs a trained model shares them.
"""

from __future__ import annotations

import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from rulkit import dataset_io, models, preprocess, simdata, train_eval
from rulkit.cli import main
from rulkit.numerics import SeededRng

REFERENCE_SEEDS = (1, 2, 3)

# Acceptance-gate test names -> short labels for the end-of-run summary.
ACCEPTANCE_CHECKS = {
    "test_a1_window_count_and_speed":
        "17731 training windows built in under 10s",
    "test_a2_dataset_counts_exact":
        "100 train engines / 100 test engines / 100 labels",
    "test_a3_gradients_match_finite_differences":
        "analytic gradients match finite differences (rel err < 1e-5)",
    "test_a4_recurrent_beats_feedforward_every_seed":
        "windowed model beats single-cycle model on all seeds",
    "test_a5_test_mse_within_bands":
        "test MSEs inside expected bands on >= 2 of 3 seeds",
    "test_a6_losses_halve_over_training":
        "train and val MSE drop >= 50% from epoch 1 to 35",
    "test_a7_reruns_byte_identical":
        "identical config+seed reruns produce byte-identical artifacts",
    "test_a8_preprocessing_invariants":
        "scaling, smoothing, round-trip and split invariants hold",
    "test_a9_report_matches_predictions_csv":
        "report MSE equals mean per-engine squared error (1e-9)",
}

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.split("::")[-1]
    if name not in ACCEPTANCE_CHECKS:
        return
    if report.when == "call":
        _acceptance_outcomes[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.outcome != "passed":
        _acceptance_outcomes[name] = "SKIP" if report.skipped else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for index, (name, label) in enumerate(ACCEPTANCE_CHECKS.items(), start=1):
        outcome = _acceptance_outcomes.get(name, "NOT RUN")
        terminalreporter.write_line(f"criterion {index}: {outcome} - {label}")


@pytest.fixture(scope="session")
def corpus_paths(tmp_path_factory) -> dict[str, Path]:
    """Paths to the train/test/RUL files (real if provided, else synthetic)."""
    data_dir = os.environ.get("RULKIT_DATA_DIR")
    if data_dir:
        base = Path(data_dir)
        paths = {
            "train": base / "train_FD001.txt",
            "test": base / "test_FD001.txt",
            "rul": base / "RUL_FD001.txt",
        }
        if all(p.is_file() for p in paths.values()):
            return paths
        raise FileNotFoundError(
            f"RULKIT_DATA_DIR={data_dir} does not contain the three dataset files"
        )
    return simdata.write_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="session")
def train_trajectories(corpus_paths):
    return dataset_io.read_trajectories(corpus_paths["train"])


@pytest.fixture(scope="session")
def test_trajectories(corpus_paths):
    return dataset_io.read_trajectories(corpus_paths["test"])


@pytest.fixture(scope="session")
def rul_labels(corpus_paths):
    return dataset_io.read_rul_labels(corpus_paths["rul"])


@pytest.fixture
def forward_rows(monkeypatch) -> list[int]:
    """The batch size of every models.lstm_forward and mlp_forward call, in order."""
    rows: list[int] = []
    for name in ("lstm_forward", "mlp_forward"):
        def spy(params, x, real=getattr(models, name)):
            rows.append(len(x))
            return real(params, x)
        monkeypatch.setattr(models, name, spy)
    return rows


@pytest.fixture(scope="session")
def pipeline_seed1(train_trajectories):
    return preprocess.run_pipeline(train_trajectories, seed=1)


@pytest.fixture(scope="session")
def reference_runs(train_trajectories, test_trajectories, rul_labels):
    """Default-config trainings for both model kinds across the seeds.

    Keyed by (kind, seed); each value carries the training history and the
    test-set evaluation report.
    """
    runs = {}
    for seed in REFERENCE_SEEDS:
        result = preprocess.run_pipeline(train_trajectories, seed=seed)
        scaler_hash = train_eval.scaler_hash(result.scaler)
        for kind in train_eval.MODEL_KINDS:
            config = train_eval.TrainConfig(model=kind, seed=seed)
            params, state, history = train_eval.train(
                config, result.train_rows, result.val_rows, SeededRng(config.seed)
            )
            model = train_eval.TrainedModel(
                kind=kind,
                params=params,
                window=config.window,
                feature_names=result.scaler.feature_names,
                scaler_hash=scaler_hash,
                config_hash=config.config_hash(),
                seed=seed,
            )
            report = train_eval.evaluate(
                model, test_trajectories, rul_labels, result.scaler, config
            )
            runs[(kind, seed)] = SimpleNamespace(
                config=config, model=model, history=history, report=report
            )
    return runs


@pytest.fixture(scope="session")
def small_corpus_paths(tmp_path_factory) -> dict[str, Path]:
    """A light corpus for CLI and trainer tests that do not need realism."""
    config = simdata.SimConfig(
        n_train_engines=6, n_test_engines=4, total_train_rows=960, seed=5
    )
    return simdata.write_corpus(tmp_path_factory.mktemp("small-corpus"), config)


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """Run the CLI chain once on a 6-engine corpus: simulate -> preprocess ->
    train (LSTM and MLP) -> evaluate. Tests copy these files before editing them."""
    root = tmp_path_factory.mktemp("cli")
    ws = SimpleNamespace(
        root=root,
        train_file=root / "corpus" / "train_FD001.txt",
        test_file=root / "corpus" / "test_FD001.txt",
        rul_file=root / "corpus" / "RUL_FD001.txt",
        bundle=root / "bundle",
        run=root / "run",
        mlp_run=root / "mlp_run",
        report=root / "report",
    )
    assert main([
        "simulate", "--out", str(root / "corpus"), "--seed", "7",
        "--train-engines", "6", "--test-engines", "4", "--total-train-rows", "960",
    ]) == 0
    assert main([
        "preprocess", "--train-file", str(ws.train_file),
        "--out", str(ws.bundle), "--n-val", "1",
    ]) == 0
    assert main([
        "train", "--bundle", str(ws.bundle), "--out", str(ws.run),
        "--epochs", "2", "--lstm-hidden", "12", "--seed", "0",
    ]) == 0
    assert main([
        "train", "--bundle", str(ws.bundle), "--out", str(ws.mlp_run),
        "--model", "mlp", "--mlp-hidden", "8,4", "--epochs", "1", "--seed", "0",
    ]) == 0
    assert main([
        "evaluate", "--checkpoint", str(ws.run / "checkpoint.json"),
        "--test-file", str(ws.test_file), "--rul-file", str(ws.rul_file),
        "--scaler", str(ws.bundle / "scaler.json"), "--out", str(ws.report),
    ]) == 0
    return ws
