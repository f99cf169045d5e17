"""End-to-end command-line workflow on a small synthetic corpus."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rulkit import dataset_io, preprocess, train_eval
from rulkit.cli import main
from rulkit.errors import ConfigError


def test_simulate_writes_three_files(workspace):
    for path in (workspace.train_file, workspace.test_file, workspace.rul_file):
        assert path.is_file() and path.stat().st_size > 0


def test_preprocess_reports_counts(workspace, tmp_path, capsys):
    assert main([
        "preprocess", "--train-file", str(workspace.train_file),
        "--out", str(tmp_path / "bundle"), "--n-val", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "engines: 6" in out
    assert "features: 16" in out
    assert "training samples:" in out
    assert "wrote bundle to" in out


# sha256 of each bundle file that `rulkit preprocess --seed 1` writes from the
# default simulated corpus (the bundle/* lines of benchmarks/artifact_digest.py):
# a change to the preprocessing code that should keep its numbers keeps these.
DEFAULT_BUNDLE_SHA256 = {
    "meta.json": "aa43d5f9cc44286fc80425a0ac5d5fdcf476c39618eadbdbb577563008bed75e",
    "scaler.json": "73eed6bfa3d94af5e804ac3e494f21241013576577976254a245f8fe7b961aca",
    "train_rows.npy": "0476eb1c24efe7de836772208136c70970527022c474ee4e22f9d017ba4e1a59",
    "train_rul.npy": "c64ab371765f1c49b52c0865e71658cdf2ab145b1f43a9853e88014f8f93a10e",
    "train_engines.npy": "4eb11dac0081756e36b2954aa5cd55b4e8d20b67dd283495ed25e87ec4f6d427",
    "val_rows.npy": "b125114a5f42c09fd133fc2adb260b00eaa3e580bbe68e35afb66cd281a49efd",
    "val_rul.npy": "4caebdda1bc9977a4e994220e91d0c975236b4d325349719a98f6017ed36ff71",
    "val_engines.npy": "a91a0c0b00748020fb90417bd5b15cb099558b080be156c169e13dcbdc641d1c",
}


def test_preprocess_default_corpus_bundle_bytes_are_pinned(tmp_path):
    corpus, bundle = tmp_path / "corpus", tmp_path / "bundle"
    assert main(["simulate", "--out", str(corpus)]) == 0
    assert main(["preprocess", "--train-file", str(corpus / "train_FD001.txt"),
                 "--out", str(bundle), "--seed", "1"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in bundle.iterdir()}
    assert digests == DEFAULT_BUNDLE_SHA256


def test_preprocess_unit_id_too_large_names_the_line(workspace, tmp_path, capsys):
    lines = workspace.train_file.read_text().splitlines(keepends=True)
    lines[2] = "1e19 " + lines[2].split(maxsplit=1)[1]
    train_file = tmp_path / "train.txt"
    train_file.write_text("".join(lines))
    out = tmp_path / "bundle"
    assert main(["preprocess", "--train-file", str(train_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {train_file}: line 3: unit id must be a positive integer" in err
    assert "Traceback" not in err and not out.exists()


def test_train_writes_artifacts(workspace):
    history = (workspace.run / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_mse,val_mse"
    assert len(history) == 3  # header + one line per epoch
    checkpoint = json.loads((workspace.run / "checkpoint.json").read_text())
    assert checkpoint["config"]["model"] == "lstm"
    assert checkpoint["config"]["epochs"] == 2


def test_evaluate_writes_report_and_prints_mse(workspace, tmp_path, capsys):
    report = json.loads((workspace.report / "eval_report.json").read_text())
    assert len(report["engines"]) == 4
    assert (workspace.report / "predictions.csv").is_file()

    assert main([
        "evaluate", "--checkpoint", str(workspace.run / "checkpoint.json"),
        "--test-file", str(workspace.test_file), "--rul-file", str(workspace.rul_file),
        "--scaler", str(workspace.bundle / "scaler.json"), "--out", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "engines evaluated: 4" in out
    assert "test mse:" in out


def test_evaluate_reads_the_checkpoint_once(workspace, tmp_path, monkeypatch):
    checkpoint = workspace.run / "checkpoint.json"
    reads = []
    real_read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self)
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    assert _evaluate(workspace, tmp_path) == 0
    assert reads.count(checkpoint) == 1
    monkeypatch.undo()
    report = json.loads((tmp_path / "eval_report.json").read_text())
    assert report["checkpoint_hash"] == hashlib.sha256(checkpoint.read_bytes()).hexdigest()
    assert ((tmp_path / "eval_report.json").read_bytes()
            == (workspace.report / "eval_report.json").read_bytes())


def test_predict_prints_per_engine_csv(workspace, capsys):
    assert main([
        "predict", "--checkpoint", str(workspace.run / "checkpoint.json"),
        "--test-file", str(workspace.test_file),
        "--scaler", str(workspace.bundle / "scaler.json"),
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "engine_id,predicted_rul"
    assert len(lines) == 5
    assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3, 4]


def test_predict_single_engine_filter(workspace, capsys):
    assert main([
        "predict", "--checkpoint", str(workspace.run / "checkpoint.json"),
        "--test-file", str(workspace.test_file),
        "--scaler", str(workspace.bundle / "scaler.json"),
        "--engine", "3",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("3,")


def test_predict_unknown_engine_fails(workspace, capsys):
    assert main([
        "predict", "--checkpoint", str(workspace.run / "checkpoint.json"),
        "--test-file", str(workspace.test_file),
        "--scaler", str(workspace.bundle / "scaler.json"),
        "--engine", "99",
    ]) == 1
    assert "error:" in capsys.readouterr().err


def test_predict_rejects_stale_scaler(workspace, tmp_path, capsys):
    # predict shares evaluate's inputs, so it checks the scaler the same way.
    scaler = json.loads((workspace.bundle / "scaler.json").read_text())
    scaler["maxs"] = [m + 1.0 for m in scaler["maxs"]]
    stale = tmp_path / "scaler.json"
    stale.write_text(json.dumps(scaler))
    assert main([
        "predict", "--checkpoint", str(workspace.run / "checkpoint.json"),
        "--test-file", str(workspace.test_file), "--scaler", str(stale),
    ]) == 1
    captured = capsys.readouterr()
    assert "hash mismatch" in captured.err and captured.out == ""
    assert str(workspace.run / "checkpoint.json") in captured.err and str(stale) in captured.err


def test_evaluate_mismatched_scaler_names_both_files(workspace, tmp_path, capsys):
    # A scaler fitted on more heavily smoothed training engines.
    bundle = tmp_path / "bundle"
    assert main([
        "preprocess", "--train-file", str(workspace.train_file),
        "--out", str(bundle), "--n-val", "1", "--alpha", "0.3",
    ]) == 0
    capsys.readouterr()
    checkpoint, scaler = workspace.run / "checkpoint.json", bundle / "scaler.json"
    assert main([
        "evaluate", "--checkpoint", str(checkpoint),
        "--test-file", str(workspace.test_file), "--rul-file", str(workspace.rul_file),
        "--scaler", str(scaler), "--out", str(tmp_path / "report"),
    ]) == 1
    captured = capsys.readouterr()
    assert f"error: {checkpoint} does not match {scaler}: " in captured.err
    assert "hash mismatch" in captured.err and captured.out == ""
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("key, value, message", [
    ("window", 20.0, "window must be an integer, got 20.0"),
    ("trim", 2.5, "trim must be an integer, got 2.5"),
    ("n_val", True, "n_val must be an integer, got True"),
    ("seed", "1", "seed must be an integer, got '1'"),
    ("rul_cap", 125.0, "rul_cap must be an integer, got 125.0"),
    ("alpha", "0.1", "alpha must be a finite real number, got '0.1'"),
    ("alpha", float("nan"), "alpha must be a finite real number, got nan"),
    ("alpha", float("inf"), "alpha must be a finite real number, got inf"),
])
def test_preprocess_config_value_of_wrong_type_rejected(workspace, tmp_path, capsys,
                                                        key, value, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: value}))
    out = tmp_path / "bundle"
    assert main([
        "preprocess", "--train-file", str(workspace.train_file),
        "--out", str(out), "--config", str(config_path),
    ]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("alpha", 0.0, "alpha must be in (0, 1], got 0.0"),
    ("alpha", 1.5, "alpha must be in (0, 1], got 1.5"),
    ("alpha", True, "alpha must be a finite real number, got True"),
    ("alpha", None, "alpha must be a finite real number, got None"),
    ("trim", -1, "trim must be >= 0, got -1"),
    ("trim", 2.5, "trim must be an integer, got 2.5"),
    ("window", 0, "window must be >= 1, got 0"),
    ("window", True, "window must be an integer, got True"),
    ("n_val", -1, "n_val must be >= 0, got -1"),
    ("n_val", "1", "n_val must be an integer, got '1'"),
    ("seed", False, "seed must be an integer, got False"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("rul_cap", 20.5, "rul_cap must be an integer, got 20.5"),
    ("rul_cap", 0, "rul_cap must be >= 1, got 0"),
])
def test_each_pipeline_setting_has_one_rule(workspace, tmp_path, capsys, key, value, message):
    """run_pipeline, TrainConfig and `rulkit train` on a bundle whose meta.json holds
    the value all reject it in the same words."""
    with pytest.raises(ConfigError) as from_pipeline:
        preprocess.run_pipeline(dataset_io.read_trajectories(workspace.train_file),
                                **{key: value})
    with pytest.raises(ConfigError) as from_config:
        train_eval.TrainConfig(**{key: value})
    assert str(from_pipeline.value) == str(from_config.value) == message
    bundle = tmp_path / "bundle"
    shutil.copytree(workspace.bundle, bundle)
    meta = json.loads((bundle / "meta.json").read_text())
    meta["pipeline"][key] = value
    (bundle / "meta.json").write_text(json.dumps(meta))
    assert main(["train", "--bundle", str(bundle), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {bundle / 'meta.json'}: pipeline {message}\n"


@pytest.mark.parametrize("hidden", [[8.7, 4], 5, "8,4", [8, True]])
def test_config_file_mlp_hidden_must_be_a_list_of_integers(workspace, tmp_path, capsys, hidden):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"model": "mlp", "epochs": 1, "mlp_hidden": hidden}))
    assert main([
        "train", "--bundle", str(workspace.bundle), "--out", str(tmp_path / "run"),
        "--config", str(config_path),
    ]) == 1
    got = tuple(hidden) if isinstance(hidden, list) else hidden
    assert f"mlp hidden sizes must be a tuple of integers, got {got!r}" in capsys.readouterr().err


def test_config_file_mlp_hidden_list_is_used(workspace, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"model": "mlp", "epochs": 1, "mlp_hidden": [8, 4]}))
    out = tmp_path / "run"
    assert main([
        "train", "--bundle", str(workspace.bundle), "--out", str(out),
        "--config", str(config_path),
    ]) == 0
    _, _, config = train_eval.load_checkpoint(out / "checkpoint.json")
    assert config.mlp_hidden == (8, 4)


def test_train_mlp_via_flags(workspace, tmp_path):
    out = tmp_path / "mlp_run"
    assert main([
        "train", "--bundle", str(workspace.bundle), "--out", str(out),
        "--model", "mlp", "--mlp-hidden", "8,4", "--epochs", "1", "--seed", "0",
    ]) == 0
    model, _, config = train_eval.load_checkpoint(out / "checkpoint.json")
    assert model.kind == "mlp"
    assert config.mlp_hidden == (8, 4)
    assert [w.shape for w in model.params.weights] == [(8, 16), (4, 8), (1, 4)]


def test_config_file_merges_with_flag_priority(workspace, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"epochs": 1, "lstm_hidden": 8, "seed": 3}))
    out = tmp_path / "run"
    assert main([
        "train", "--bundle", str(workspace.bundle), "--out", str(out),
        "--config", str(config_path), "--epochs", "2",
    ]) == 0
    _, _, config = train_eval.load_checkpoint(out / "checkpoint.json")
    assert config.epochs == 2  # flag beats file
    assert config.lstm_hidden == 8 and config.seed == 3  # file beats defaults


def test_unknown_config_key_rejected(workspace, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"optimizer": "sgd"}))
    assert main([
        "train", "--bundle", str(workspace.bundle), "--out", str(tmp_path / "run"),
        "--config", str(config_path),
    ]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "unknown config keys" in err


def test_pipeline_setting_conflicting_with_bundle_rejected(workspace, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"window": 99, "epochs": 1}))
    assert main([
        "train", "--bundle", str(workspace.bundle), "--out", str(tmp_path / "run"),
        "--config", str(config_path),
    ]) == 1
    assert "conflicts with the bundle's" in capsys.readouterr().err


def test_bad_hidden_list_rejected(workspace, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "train", "--bundle", str(workspace.bundle),
            "--out", str(tmp_path / "run"), "--mlp-hidden", "8,x",
        ])
    assert excinfo.value.code == 2
    assert "--mlp-hidden" in capsys.readouterr().err


def test_missing_checkpoint_fails_cleanly(workspace, tmp_path, capsys):
    assert main([
        "evaluate", "--checkpoint", str(tmp_path / "missing.json"),
        "--test-file", str(workspace.test_file), "--rul-file", str(workspace.rul_file),
        "--scaler", str(workspace.bundle / "scaler.json"), "--out", str(tmp_path),
    ]) == 1
    assert "error:" in capsys.readouterr().err


def _evaluate(workspace, out, checkpoint=None, scaler=None):
    return main([
        "evaluate", "--checkpoint", str(checkpoint or workspace.run / "checkpoint.json"),
        "--test-file", str(workspace.test_file), "--rul-file", str(workspace.rul_file),
        "--scaler", str(scaler or workspace.bundle / "scaler.json"), "--out", str(out),
    ])


@pytest.mark.parametrize(
    "name, text, detail",
    [
        ("meta.json", "{", "not valid JSON"),
        ("scaler.json", "{", "not valid JSON"),
        ("meta.json", "[]", "bundle format None"),
        ("scaler.json", "[]", "list indices"),
        ("scaler.json", '{"feature_names": ["sensor_2"], "mins": 0.5, "maxs": 0.7}',
         "scaler feature names and bounds disagree in length"),
        ("scaler.json", '{"feature_names": ["sensor_2"], "mins": [[0.5]], "maxs": [[0.7]]}',
         "scaler feature names and bounds disagree in length"),
    ],
)
def test_train_on_corrupt_bundle_json_names_the_file(
    workspace, tmp_path, capsys, name, text, detail
):
    bundle = tmp_path / "bundle"
    shutil.copytree(workspace.bundle, bundle)
    (bundle / name).write_text(text)
    assert main([
        "train", "--bundle", str(bundle), "--out", str(tmp_path / "run"), "--epochs", "1",
    ]) == 1
    err = capsys.readouterr().err
    assert f"error: {bundle / name}: {detail}" in err and err.count("error:") == 1


def test_corrupt_config_file_names_the_file(workspace, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"epochs": 1,')
    assert main([
        "train", "--bundle", str(workspace.bundle), "--out", str(tmp_path / "run"),
        "--config", str(config_path),
    ]) == 1
    assert f"error: {config_path}: not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["checkpoint", "scaler"])
def test_evaluate_with_truncated_json_names_the_file(workspace, tmp_path, capsys, target):
    source = workspace.run / "checkpoint.json" if target == "checkpoint" else (
        workspace.bundle / "scaler.json"
    )
    broken = tmp_path / source.name
    text = source.read_text()
    broken.write_text(text[: len(text) // 2])
    assert _evaluate(workspace, tmp_path / "report", **{target: broken}) == 1
    assert f"error: {broken}: not valid JSON" in capsys.readouterr().err


def _on_params(change, run="run"):
    """An edit that applies `change` to the parameters of the checkpoint in
    workspace.<run>."""
    def edit(d):
        change(d["params"])
    edit.run = run
    return edit


@pytest.mark.parametrize(
    "edit, detail",
    [
        (lambda d: d.pop("params"), "checkpoint has no entry 'params'"),
        (lambda d: d.pop("config"), "checkpoint has no entry 'config'"),
        (lambda d: d.pop("optimizer"), "checkpoint has no entry 'optimizer'"),
        (lambda d: d["config"].update(optimizer="sgd"), "optimizer"),
        (lambda d: d["params"]["w_head"].__setitem__(0, float("nan")),
         "parameter 'w_head' has non-finite values"),
        (lambda d: d["params"]["w_x"][1].__setitem__(2, float("-inf")),
         "parameter 'w_x' has non-finite values"),
        # Bad parameter shapes.
        (_on_params(lambda t: t.update(b0=t["b0"][:1]), run="mlp_run"),
         "parameter 'b0' has shape (1,), expected (8,)"),
        (_on_params(dict.clear, run="mlp_run"), "an MLP needs at least one layer"),
        (_on_params(lambda t: t.update(b_head=t["b_head"] * 2)),
         "parameter 'b_head' has shape (2,), expected (1,)"),
        (_on_params(lambda t: t.update(b=t["b"][:-1])),
         "parameter 'b' has shape (47,), expected (48,)"),
        # A stack of one model: every tensor wrapped in one more leading axis.
        (_on_params(lambda t: t.update({k: [v] for k, v in t.items()})),
         "parameters hold a stack of shape (1,), not one model"),
        # An entry that must be a JSON object holds a list.
        (lambda d: d.update(params=list(d["params"].values())),
         "checkpoint entry 'params' is not a JSON object"),
        (lambda d: d.update(config=list(d["config"].values())),
         "checkpoint entry 'config' is not a JSON object"),
        (lambda d: d.update(optimizer=list(d["optimizer"].values())),
         "checkpoint entry 'optimizer' is not a JSON object"),
        # The config is the one record of the model's seed, window and kind; config_hash
        # catches an edit that leaves it valid.
        pytest.param(lambda d: d["config"].update(seed="x"), "seed must be an integer, got 'x'",
                     id="config seed 'x'"),
        pytest.param(lambda d: d["config"].update(seed=False),
                     "seed must be an integer, got False", id="config seed false"),
        pytest.param(lambda d: d["config"].update(window=19), "checkpoint config_hash '",
                     id="config window 19"),
        pytest.param(lambda d: d["config"].update(model="mlp"),
                     "checkpoint params have no mlp tensor 'w0'", id="config model mlp"),
    ],
)
def test_evaluate_with_incomplete_checkpoint_names_the_file(
    workspace, tmp_path, capsys, edit, detail
):
    run = getattr(workspace, getattr(edit, "run", "run"))
    blob = json.loads((run / "checkpoint.json").read_text())
    edit(blob)
    broken = tmp_path / "checkpoint.json"
    broken.write_text(json.dumps(blob))
    assert _evaluate(workspace, tmp_path / "report", checkpoint=broken) == 1
    err = capsys.readouterr().err
    assert f"error: {broken}: " in err and detail in err
    assert "Traceback" not in err
    assert not (tmp_path / "report").exists()


def test_evaluate_rejects_a_v1_checkpoint(workspace, tmp_path, capsys):
    """A v1 checkpoint (Adam's moments under `adam_state`) is not read: the one
    error line names the file, the format found and the one expected."""
    blob = json.loads((workspace.run / "checkpoint.json").read_text())
    params = blob["params"]
    blob.update(format="rulkit-checkpoint-v1",
                adam_state={**blob.pop("optimizer"), "m": params, "v": params})
    old = tmp_path / "checkpoint.json"
    old.write_text(json.dumps(blob))
    assert _evaluate(workspace, tmp_path / "report", checkpoint=old) == 1
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and captured.out == ""
    assert (f"error: {old}: unrecognized checkpoint format 'rulkit-checkpoint-v1', "
            "expected 'rulkit-checkpoint-v3'; re-run `rulkit train`") in captured.err
    assert not (tmp_path / "report").exists()


def test_verify_self_checks_pass(capsys):
    assert main(["verify", "--trials", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok:") == 6
    assert "FAIL" not in out


@pytest.mark.parametrize("trials", ["-3", "0"])
def test_verify_rejects_fewer_than_one_trial(capsys, trials):
    assert main(["verify", "--trials", trials, "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert f"error: trials must be >= 1, got {trials}\n" == captured.err
    assert "ok:" not in captured.out


def test_lstm_artifacts_are_the_same_with_no_blas_thread_count_and_with_one(tmp_path):
    """rulkit defaults OPENBLAS_NUM_THREADS to 1. On a multi-core machine, an LSTM
    trained on this two-engine corpus by a multi-threaded BLAS has other bits."""
    corpus, bundle = tmp_path / "corpus", tmp_path / "bundle"
    assert main(["simulate", "--out", str(corpus), "--seed", "7", "--train-engines", "2",
                 "--test-engines", "1", "--total-train-rows", "300"]) == 0
    assert main(["preprocess", "--train-file", str(corpus / "train_FD001.txt"),
                 "--out", str(bundle), "--n-val", "1"]) == 0
    artifacts = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"run_{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "rulkit.cli", "train", "--bundle", str(bundle),
             "--out", str(out), "--model", "lstm", "--epochs", "1", "--seed", "0"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        artifacts.append([(out / name).read_bytes() for name in ("checkpoint.json", "history.csv")])
    assert artifacts[0] == artifacts[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rulkit.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "evaluate" in proc.stdout
