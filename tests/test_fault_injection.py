"""Every file a command reads, broken in every way that applies to it.

Each case copies one input of the `workspace` chain, breaks the copy and
runs the command on it in-process through cli.main. The command must exit
non-zero with the broken file's path in stderr, leave no output behind and
raise nothing past main: an escaped exception would be a traceback.
"""

import json
import os
import shutil

import numpy as np
import pytest

from rulkit.cli import main
from rulkit.ioutil import canonical_json, sha256_text


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _json(change):
    """A fault that applies `change` in place to the file's decoded JSON."""
    def fault(path):
        d = json.loads(path.read_text())
        change(d)
        path.write_text(json.dumps(d))
    return fault


def _npy(change):
    def fault(path):
        np.save(path, change(np.load(path)))
    return fault


def _text(change):
    def fault(path):
        path.write_text(change(path.read_text()))
    return fault


def _set(value, at=None):
    """A fault that sets one entry to `value`: flat index `at`, or the middle one."""
    def change(a):
        a = a.copy()
        a.flat[a.size // 2 if at is None else at] = value
        return a
    return _npy(change)


def _lines(change):
    return _text(lambda text: "".join(change(text.splitlines(keepends=True))))


def _nan_row(lines):
    tokens = lines[5].split()
    tokens[7] = "nan"
    return lines[:5] + [" ".join(tokens) + "\n"] + lines[6:]


def _extra_column(lines):
    return lines[:5] + [lines[5].rstrip("\n") + " 1.0\n"] + lines[6:]


def _swap_two_feature_names(meta):
    names = meta["feature_names"]
    names[0], names[1] = names[1], names[0]


def _replace_id(old, new):
    """A meta.json fault that writes `new` in place of engine id `old`, in
    whichever of train_ids and val_ids holds it."""
    def change(meta):
        for split in ("train_ids", "val_ids"):
            meta[split] = [new if i == old else i for i in meta[split]]
    return _json(change)


def _config_with(**changes):
    """A checkpoint fault that edits its config and writes that config's hash, so
    only the config's own rules can catch the edit."""
    def change(checkpoint):
        checkpoint["config"].update(changes)
        checkpoint["config_hash"] = sha256_text(canonical_json(checkpoint["config"]))
    return _json(change)


def _as_v2(checkpoint):
    """A v2 checkpoint's entries: v3's, with top-level copies of the config's model,
    window and seed, and the LSTM's sizes under `arch`."""
    config = checkpoint["config"]
    checkpoint.update(format="rulkit-checkpoint-v2", model=config["model"],
                      window=config["window"], seed=config["seed"],
                      arch={"hidden_size": config["lstm_hidden"],
                            "input_size": len(checkpoint["feature_names"])})


SCALER_FAULTS = [
    ("truncated", _truncate, "not valid JSON"),
    ("wrong JSON type", _text(lambda t: "[]"), "list indices"),
    ("missing key", _json(lambda d: d.pop("maxs")), "missing entry 'maxs'"),
    ("NaN", _json(lambda d: d["mins"].__setitem__(0, float("nan"))), "non-finite bound"),
    ("wrong shape", _json(lambda d: d.update(mins=d["mins"][:-1])), "disagree in length"),
    ("scalar bounds", _json(lambda d: d.update(mins=0.5, maxs=0.7)), "disagree in length"),
    ("nested bounds", _json(lambda d: d.update(mins=[[m] for m in d["mins"]],
                                               maxs=[[m] for m in d["maxs"]])),
     "disagree in length"),
]

BUNDLE_JSON_FAULTS = {
    "meta.json": [
        ("truncated", _truncate, "not valid JSON"),
        ("wrong JSON type", _text(lambda t: "[]"), "bundle format None"),
        ("missing key", _json(lambda d: d.pop("pipeline")), "missing or malformed"),
        ("wrong format string", _json(lambda d: d.update(format="rulkit-bundle-v1")),
         "is not 'rulkit-bundle-v3'"),
        ("v2 bundle",
         _json(lambda d: (d.pop("pipeline_hash"), d.update(format="rulkit-bundle-v2"))),
         "bundle format 'rulkit-bundle-v2' is not 'rulkit-bundle-v3'; "
         "re-run `rulkit preprocess`"),
        ("counts of wrong JSON type", _json(lambda d: d.update(counts=[])),
         "counts is not a JSON object"),
        ("counts missing train_windows",
         _json(lambda d: d["counts"].pop("train_windows")),
         "counts.train_windows must be a non-negative integer, got None"),
        ("counts missing train_rows", _json(lambda d: d["counts"].pop("train_rows")),
         "counts.train_rows must be a non-negative integer, got None"),
        ("NaN count", _json(lambda d: d["counts"].update(val_rows=float("nan"))),
         "counts.val_rows must be a non-negative integer, got nan"),
        ("negative count", _json(lambda d: d["counts"].update(engines=-6)),
         "counts.engines must be a non-negative integer, got -6"),
        # The pipeline values go through check_pipeline_values, as run_pipeline's do.
        ("pipeline alpha a string", _json(lambda d: d["pipeline"].update(alpha="x")),
         "pipeline alpha must be a finite real number, got 'x'"),
        ("negative pipeline trim", _json(lambda d: d["pipeline"].update(trim=-1)),
         "pipeline trim must be >= 0, got -1"),
        ("zero pipeline rul_cap", _json(lambda d: d["pipeline"].update(rul_cap=0)),
         "pipeline rul_cap must be >= 1, got 0"),
        ("pipeline rul_cap a float", _json(lambda d: d["pipeline"].update(rul_cap=20.5)),
         "pipeline rul_cap must be an integer, got 20.5"),
        ("pipeline rul_cap a string", _json(lambda d: d["pipeline"].update(rul_cap="20")),
         "pipeline rul_cap must be an integer, got '20'"),
        ("pipeline window true", _json(lambda d: d["pipeline"].update(window=True)),
         "pipeline window must be an integer, got True"),
        # The chain splits with seed 0, which JSON false equals in Python.
        ("pipeline seed false", _json(lambda d: d["pipeline"].update(seed=False)),
         "pipeline seed must be an integer, got False"),
        ("null pipeline n_val", _json(lambda d: d["pipeline"].update(n_val=None)),
         "pipeline n_val must be an integer, got None"),
        ("pipeline missing alpha", _json(lambda d: d["pipeline"].pop("alpha")),
         "pipeline has no entry 'alpha'"),
        ("pipeline a list", _json(lambda d: d.update(pipeline=list(d["pipeline"].values()))),
         "pipeline is not a JSON object"),
        # JSON true equals 1 and 2.0 equals 2 in Python, so both used to load.
        ("engine id null", _replace_id(1, None), "_ids must be a list of integers, got ["),
        ("engine id a string", _replace_id(1, "x"), "_ids must be a list of integers, got ["),
        ("engine id true", _replace_id(1, True), "_ids must be a list of integers, got ["),
        ("engine id 2.0", _replace_id(2, 2.0), "_ids must be a list of integers, got ["),
        ("train_ids an object", _json(lambda d: d.update(train_ids={"1": 1})),
         "train_ids must be a list of integers, got {'1': 1}"),
        ("pipeline n_val not the val_ids count", _json(lambda d: d["pipeline"].update(n_val=2)),
         "pipeline n_val is 2, but val_ids holds 1 engines"),
        # Valid values that no array shows: pipeline_hash binds them.
        ("pipeline alpha 0.9", _json(lambda d: d["pipeline"].update(alpha=0.9)),
         "pipeline_hash is '"),
        ("pipeline trim 5", _json(lambda d: d["pipeline"].update(trim=5)), "pipeline_hash is '"),
        ("pipeline seed and split_seed 1",
         _json(lambda d: (d["pipeline"].update(seed=1), d.update(split_seed=1))),
         "pipeline_hash is '"),
        # Checkpoints take the feature order from scaler.json, so meta.json must agree.
        ("feature_names swapped", _json(_swap_two_feature_names), "feature_names is ["),
    ],
    # A valid scaler that is not the one meta.json's scaler_hash records.
    "scaler.json": SCALER_FAULTS + [
        ("maxs raised by 5", _json(lambda d: d.update(maxs=[m + 5 for m in d["maxs"]])),
         "does not match the scaler_hash in"),
    ],
}

_ARRAY_FAULTS = [
    ("truncated", _truncate, "unreadable array"),
    ("wrong shape", _npy(lambda a: a[:-1]), "expected"),
]
_FLOAT_FAULTS = _ARRAY_FAULTS + [
    ("wrong dtype", _npy(lambda a: a.astype(np.float32)), "expected float64"),
    ("NaN", _set(np.nan), "non-finite values"),
]
_INT_FAULTS = _ARRAY_FAULTS + [
    ("wrong dtype", _npy(lambda a: a.astype(np.int32)), "expected int64"),
    ("wrong engine ids", _npy(lambda a: a + 1000), "engine ids are not meta.json's"),
]
# Finite values of the right dtype and shape that no pipeline writes: transform
# clips scaled rows into [0, 1], and label_rul counts the cycles left in a run.
_ROWS_FAULTS = _FLOAT_FAULTS + [
    ("entry above 1", _set(42.0), "scaled rows lie outside [0, 1]"),
    ("entry below 0", _set(-1e-9, at=0), "scaled rows lie outside [0, 1]"),
]
_RUL_FAULTS = _FLOAT_FAULTS + [
    ("every label 7", _npy(lambda a: np.full_like(a, 7.0)), "labels are not the cycles left"),
    ("last label 1", _set(1.0, at=-1), "(meta.json's rul_cap: None)"),
    ("labels reversed", _npy(lambda a: a[::-1].copy()), "labels are not the cycles left"),
]
BUNDLE_ARRAY_FAULTS = {
    f"{split}_{kind}.npy": faults
    for split in ("train", "val")
    for kind, faults in (("rows", _ROWS_FAULTS), ("rul", _RUL_FAULTS),
                         ("engines", _INT_FAULTS))
}

TRAIN_CASES = [
    (name, label, fault, detail)
    for table in (BUNDLE_JSON_FAULTS, BUNDLE_ARRAY_FAULTS)
    for name, faults in table.items()
    for label, fault, detail in faults
]

CHECKPOINT_FAULTS = [
    ("truncated", _truncate, "not valid JSON"),
    ("wrong JSON type", _text(lambda t: "[]"), "unrecognized checkpoint format"),
    ("missing key", _json(lambda d: d.pop("params")), "no entry 'params'"),
    ("wrong format string", _json(lambda d: d.update(format="rulkit-checkpoint-v0")),
     "unrecognized checkpoint format"),
    ("NaN", _json(lambda d: d["params"]["w_head"].__setitem__(0, float("nan"))),
     "non-finite values"),
    ("wrong shape", _json(lambda d: d["params"].update(b_head=[0.0, 0.0])),
     "'b_head'"),
    # The config alone records the seed and window. The chain trains with seed 0,
    # which JSON false equals in Python; config_hash catches a valid edit.
    ("seed of wrong JSON type", _json(lambda d: d["config"].update(seed="x")),
     "seed must be an integer, got 'x'"),
    ("seed false", _json(lambda d: d["config"].update(seed=False)),
     "seed must be an integer, got False"),
    ("window not the config's hash", _json(lambda d: d["config"].update(window=19)),
     "checkpoint config_hash '"),
    ("v2 checkpoint", _json(_as_v2),
     "unrecognized checkpoint format 'rulkit-checkpoint-v2', expected "
     "'rulkit-checkpoint-v3'; re-run `rulkit train`"),
    ("config window a float", _json(lambda d: d["config"].update(window=20.0)),
     "window must be an integer, got 20.0"),
    ("config_hash not the config's", _json(lambda d: d.update(config_hash="0" * 64)),
     f"checkpoint config_hash '{'0' * 64}' does not match its config's"),
    ("config n_val -1 with its hash", _config_with(n_val=-1), "n_val must be >= 0, got -1"),
    # Nothing reads the optimizer entry, so only its own rules catch a corrupt one.
    ("optimizer lr a string", _json(lambda d: d["optimizer"].update(lr="x")),
     "optimizer lr must be a finite real number, got 'x'"),
    ("optimizer step negative", _json(lambda d: d["optimizer"].update(step=-3)),
     "optimizer step must be >= 0, got -3"),
    # An empty hash must not pass for any scaler.
    ("blank scaler_hash", _json(lambda d: d.update(scaler_hash="")), "hash mismatch"),
]
TEST_FILE_FAULTS = [
    ("truncated", _truncate, "expected 26 columns"),
    ("NaN", _lines(_nan_row), "line 6"),
    ("extra column", _lines(_extra_column), "line 6: expected 26 columns, got 27"),
    ("empty", _text(lambda t: ""), "no data rows"),
]
RUL_FILE_FAULTS = [
    ("NaN", _lines(lambda lines: ["nan\n"] + lines[1:]), "line 1"),
    ("extra token", _lines(lambda lines: ["12 7\n"] + lines[1:]), "line 1"),
    # Above the float range: evaluate's float(label) would overflow.
    ("huge label", _lines(lambda lines: ["1" + "0" * 400 + "\n"] + lines[1:]), "line 1"),
    ("empty", _text(lambda t: ""), "empty"),
    ("too short", _lines(lambda lines: lines[:2]), "label count 2 does not match"),
]

# (the flag that names the file, its faults); only evaluate reads a RUL file.
SCORING_INPUTS = [
    ("--checkpoint", CHECKPOINT_FAULTS),
    ("--scaler", SCALER_FAULTS),
    ("--test-file", TEST_FILE_FAULTS),
]
SCORING_CASES = [
    (command, flag, label, fault, detail)
    for command, inputs in (
        ("evaluate", SCORING_INPUTS + [("--rul-file", RUL_FILE_FAULTS)]),
        ("predict", SCORING_INPUTS),
    )
    for flag, faults in inputs
    for label, fault, detail in faults
]


def _run_cleanly(argv, capsys):
    """cli.main's exit code and captured output; an exception escaping main fails
    the case."""
    try:
        code = main(argv)
    except Exception as exc:  # noqa: BLE001  anything that escapes is a traceback
        pytest.fail(f"traceback: {type(exc).__name__}: {exc}")
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured


@pytest.mark.parametrize(
    "name, label, fault, detail", TRAIN_CASES,
    ids=[f"train-{name}-{label}" for name, label, _, _ in TRAIN_CASES],
)
def test_train_on_a_broken_bundle_file(workspace, tmp_path, capsys, name, label, fault, detail):
    bundle = tmp_path / "bundle"
    shutil.copytree(workspace.bundle, bundle)
    fault(bundle / name)
    out = tmp_path / "run"
    code, captured = _run_cleanly(
        ["train", "--bundle", str(bundle), "--out", str(out), "--epochs", "1",
         "--lstm-hidden", "4"],
        capsys,
    )
    assert code != 0
    assert f"error: {bundle / name}" in captured.err and detail in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, label, fault, detail", SCORING_CASES,
    ids=[f"{command}-{flag[2:]}-{label}" for command, flag, label, _, _ in SCORING_CASES],
)
def test_scoring_on_a_broken_input(workspace, tmp_path, capsys, command, flag, label, fault,
                                   detail):
    out = tmp_path / "report"
    inputs = {
        "--checkpoint": workspace.run / "checkpoint.json",
        "--scaler": workspace.bundle / "scaler.json",
        "--test-file": workspace.test_file,
    }
    if command == "evaluate":
        inputs.update({"--rul-file": workspace.rul_file, "--out": out})
    broken = tmp_path / inputs[flag].name
    shutil.copyfile(inputs[flag], broken)
    fault(broken)
    inputs[flag] = broken
    argv = [command] + [str(a) for pair in inputs.items() for a in pair]
    code, captured = _run_cleanly(argv, capsys)
    assert code != 0
    assert f"error: {broken}" in captured.err and detail in captured.err
    assert captured.out == "" and not out.exists()


def _null_each_entry(path, run):
    """Run `run(key)` once per top-level entry of the JSON file at `path`, with that
    entry set to null and the rest as written; restore the file after each run."""
    written = path.read_text()
    for key in json.loads(written):
        _json(lambda d: d.update({key: None}))(path)
        run(key)
        path.write_text(written)


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_scoring_reads_every_checkpoint_entry(workspace, tmp_path, capsys, command):
    """An entry that nothing reads would load as null: each key that train writes,
    set to null, fails naming the checkpoint."""
    checkpoint = tmp_path / "checkpoint.json"
    shutil.copyfile(workspace.run / "checkpoint.json", checkpoint)
    out = tmp_path / "report"
    argv = [command, "--checkpoint", str(checkpoint), "--test-file", str(workspace.test_file),
            "--scaler", str(workspace.bundle / "scaler.json")]
    if command == "evaluate":
        argv += ["--rul-file", str(workspace.rul_file), "--out", str(out)]

    def run(key):
        code, captured = _run_cleanly(argv, capsys)
        assert code != 0 and f"error: {checkpoint}" in captured.err, key
        assert captured.out == "" and not out.exists(), key

    _null_each_entry(checkpoint, run)


def test_train_reads_every_meta_entry(workspace, tmp_path, capsys):
    """Each key of a written meta.json, set to null, fails `rulkit train` naming a
    file of the bundle (a null scaler_hash is reported against scaler.json)."""
    bundle, out = tmp_path / "bundle", tmp_path / "run"
    shutil.copytree(workspace.bundle, bundle)

    def run(key):
        code, captured = _run_cleanly(
            ["train", "--bundle", str(bundle), "--out", str(out), "--epochs", "1"], capsys)
        assert code != 0 and captured.err.startswith(f"error: {bundle}{os.sep}"), key
        assert not out.exists(), key

    _null_each_entry(bundle / "meta.json", run)
