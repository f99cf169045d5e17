"""Command-line interface.

Subcommands cover the full workflow: `simulate` writes a synthetic
corpus, `preprocess` turns raw text files into a bundle of model-ready
arrays, `train` fits a model from a bundle, `evaluate` scores a
checkpoint on held-out engines, `predict` prints per-engine predictions,
and `verify` runs the numeric self-checks.

Options can come from a JSON config file (--config); explicit flags win
over file values. Unknown config keys are rejected rather than ignored.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import dataset_io, preprocess, simdata, train_eval
from .errors import ConfigError, ValidationError
from .ioutil import read_json, sha256_text
from .numerics import SeededRng

logger = logging.getLogger(__name__)

_CONFIG_KEYS = {f.name for f in fields(train_eval.TrainConfig)}


def _read_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    data = read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown config keys {unknown}; valid keys: {sorted(_CONFIG_KEYS)}"
        )
    return data


def _merge_config(args: argparse.Namespace, flag_names: tuple[str, ...]) -> dict:
    """Config-file values overridden by any explicitly passed flags."""
    merged = _read_config_file(getattr(args, "config", None))
    for name in flag_names:
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    if isinstance(merged.get("mlp_hidden"), list):  # JSON's form; TrainConfig checks it
        merged["mlp_hidden"] = tuple(merged["mlp_hidden"])
    return merged


def _parse_hidden_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    config = simdata.SimConfig(
        n_train_engines=args.train_engines,
        n_test_engines=args.test_engines,
        total_train_rows=args.total_train_rows,
        seed=args.seed,
    )
    paths = simdata.write_corpus(args.out, config)
    for name in ("train", "test", "rul"):
        print(f"wrote {paths[name]}")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    keys = preprocess.PIPELINE_KEYS + ("seed",)
    merged = _merge_config(args, keys)
    pipeline = {key: merged[key] for key in keys if key in merged}  # unset: run_pipeline default
    trajectories = dataset_io.read_trajectories(args.train_file)
    result = preprocess.run_pipeline(trajectories, **pipeline)
    preprocess.write_bundle(args.out, result)
    print(f"engines: {len(result.train_ids) + len(result.val_ids)}")
    print(f"features: {len(result.scaler.feature_names)}")
    print(f"training samples: {result.total_windows}")
    print(f"wrote bundle to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    bundle = preprocess.load_bundle(args.bundle)
    merged = _merge_config(
        args,
        ("model", "epochs", "batch_size", "lr", "seed",
         "grad_clip", "lstm_hidden", "mlp_hidden"),
    )
    pipeline = {key: bundle.pipeline[key] for key in preprocess.PIPELINE_KEYS}
    for key, bundle_value in pipeline.items():
        if key in merged and merged[key] != bundle_value:
            raise ConfigError(
                f"config {key}={merged[key]} conflicts with the bundle's "
                f"{key}={bundle_value}; re-run preprocess to change it"
            )
    config = train_eval.TrainConfig(**{**merged, **pipeline})

    params, state, history = train_eval.train(
        config, bundle.train_rows, bundle.val_rows, SeededRng(config.seed)
    )

    model = train_eval.TrainedModel.from_config(
        params, config, bundle.scaler.feature_names, preprocess.scaler_hash(bundle.scaler)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_eval.write_history_csv(out / "history.csv", history)
    train_eval.write_checkpoint(out / "checkpoint.json", model, state, config)
    print(f"final train mse: {history.train_mse[-1]:.4f}")
    print(f"final val mse: {history.val_mse[-1]:.4f}")
    print(f"wrote {out / 'history.csv'}")
    print(f"wrote {out / 'checkpoint.json'}")
    return 0


def _load_eval_inputs(args: argparse.Namespace):
    """The checkpoint's model and config, scaler and test engines, and the
    checkpoint's text, which `evaluate` hashes without reading it again."""
    model, _, config, checkpoint_text = train_eval.read_checkpoint(args.checkpoint)
    scaler = preprocess.load_scaler(args.scaler)
    try:
        train_eval.check_scaler(model, scaler)
    except ValidationError as exc:
        raise ValidationError(f"{args.checkpoint} does not match {args.scaler}: {exc}") from None
    test_trajectories = dataset_io.read_trajectories(args.test_file)
    return model, config, scaler, test_trajectories, checkpoint_text


def cmd_evaluate(args: argparse.Namespace) -> int:
    model, config, scaler, test_trajectories, checkpoint_text = _load_eval_inputs(args)
    ruls = dataset_io.read_rul_labels(args.rul_file)
    if len(ruls) != len(test_trajectories):
        raise ValidationError(
            f"{args.rul_file}: label count {len(ruls)} does not match test engine "
            f"count {len(test_trajectories)} in {args.test_file}"
        )
    report = train_eval.evaluate(
        model, test_trajectories, ruls, scaler, config, sha256_text(checkpoint_text)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_eval.write_eval_report(out / "eval_report.json", report)
    train_eval.write_predictions_csv(out / "predictions.csv", report)
    print(f"engines evaluated: {len(report.rows)}")
    print(f"test mse: {report.mse:.4f}")
    print(f"wrote {out / 'eval_report.json'}")
    print(f"wrote {out / 'predictions.csv'}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """Print one prediction per test engine, in float64 as `evaluate` predicts."""
    model, config, scaler, test_trajectories, _ = _load_eval_inputs(args)
    if args.engine is not None:
        test_trajectories = [
            t for t in test_trajectories if t.engine_id == args.engine
        ]
        if not test_trajectories:
            raise ConfigError(f"engine {args.engine} not present in {args.test_file}")
    preds = model.predict(train_eval.final_inputs(model, test_trajectories, scaler, config))
    print("engine_id,predicted_rul")
    for traj, pred in zip(test_trajectories, preds):
        print(f"{traj.engine_id},{pred:.4f}")
    return 0


def _check(name: str, ok: bool, detail: str = "") -> bool:
    status = "ok" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")
    return ok


def cmd_verify(args: argparse.Namespace) -> int:
    all_ok = True

    for kind in train_eval.MODEL_KINDS:
        worst = train_eval.gradient_check_suite(kind, args.trials, SeededRng(args.seed))
        all_ok &= _check(
            f"{kind} analytic gradients match finite differences",
            worst < 1e-5,
            f"max rel err {worst:.3e} over {args.trials} trials",
        )

    # Only the train text is read. It is drawn before the test engines, so
    # it does not depend on their number, and one test engine is the fewest.
    corpus = simdata.SimConfig(
        n_train_engines=5, n_test_engines=1, total_train_rows=900, seed=args.seed
    )
    train_text, _, _ = simdata.generate_corpus(corpus)
    trajectories = dataset_io.parse_trajectory_file(train_text)
    result = preprocess.run_pipeline(trajectories, n_val=1, seed=args.seed)

    gen = SeededRng(args.seed).generator
    series = gen.uniform(-5.0, 5.0, size=(40, 3))
    identity = preprocess.ewma_smooth(series, alpha=1.0)
    constant = preprocess.ewma_smooth(np.full((25, 2), 3.25), alpha=0.37)
    all_ok &= _check(
        "smoothing is identity at alpha=1 and keeps the constant 3.25 exact at alpha=0.37",
        np.array_equal(identity, series) and bool(np.all(constant == 3.25)),
    )

    failures = preprocess.invariant_failures(trajectories, result)
    for name in preprocess.INVARIANTS:
        all_ok &= _check(name, name not in failures)

    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulkit",
        description="Remaining-useful-life toolkit for run-to-failure sensor data.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic turbofan-style corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=simdata.DEFAULT_SEED)
    p.add_argument("--train-engines", type=int, default=simdata.DEFAULT_TRAIN_ENGINES)
    p.add_argument("--test-engines", type=int, default=simdata.DEFAULT_TEST_ENGINES)
    p.add_argument(
        "--total-train-rows", type=int, default=simdata.DEFAULT_TOTAL_TRAIN_ROWS
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("preprocess", help="build model-ready arrays from a train file")
    p.add_argument("--train-file", required=True)
    p.add_argument("--out", required=True, help="bundle output directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--alpha", type=float)
    p.add_argument("--trim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--n-val", dest="n_val", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--rul-cap", dest="rul_cap", type=int)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model from a preprocessing bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--model", choices=train_eval.MODEL_KINDS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--grad-clip", dest="grad_clip", type=float)
    p.add_argument("--lstm-hidden", dest="lstm_hidden", type=int)
    p.add_argument("--mlp-hidden", dest="mlp_hidden", type=_parse_hidden_list)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on labeled test engines")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test-file", required=True)
    p.add_argument("--rul-file", required=True)
    p.add_argument("--scaler", required=True, help="scaler.json from the bundle")
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="print one prediction per test engine")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test-file", required=True)
    p.add_argument("--scaler", required=True)
    p.add_argument("--engine", type=int, help="restrict to one engine id")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="run gradient and preprocessing self-checks")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
