"""The three workloads: their stages, output checks and metrics.

Every workload drives rulkit in-process through its public API, on files
that simdata writes into the run's scratch directory. A run is a closed
loop: one caller, one stage at a time.

Each workload repeats its own cycle of stages for the measured seconds.
The stages are the steps of the user workflow:

    ingest  train file -> run_pipeline -> write_bundle -> load_bundle
    train   train() for the workload's model and epochs, write_checkpoint
    score   load_checkpoint, parse test + RUL files, evaluate, write the
            report and CSV
    verify  gradient_check_suite for both models at 100 trials, seed 7,
            then `rulkit verify` through cli.main

After every stage, once a model has been scored, a burst of single-engine
requests (prepare_test_engine + TrainedModel.predict on a batch of 1) runs
against it. Spreading the requests over the whole run keeps a short stall
of the machine from owning the latency tail.

Every end-to-end metric is reported on every workload, so every workload
runs every stage at least once per cycle; the workloads differ in which
model is trained and in which stage the cycle repeats.

Timings are calibrated against the machine's speed (see speed.py); the
raw wall-clock values are reported beside them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import resource
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from rulkit import cli, dataset_io, preprocess, simdata, train_eval
from rulkit.ioutil import sha256_text
from rulkit.numerics import SeededRng

from speed import REF_NOMINAL_S, SpeedSampler

SPLIT_SEED = 0  # the engine split of `rulkit preprocess` by default
GRAD_SEED = 7  # the gradient suite's seed in acceptance criterion 3
GRAD_TOL = 1e-5
PREDICT_RTOL = 1e-9
MSE_TOL = 1e-9
DEFAULT_CORPUS_WINDOWS = 17731  # acceptance criterion 1, corpus seed 2014
SETUP_REPEATS = 3
# Ingest and score take under a second each; a stage repeats them for a
# steadier median.
INGEST_REPEATS = 2
SCORE_REPEATS = 3


@dataclass(frozen=True)
class Spec:
    """One workload: which model the train stage fits, and its cycle."""

    kind: str
    epochs: int
    ingest_in_setup: bool
    cycle: tuple[str, ...]


WORKLOADS = {
    # LSTM training dominates. The bundle is built during set-up, so the
    # cycle parses and preprocesses only to score and to answer requests.
    "lstm_train": Spec("lstm", 1, True, ("train", "score", "verify", "train", "verify")),
    # The whole MLP chain from text to report and per-request scoring.
    "mlp_pipeline": Spec("mlp", 35, False, ("ingest", "train", "score", "verify")),
    # Thousands of forward passes on tiny shapes: per-call cost dominates.
    "verify": Spec("mlp", 35, False, ("verify", "ingest", "train", "score", "verify")),
}


@dataclass(frozen=True)
class Size:
    """Corpus shape and per-stage work, the same for every workload."""

    sim: simdata.SimConfig
    n_val: int
    grad_trials: int
    cli_verify: tuple[str, ...]
    requests: int  # single-engine requests after each stage
    min_requests: int  # per run, so the p99 has ten samples beyond it
    max_epochs: int | None = None


def full_size(corpus_seed: int) -> Size:
    return Size(simdata.SimConfig(seed=corpus_seed), preprocess.DEFAULT_N_VAL,
                100, ("verify",), 200, 2000)


def smoke_size(corpus_seed: int) -> Size:
    """The small_corpus_paths shape of the test suite: 6 engines, 960 rows."""
    sim = simdata.SimConfig(n_train_engines=6, n_test_engines=4,
                            total_train_rows=960, seed=corpus_seed)
    return Size(sim, 1, 5, ("verify", "--trials", "2"), 10, 40, max_epochs=2)


def expected_windows(train_text: str, trim: int, window: int) -> tuple[int, int]:
    """(rows, sum over engines of L - trim - W + 1), counted from the text."""
    lengths = Counter(line.split(None, 1)[0] for line in train_text.splitlines() if line.strip())
    return sum(lengths.values()), sum(n - trim - window + 1 for n in lengths.values())


class Run:
    """State and measurements of one benchmark process.

    Use it inside its sampler: ``with run.sampler: run.measure(seconds)``.
    """

    def __init__(self, spec: Spec, size: Size, seed: int, data_dir: Path):
        if size.max_epochs is not None:
            spec = replace(spec, epochs=min(spec.epochs, size.max_epochs))
        self.spec = spec
        self.size = size
        self.seed = seed
        self.dir = data_dir
        self.tracer = None
        self.sampler = SpeedSampler()
        # name -> intervals (start, end, sampler seconds inside) of one sample
        self.samples: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        self.counts: dict[str, int] = {}
        self.outputs: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.paths = None
        self.bundle = None
        self.trained = None
        self.scored = None
        self.train_samples = self.test_engines = None
        self._counts = None

    # -- bookkeeping -------------------------------------------------------

    def op(self, problems: list[str]) -> None:
        """Count one operation; it failed if any of its checks did."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])

    def _record(self, name: str, mark) -> None:
        self.samples[name].append(self.sampler.interval(mark))

    def durations(self, name: str, raw: bool = False) -> list[float]:
        """Calibrated (or raw wall-clock) seconds of each sample of name."""
        if raw:
            return [end - start - busy for start, end, busy in self.samples[name]]
        return [self.sampler.calibrated(i) for i in self.samples[name]]

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    # -- stages --------------------------------------------------------------

    def setup(self) -> None:
        with self._span("stage.setup"):
            mark = self.sampler.mark()
            self.paths = simdata.write_corpus(self.dir / "corpus", self.size.sim)
            if self.spec.ingest_in_setup:
                self._ingest()
            self._record("setup_s", mark)

    def stage(self, name: str) -> None:
        with self._span(f"stage.{name}"):
            getattr(self, name)()
        if self.scored is not None:
            with self._span("stage.requests"):
                self._requests(*self.scored)

    def ingest(self) -> None:
        for _ in range(INGEST_REPEATS):
            self._ingest()

    def _ingest(self) -> None:
        pipeline = {
            "alpha": preprocess.DEFAULT_ALPHA, "trim": preprocess.DEFAULT_TRIM,
            "window": preprocess.DEFAULT_WINDOW, "n_val": self.size.n_val,
            "seed": SPLIT_SEED, "rul_cap": None,
        }
        out = self.dir / "bundle"
        self.bundle = None
        mark = self.sampler.mark()
        trajectories = dataset_io.read_trajectories(self.paths["train"])
        result = preprocess.run_pipeline(trajectories, **pipeline)
        preprocess.write_bundle(out, result, pipeline)
        bundle = preprocess.load_bundle(out)
        self._record("ingest_s", mark)
        del trajectories, result

        self.counts["preprocess.bundle_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        windows = len(bundle.train_windows) + len(bundle.val_windows)
        expected = self._corpus_counts()[1]
        problems = []
        if windows != expected:
            problems.append(f"ingest: {windows} windows, expected {expected}")
        if self.size.sim == simdata.SimConfig() and windows != DEFAULT_CORPUS_WINDOWS:
            problems.append(f"ingest: {windows} windows on the default corpus, "
                            f"expected {DEFAULT_CORPUS_WINDOWS}")
        self.op(problems)
        self.bundle = bundle

    def _corpus_counts(self) -> tuple[int, int]:
        """Training-file rows and expected windows; every set-up writes the same corpus."""
        if self._counts is None:
            self._counts = expected_windows(self.paths["train"].read_text(),
                                            preprocess.DEFAULT_TRIM, preprocess.DEFAULT_WINDOW)
        return self._counts

    def train(self) -> None:
        meta = self.bundle.meta
        config = train_eval.TrainConfig(
            model=self.spec.kind, epochs=self.spec.epochs, seed=self.seed,
            **{k: meta["pipeline"][k] for k in ("alpha", "trim", "window", "n_val", "rul_cap")},
        )
        b = self.bundle
        sets = (b.train_windows, b.val_windows) if config.model == "lstm" else (b.train_rows, b.val_rows)
        ckpt = self.dir / "run" / "checkpoint.json"
        mark = self.sampler.mark()
        params, state, history = train_eval.train(config, *sets, SeededRng(config.seed))
        self._record("train_s", mark)
        model = train_eval.TrainedModel(
            kind=config.model, params=params, window=config.window,
            feature_names=tuple(meta["feature_names"]), scaler_hash=meta["scaler_hash"],
            config_hash=config.config_hash(), seed=config.seed,
        )
        train_eval.write_checkpoint(ckpt, model, state, config)
        self._record("train_stage_s", mark)

        self.train_samples = len(sets[0]) * config.epochs
        self.outputs.append(("val_rmse", math.sqrt(history.val_mse[-1])))
        self.counts["train_eval.checkpoint_bytes"] = ckpt.stat().st_size
        losses = history.train_mse + history.val_mse
        self.op([] if all(math.isfinite(v) for v in losses) else
                [f"train: non-finite loss in {losses}"])
        self.trained = (params, ckpt)

    def score(self) -> None:
        for _ in range(SCORE_REPEATS):
            self.scored = self._score()

    def _score(self):
        params, ckpt = self.trained
        report_dir = self.dir / "report"
        mark = self.sampler.mark()
        model, _, config = train_eval.load_checkpoint(ckpt)
        test = dataset_io.read_trajectories(self.paths["test"])
        ruls = dataset_io.read_rul_labels(self.paths["rul"])
        scaler = preprocess.ScalerParams.from_dict(
            json.loads((self.dir / "bundle" / "scaler.json").read_text(encoding="utf-8")))
        report = train_eval.evaluate(
            model, test, ruls, scaler, config, sha256_text(ckpt.read_text(encoding="utf-8")))
        train_eval.write_eval_report(report_dir / "eval_report.json", report)
        train_eval.write_predictions_csv(report_dir / "predictions.csv", report)
        self._record("score_s", mark)

        self.test_engines = len(test)
        self.outputs.append(("test_rmse", math.sqrt(report.mse)))
        self.op(self._score_problems(params, model, report_dir, len(test)))
        return model, config, scaler, test, report

    def _score_problems(self, params, model, report_dir, n_test) -> list[str]:
        problems = []
        written, loaded = params.to_dict(), model.params.to_dict()
        if written.keys() != loaded.keys() or not all(
                np.array_equal(written[k], loaded[k]) for k in written):
            problems.append("score: load_checkpoint does not reproduce the written params")
        stored = json.loads((report_dir / "eval_report.json").read_text())["mse"]
        with open(report_dir / "predictions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n_test:
            problems.append(f"score: {len(rows)} CSV rows for {n_test} test engines")
        recomputed = float(np.mean([
            (float(r["predicted_rul"]) - float(r["true_rul"])) ** 2 for r in rows]))
        if not abs(recomputed - stored) < MSE_TOL:
            problems.append(f"score: report mse {stored!r} vs CSV {recomputed!r}")
        return problems

    def _requests(self, model, config, scaler, test, report) -> None:
        selection = preprocess.selection_from_feature_names(scaler.feature_names)
        expected = [r.predicted_rul for r in report.rows]
        order = SeededRng(self.seed).shuffle(len(test))
        for k in range(self.size.requests):
            i = int(order[k % len(test)])
            mark = self.sampler.mark()
            window, row = preprocess.prepare_test_engine(
                test[i], scaler, selection,
                alpha=config.alpha, trim=config.trim, window=config.window)
            pred = model.predict((window if model.kind == "lstm" else row)[None])
            self._record("predict_s", mark)
            ok = math.isclose(float(pred[0]), expected[i], rel_tol=PREDICT_RTOL, abs_tol=0.0)
            self.op([] if ok else [f"request: engine {test[i].engine_id} predicted "
                                   f"{float(pred[0])!r}, evaluate {expected[i]!r}"])

    def verify(self) -> None:
        mark = self.sampler.mark()
        worst = {kind: train_eval.gradient_check_suite(
                     kind, self.size.grad_trials, SeededRng(GRAD_SEED))
                 for kind in train_eval.MODEL_KINDS}
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(list(self.size.cli_verify))
        self._record("verify_s", mark)
        problems = [f"verify: {kind} worst relative gradient error {w:.3e}"
                    for kind, w in worst.items() if not w < GRAD_TOL]
        if code != 0:
            problems.append(f"verify: cli.main returned {code}: {printed.getvalue()!r}")
        self.op(problems)

    # -- passes --------------------------------------------------------------

    def cycle(self) -> None:
        for name in self.spec.cycle:
            self.stage(name)

    def one_pass(self) -> list[tuple[str, float]]:
        """Set up once and run one cycle, timed as a "pass_s" sample.

        Returns the model outputs (val and test RMSE) of the pass.
        """
        mark, first = self.sampler.mark(), len(self.outputs)
        self.setup()
        self.cycle()
        self._record("pass_s", mark)
        return self.outputs[first:]

    def measure(self, seconds: float) -> None:
        """Set up several times, then repeat the cycle for `seconds`.

        Stops after the first stage that ends past `seconds`, once every
        stage has run and enough requests were made for the p99.
        """
        for _ in range(SETUP_REPEATS):
            self.setup()
        start = self.sampler.mark()[0]
        for done, name in enumerate(itertools.cycle(self.spec.cycle), start=1):
            self.stage(name)
            if (done >= len(self.spec.cycle)
                    and self.sampler.mark()[0] - start >= seconds
                    and len(self.samples["predict_s"]) >= self.size.min_requests):
                break

    def end_to_end(self, raw: bool = False) -> dict[str, tuple[float, str, int]]:
        """Metric -> (value, unit, number of samples behind it).

        Timings are calibrated unless raw is set; rates are work divided by
        the median time of one sample.
        """
        times = {k: self.durations(k, raw) for k in self.samples}
        med = {k: statistics.median(v) for k, v in times.items()}
        n = {k: len(v) for k, v in times.items()}
        lat_ms = np.asarray(times["predict_s"]) * 1000.0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outputs = defaultdict(list)
        for name, value in self.outputs:
            outputs[name].append(value)
        return {
            "setup_s": (med["setup_s"], "s", n["setup_s"]),
            "train_samples_per_s": (self.train_samples / med["train_s"], "1/s", n["train_s"]),
            "val_rmse": (statistics.median(outputs["val_rmse"]), "cycles", len(outputs["val_rmse"])),
            "pipeline_s": (med["ingest_s"] + med["train_stage_s"] + med["score_s"], "s",
                           min(n["ingest_s"], n["train_stage_s"], n["score_s"])),
            "ingest_rows_per_s": (self._corpus_counts()[0] / med["ingest_s"], "1/s", n["ingest_s"]),
            "score_engines_per_s": (self.test_engines / med["score_s"], "1/s", n["score_s"]),
            "predict_ms_p50": (float(np.percentile(lat_ms, 50)), "ms", len(lat_ms)),
            "predict_ms_p99": (float(np.percentile(lat_ms, 99)), "ms", len(lat_ms)),
            "test_rmse": (statistics.median(outputs["test_rmse"]), "cycles", len(outputs["test_rmse"])),
            "verify_s": (med["verify_s"], "s", n["verify_s"]),
            "peak_rss_mb": (rss_mb, "MB", 1),
        }

    def median_slowness(self) -> float:
        return statistics.median(self.sampler.readings) / REF_NOMINAL_S
