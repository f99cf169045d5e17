"""Timings of the ingest path on the default corpus, with pytest-benchmark.

Not part of the test suite (pyproject's testpaths is `tests`). Run with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/ --benchmark-only

The corpus is the default `simulate` corpus (seed 2014, 100 engines,
20,631 training rows). The training file is parsed twice: as written,
which np.loadtxt reads, and with one value spelled with an underscore,
which sends the whole file to the line-by-line reader.
`prepare_test_engine` is timed on the longest test engine, the
single-engine scoring path (perfbench's `predict_ms_p50` and
`predict_ms_p99`); `final_inputs` on all 100 test engines, the path of
`evaluate` and `rulkit predict` (perfbench's `score_engines_per_s`). Both
run `final_features`, which smooths the scaler's columns of all its engines
in one stacked pass. The bundle round trip times `write_bundle` followed by
`load_bundle`.

Smoothing is also timed on its own: `smooth_trajectories` on the 100
training engines, the smoothing inside perfbench's `ingest_rows_per_s`, and
`smooth_trajectory` on the longest test engine. No stage calls the latter
any more, but perfbench's tracer still times it by name.
"""

import pytest

from rulkit import dataset_io, models, preprocess, simdata, train_eval
from rulkit.numerics import SeededRng


@pytest.fixture(scope="module")
def corpus():
    train_text, test_text, _ = simdata.generate_corpus(simdata.SimConfig())
    return train_text, test_text


@pytest.fixture(scope="module")
def prepared(corpus):
    train = dataset_io.parse_trajectory_file(corpus[0])
    test = dataset_io.parse_trajectory_file(corpus[1])
    return train, test, preprocess.run_pipeline(train)


def test_parse_trajectory_file(benchmark, corpus):
    trajectories = benchmark(dataset_io.parse_trajectory_file, corpus[0])
    assert sum(len(t) for t in trajectories) == 20631


def test_parse_trajectory_file_line_by_line(benchmark, corpus):
    # One "100.0000" spelled "1_00.0000": np.loadtxt rejects the file, so the
    # line-by-line reader reads all of it.
    text = corpus[0].replace(" 100.0000 ", " 1_00.0000 ", 1)
    assert text != corpus[0]
    trajectories = benchmark(dataset_io.parse_trajectory_file, text)
    assert sum(len(t) for t in trajectories) == 20631


def test_parse_test_file(benchmark, corpus):
    trajectories = benchmark(dataset_io.parse_trajectory_file, corpus[1])
    assert len(trajectories) == 100


def test_run_pipeline(benchmark, prepared):
    train, _, _ = prepared
    result = benchmark(preprocess.run_pipeline, train)
    assert result.total_windows == 17731


def test_prepare_test_engine(benchmark, prepared):
    _, test, result = prepared
    engine = max(test, key=len)
    window, row = benchmark(
        preprocess.prepare_test_engine, engine, result.scaler, result.scaler.feature_names
    )
    assert window.shape == (preprocess.DEFAULT_WINDOW, len(result.scaler.feature_names))


def test_smooth_trajectory_single_engine(benchmark, prepared):
    _, test, _ = prepared
    engine = max(test, key=len)
    smoothed = benchmark(preprocess.smooth_trajectory, engine, preprocess.DEFAULT_ALPHA)
    assert smoothed.values.shape == engine.values.shape


def test_smooth_trajectories_train(benchmark, prepared):
    train, _, _ = prepared
    smoothed = benchmark(preprocess.smooth_trajectories, train, preprocess.DEFAULT_ALPHA)
    assert len(smoothed) == len(train) == 100


@pytest.mark.parametrize("kind", train_eval.MODEL_KINDS)
def test_final_inputs(benchmark, prepared, kind):
    _, test, result = prepared
    config = train_eval.TrainConfig(model=kind)
    params = models.MODELS[kind].init(len(result.scaler.feature_names), config, SeededRng(0))
    model = train_eval.TrainedModel.from_config(
        params, config, result.scaler.feature_names, train_eval.scaler_hash(result.scaler)
    )
    inputs = benchmark(train_eval.final_inputs, model, test, result.scaler, config)
    assert inputs.shape[0] == len(test) == 100


def test_bundle_round_trip(benchmark, prepared, tmp_path):
    _, _, result = prepared
    out = tmp_path / "bundle"
    pipeline = {
        "alpha": preprocess.DEFAULT_ALPHA, "trim": preprocess.DEFAULT_TRIM,
        "window": preprocess.DEFAULT_WINDOW, "n_val": preprocess.DEFAULT_N_VAL,
        "seed": 0, "rul_cap": None,
    }

    def round_trip():
        preprocess.write_bundle(out, result, pipeline)
        return preprocess.load_bundle(out)

    bundle = benchmark(round_trip)
    assert len(bundle.train_windows) + len(bundle.val_windows) == 17731
    assert sum(p.stat().st_size for p in out.iterdir()) < 5_000_000
