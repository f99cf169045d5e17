"""Timings of the ingest path on the default corpus, with pytest-benchmark.

Not part of the test suite (pyproject's testpaths is `tests`). Run with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/ --benchmark-only

The corpus is the default `simulate` corpus (seed 2014, 100 engines,
20,631 training rows). `prepare_test_engine` is timed on the longest test
engine, the single-engine scoring path.
"""

import pytest

from rulkit import dataset_io, preprocess, simdata


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


def test_run_pipeline(benchmark, prepared):
    train, _, _ = prepared
    result = benchmark(preprocess.run_pipeline, train)
    assert result.total_windows == 17731


def test_prepare_test_engine(benchmark, prepared):
    _, test, result = prepared
    engine = max(test, key=len)
    window, row = benchmark(
        preprocess.prepare_test_engine, engine, result.scaler, result.selection
    )
    assert window.shape == (preprocess.DEFAULT_WINDOW, result.selection.n_features)
