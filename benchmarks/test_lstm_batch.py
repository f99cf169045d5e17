"""Per-batch timings of the LSTM training step, with pytest-benchmark.

Not part of the test suite (pyproject's testpaths is `tests`). Run with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/ --benchmark-only

Shapes follow the default training recipe on the default corpus: a batch
of 64 windows of 20 cycles by 16 features, hidden size 64. Inputs are
uniform on [0, 1], the range of min-max scaled features.
"""

import numpy as np
import pytest

from rulkit import models
from rulkit.numerics import SeededRng
from rulkit.optim import adam_step, flatten_params, init_adam

BATCH, WINDOW, FEATURES, HIDDEN = 64, 20, 16, 64


@pytest.fixture(scope="module")
def lstm_batch():
    rng = SeededRng(0)
    params = models.init_lstm(FEATURES, HIDDEN, rng)
    x = rng.uniform(0.0, 1.0, (BATCH, WINDOW, FEATURES))
    y = rng.uniform(0.0, 125.0, (BATCH,))
    pred, cache = models.lstm_forward(params, x)
    _, dpred = models.mse_loss(pred, y)
    return params, x, cache, dpred


def test_lstm_forward_batch(benchmark, lstm_batch):
    params, x, _, _ = lstm_batch
    pred, _ = benchmark(models.lstm_forward, params, x)
    assert pred.shape == (BATCH,)


def test_lstm_backward_batch(benchmark, lstm_batch):
    params, _, cache, dpred = lstm_batch
    grads = benchmark(models.lstm_backward, params, cache, dpred)
    assert grads["w_h"].shape == (4 * HIDDEN, HIDDEN)


def test_adam_step_batch(benchmark, lstm_batch):
    params, _, cache, dpred = lstm_batch
    flat, views = flatten_params(params.to_dict())
    grads = models.lstm_backward(params, cache, dpred)
    state = init_adam(views)
    benchmark(adam_step, state, flat, grads)
    assert state.step > 0
