"""Per-batch timings of the LSTM training step, with pytest-benchmark.

Not part of the test suite (pyproject's testpaths is `tests`). Run with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/ --benchmark-only

Shapes follow the default training recipe on the default corpus: a batch
of 64 windows of 20 cycles by 16 features, hidden size 64. Inputs are
uniform on [0, 1], the range of min-max scaled features. The validation
case runs the per-epoch validation pass of `train_eval.train` over 3,569
windows gathered from 20 engines' rows, the size of the default corpus's
validation split at split seed 0.

The forward, backward and validation cases run in float64, the dtype of
checkpoints and prediction, and in float32, the dtype `train` runs the
LSTM's batches and validation pass in. The single-engine case runs one
float64 window, as `rulkit predict` and each scoring request do. The
gradient-check case runs the stacked float64 forward of
`train_eval.numeric_gradients` on the largest LSTM that
`gradient_check_suite` draws (5 features, hidden size 4): both
perturbations of each of its 165 parameters, 330 models, on 2 windows of
3 cycles. The gradient suite behind `verify_s` runs such a forward in each
LSTM trial; its time is per-call and per-model set-up more than arithmetic.
"""

import numpy as np
import pytest

from rulkit import models, train_eval
from rulkit.numerics import SeededRng
from rulkit.optim import adam_step, flatten_params, init_adam, unflatten
from rulkit.preprocess import SampleSet

BATCH, WINDOW, FEATURES, HIDDEN = 64, 20, 16, 64
VAL_ENGINES, VAL_WINDOWS = 20, 3569


DTYPES = pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])


def _in_dtype(params, dtype):
    return type(params).from_dict({k: t.astype(dtype) for k, t in params.to_dict().items()})


def _lstm_batch(dtype):
    rng = SeededRng(0)
    params = _in_dtype(models.init_lstm(FEATURES, HIDDEN, rng), dtype)
    x = rng.uniform(0.0, 1.0, (BATCH, WINDOW, FEATURES))
    y = rng.uniform(0.0, 125.0, (BATCH,))
    pred, cache = models.lstm_forward(params, x)
    _, dpred = models.mse_loss(pred, y)
    return params, x, cache, dpred


@DTYPES
def test_lstm_forward_batch(benchmark, dtype):
    params, x, _, _ = _lstm_batch(dtype)
    pred, _ = benchmark(models.lstm_forward, params, x)
    assert pred.shape == (BATCH,)


def test_lstm_forward_single_engine(benchmark):
    # One float64 window: the shape of every single-engine prediction request.
    params, x, _, _ = _lstm_batch(np.float64)
    pred, _ = benchmark(models.lstm_forward, params, x[:1])
    assert pred.shape == (1,)


def test_lstm_forward_gradient_check_stack(benchmark):
    rng = SeededRng(2)
    tensors = models.init_lstm(5, 4, rng).to_dict()
    flat, _ = flatten_params(tensors)
    stack = np.repeat(flat[None, :], 2 * flat.size, axis=0)
    params = models.LstmParams.from_dict(unflatten(stack, tensors))
    x = rng.uniform(-1.0, 1.0, (2, 3, 5))
    pred, _ = benchmark(models.lstm_forward, params, x)
    assert pred.shape == (330, 2)


@DTYPES
def test_lstm_backward_batch(benchmark, dtype):
    # As in `train`: the gradients go into views of one flat vector.
    params, _, cache, dpred = _lstm_batch(dtype)
    flat, views = flatten_params(params.to_dict())
    grad_views = unflatten(flat.astype(params.w_x.dtype), views)  # every call overwrites them
    grads = benchmark(models.lstm_backward, params, cache, dpred, grad_views)
    assert grads["w_h"].shape == (4 * HIDDEN, HIDDEN)


def test_adam_step_batch(benchmark):
    params, _, cache, dpred = _lstm_batch(np.float64)  # Adam updates float64 master weights
    flat, views = flatten_params(params.to_dict())
    grad = np.empty_like(flat)
    models.lstm_backward(params, cache, dpred, unflatten(grad, views))
    state = init_adam(views)
    benchmark(adam_step, state, flat, grad)
    assert state.step > 0


@DTYPES
def test_lstm_validation_pass(benchmark, dtype):
    rng = SeededRng(1)
    params = _in_dtype(models.init_lstm(FEATURES, HIDDEN, rng), dtype)
    n_rows = VAL_WINDOWS + VAL_ENGINES * (WINDOW - 1)
    engine_ids = np.arange(n_rows) * VAL_ENGINES // n_rows
    val_set = SampleSet(rng.uniform(0.0, 1.0, (n_rows, FEATURES)),
                        rng.uniform(0.0, 125.0, (n_rows,)), engine_ids, window=WINDOW)
    assert len(val_set) == VAL_WINDOWS
    pred = benchmark(train_eval.predict_in_blocks, params, val_set)
    assert pred.shape == (VAL_WINDOWS,)
