"""Per-batch timings of the MLP training step, with pytest-benchmark.

Not part of the test suite (pyproject's testpaths is `tests`). Run with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/ --benchmark-only

Shapes follow the default MLP recipe on the default corpus: a batch of 64
rows of 16 features through hidden layers (64, 32), 3,201 parameters in six
tensors. As in `train`, the tensors are views of one flat vector, which
`adam_step` updates. Inputs are uniform on [0, 1], the range of min-max
scaled features.
"""

import numpy as np
import pytest

from rulkit import models
from rulkit.numerics import SeededRng
from rulkit.optim import adam_step, flatten_params, init_adam

BATCH, FEATURES, HIDDEN = 64, 16, (64, 32)


@pytest.fixture
def mlp_batch():
    rng = SeededRng(0)
    flat, views = flatten_params(models.init_mlp((FEATURES, *HIDDEN, 1), rng).to_dict())
    x = rng.uniform(0.0, 1.0, (BATCH, FEATURES))
    y = rng.uniform(0.0, 125.0, (BATCH,))
    return flat, models.MlpParams.from_dict(views), init_adam(views), x, y


def _train_step(flat, params, state, x, y):
    pred, cache = models.mlp_forward(params, x)
    loss, dpred = models.mse_loss(pred, y)
    adam_step(state, flat, models.mlp_backward(params, cache, dpred))
    return loss


def test_mlp_train_step(benchmark, mlp_batch):
    flat, params, state, x, y = mlp_batch
    assert flat.size == 3201
    loss = benchmark(_train_step, flat, params, state, x, y)
    assert np.isfinite(loss) and state.step > 0


def test_mlp_adam_step(benchmark, mlp_batch):
    flat, params, state, x, y = mlp_batch
    pred, cache = models.mlp_forward(params, x)
    _, dpred = models.mse_loss(pred, y)
    grads = models.mlp_backward(params, cache, dpred)
    benchmark(adam_step, state, flat, grads)
    assert state.step > 0
