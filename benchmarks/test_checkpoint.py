"""Timings of checkpoint I/O, with pytest-benchmark.

Not part of the test suite (pyproject's testpaths is `tests`). Run with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/ --benchmark-only

The model is the default recipe's LSTM: 16 features, hidden size 64,
20,801 parameters, after one Adam step. `write_checkpoint` encodes every
parameter as JSON text and writes it atomically; `load_checkpoint` reads
it back and checks it. `rulkit train` pays the first once per run;
`rulkit evaluate`, `rulkit predict` and each perfbench scoring pass pay
the second.
"""

import numpy as np
import pytest

from rulkit import models, preprocess, train_eval
from rulkit.numerics import SeededRng
from rulkit.optim import adam_step, flatten_params, init_adam

FEATURES, HIDDEN = 16, 64


@pytest.fixture
def lstm_checkpoint(tmp_path):
    rng = SeededRng(0)
    flat, views = flatten_params(models.init_lstm(FEATURES, HIDDEN, rng).to_dict())
    state = init_adam(views)
    adam_step(state, flat, rng.uniform(-1.0, 1.0, flat.size))
    config = train_eval.TrainConfig()
    model = train_eval.TrainedModel(
        kind="lstm", params=models.LstmParams.from_dict(views), window=config.window,
        feature_names=preprocess.FEATURE_NAMES[:FEATURES], scaler_hash="0" * 64,
        config_hash=config.config_hash(), seed=config.seed,
    )
    return tmp_path / "checkpoint.json", model, state, config


def test_write_checkpoint_lstm(benchmark, lstm_checkpoint):
    path, model, state, config = lstm_checkpoint
    assert sum(t.size for t in model.params.to_dict().values()) == 20801
    benchmark(train_eval.write_checkpoint, path, model, state, config)
    assert path.stat().st_size > 0


def test_load_checkpoint_lstm(benchmark, lstm_checkpoint):
    path, model, state, config = lstm_checkpoint
    train_eval.write_checkpoint(path, model, state, config)
    loaded, optimizer, loaded_config = benchmark(train_eval.load_checkpoint, path)
    assert loaded_config == config and optimizer["step"] == state.step == 1
    written = model.params.to_dict()
    assert all(np.array_equal(t, written[k]) for k, t in loaded.params.to_dict().items())
