"""Stacked finite differences against a frozen per-coordinate reference.

`reference_numeric_gradients` is a frozen copy of `numeric_gradients` from
before it evaluated perturbations as a stack: it moves one coordinate of the
caller's tensors in place, runs a full forward pass for each of +eps and
-eps, and restores the coordinate. The stacked form must reproduce it bit
for bit, sign bits included, and must never write the caller's tensors.
"""

import numpy as np
import pytest

from rulkit import models
from rulkit.errors import ShapeError
from rulkit.numerics import SeededRng
from rulkit.train_eval import FD_CHUNK, FD_EPS, numeric_gradients


def reference_numeric_gradients(params_obj, x, y, eps=FD_EPS):
    def loss():
        return models.mse_loss(params_obj.forward(x)[0], y)[0]

    out = {}
    for name, tensor in params_obj.to_dict().items():
        grad = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = loss()
            flat[j] = orig - eps
            down = loss()
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * eps)
        out[name] = grad
    return out


def assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def assert_matches_reference(params_obj, x, y):
    before = {name: t.copy() for name, t in params_obj.to_dict().items()}
    grads = numeric_gradients(params_obj, x, y)
    for name, tensor in params_obj.to_dict().items():
        assert_bits_equal(tensor, before[name])
    expected = reference_numeric_gradients(params_obj, x, y)
    assert list(grads) == list(expected)
    for name in expected:
        assert_bits_equal(grads[name], expected[name])


def _random_instance(kind, rng):
    """A small model with non-zero biases, an input batch and targets."""
    gen = rng.generator
    feats, batch = int(gen.integers(1, 7)), int(gen.integers(1, 13))
    if kind == "lstm":
        params = models.init_lstm(feats, int(gen.integers(1, 6)), rng)
        params.b += rng.uniform(-1.0, 1.0, params.b.shape)
        params.b_head += rng.uniform(-1.0, 1.0, (1,))
        x = rng.uniform(-2.0, 2.0, (batch, int(gen.integers(1, 7)), feats))
    else:
        hidden = tuple(int(h) for h in gen.integers(1, 8, int(gen.integers(0, 3))))
        params = models.init_mlp((feats, *hidden, 1), rng)
        for b in params.biases:
            b += rng.uniform(-0.5, 0.5, b.shape)
        x = rng.uniform(-2.0, 2.0, (batch, feats))
    return params, x, rng.uniform(0.0, 5.0, (batch,))


@pytest.mark.parametrize("kind", ["mlp", "lstm"])
def test_stacked_differences_match_per_coordinate_loop(kind):
    rng = SeededRng(2024 if kind == "mlp" else 2025)
    for _ in range(110):
        assert_matches_reference(*_random_instance(kind, rng))


def test_all_sizes_one():
    rng = SeededRng(3)
    lstm = models.init_lstm(1, 1, rng)
    assert_matches_reference(lstm, rng.uniform(-1.0, 1.0, (1, 1, 1)), np.array([0.5]))
    mlp = models.init_mlp((1, 1), rng)
    assert_matches_reference(mlp, rng.uniform(-1.0, 1.0, (1, 1)), np.array([0.5]))


def test_model_larger_than_a_chunk():
    rng = SeededRng(4)
    params = models.init_lstm(5, 8, rng)
    n_params = sum(t.size for t in params.to_dict().values())
    assert FD_CHUNK < 2 * n_params < 2 * FD_CHUNK  # two stacked passes, the second partial
    assert_matches_reference(params, rng.uniform(-1.0, 1.0, (3, 4, 5)), rng.uniform(0, 5, (3,)))


def test_target_shape_must_match_batch():
    params, x, y = _random_instance("mlp", SeededRng(5))
    with pytest.raises(ShapeError, match="target shape"):
        numeric_gradients(params, x, np.append(y, 1.0))

