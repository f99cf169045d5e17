"""The flat gradient check against a frozen per-tensor reference.

`reference_gradient_check_suite` is a frozen copy of `gradient_check_suite`
from before it compared flat vectors: the backward pass returns fresh
tensors, the finite differences come back per tensor, each batch MSE goes
through `np.mean`, and every tensor is compared on its own. The flat suite
must report the same worst error bit for bit, and must notice a corrupted
first coordinate of the first tensor and last coordinate of the last tensor
of each model's layout, where a flat comparison's slice ends would go wrong.
"""

import numpy as np
import pytest

from rulkit import models
from rulkit.numerics import SeededRng
from rulkit.optim import flatten_params, unflatten
from rulkit.train_eval import FD_CHUNK, FD_EPS, gradient_check_suite


def reference_numeric_gradients(params_obj, x, y, eps=FD_EPS):
    y = np.asarray(y, dtype=np.float64)
    tensors = params_obj.to_dict()
    flat, _ = flatten_params(tensors)
    grad = np.empty_like(flat)
    buffer = np.empty((min(FD_CHUNK, 2 * flat.size), flat.size))
    for start in range(0, flat.size, FD_CHUNK // 2):
        coords = np.arange(start, min(start + FD_CHUNK // 2, flat.size))
        copies = 2 * np.arange(coords.size)
        stack = buffer[: 2 * coords.size]
        stack[...] = flat
        stack[copies, coords] += eps
        stack[copies + 1, coords] -= eps
        pred = type(params_obj).from_dict(unflatten(stack, tensors)).forward(x)[0]
        err = pred - y
        losses = np.mean(err * err, axis=-1)
        grad[coords] = (losses[0::2] - losses[1::2]) / (2.0 * eps)
    return unflatten(grad, tensors)


def reference_gradient_check_suite(model_kind, trials, rng):
    worst = 0.0
    gen = rng.generator
    for _ in range(trials):
        feats = int(gen.integers(1, 6))
        batch = int(gen.integers(1, 4))
        params_obj, x, pred, cache = models.MODELS[model_kind].draw_check_case(feats, batch, rng)
        y = rng.uniform(0.0, 5.0, (batch,))
        err = np.asarray(pred, dtype=np.float64) - y
        dpred = (2.0 / batch) * err
        analytic = params_obj.backward(cache, dpred)
        numeric = reference_numeric_gradients(params_obj, x, y)
        for name in analytic:
            ga = analytic[name].reshape(-1)
            gn = numeric[name].reshape(-1)
            rel = np.abs(ga - gn) / np.maximum(1.0, np.abs(ga))
            worst = max(worst, float(rel.max()))
    return worst


@pytest.mark.parametrize("kind", ["mlp", "lstm"])
@pytest.mark.parametrize("seed, trials", [(7, 100), (0, 10), (1, 10), (2, 10), (3, 10), (4, 10)])
def test_flat_suite_matches_per_tensor_reference(kind, seed, trials):
    worst = gradient_check_suite(kind, trials, SeededRng(seed))
    expected = reference_gradient_check_suite(kind, trials, SeededRng(seed))
    assert worst.hex() == expected.hex()


@pytest.mark.parametrize("kind, name, index", [
    ("mlp", "w0", 0), ("mlp", "b2", -1), ("lstm", "w_x", 0), ("lstm", "b_head", -1),
])
def test_suite_catches_a_corrupted_first_or_last_coordinate(monkeypatch, kind, name, index):
    real_backward = getattr(models, f"{kind}_backward")
    order = list(models.MODELS[kind].draw_check_case(2, 1, SeededRng(0))[0].to_dict())
    assert name == order[index]

    def broken(params, cache, dpred, out=None):
        grads = real_backward(params, cache, dpred, out)
        grads[name].flat[index] += 1.0
        return grads

    monkeypatch.setattr(models, f"{kind}_backward", broken)
    assert gradient_check_suite(kind, 3, SeededRng(0)) > 1e-2


def test_suite_reports_a_nan_gradient(monkeypatch):
    real_backward = models.mlp_backward

    def broken(params, cache, dpred, out=None):
        grads = real_backward(params, cache, dpred, out)
        grads["b1"][0] = np.nan
        return grads

    monkeypatch.setattr(models, "mlp_backward", broken)
    assert np.isnan(gradient_check_suite("mlp", 3, SeededRng(0)))


def test_mse_loss_matches_np_mean_bit_for_bit():
    rng = SeededRng(11)
    for n in (1, 2, 7, 8, 9, 127, 128, 129, 1000, 4099):
        pred, target = rng.uniform(-50.0, 150.0, (n,)), rng.uniform(0.0, 125.0, (n,))
        loss, dpred = models.mse_loss(pred, target)
        err = pred - target
        assert loss.hex() == float(np.mean(err * err)).hex()
        assert np.array_equal(dpred, (2.0 / n) * err)
