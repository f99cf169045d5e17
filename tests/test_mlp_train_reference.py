"""The MLP training path against a frozen plain-numpy reference.

`ref_mlp_forward`, `ref_mlp_backward`, `ref_mse_loss`, `ref_adam_step`,
`ref_clip_gradients` and `ref_train` are frozen copies of the MLP's
training path from before it ran on a reused workspace: every product is a
fresh `@` or matmul and every elementwise result a fresh array. `train` must
reproduce them bit for bit, sign bits included: the loss curves (compared
with float.hex), the final parameters, and Adam's moments and step count. The cases cover
several depths and widths, epochs that end on a batch of 1 or 63 rows,
clipping that binds, and an empty validation split.
"""

import math

import numpy as np
import pytest

from rulkit import models, preprocess
from rulkit.numerics import SeededRng
from rulkit.optim import flatten_params, unflatten
from rulkit.train_eval import BLOCK_FLOATS, TrainConfig, train

# ---------------------------------------------------------------------------
# Frozen reference
# ---------------------------------------------------------------------------


def ref_mlp_forward(params, x):
    inputs, pre_acts = [], []
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        inputs.append(h)
        z = h @ w.swapaxes(-1, -2)
        z += b[..., None, :]
        pre_acts.append(z)
        h = np.maximum(z, 0.0)
    inputs.append(h)
    out = h @ params.weights[-1].swapaxes(-1, -2)
    out += params.biases[-1][..., None, :]
    return out[..., 0], (inputs, pre_acts)


def ref_mlp_backward(params, cache, dpred):
    inputs, pre_acts = cache
    grads = {}
    last = len(params.weights) - 1
    dz = dpred[:, None]
    for l in range(last, -1, -1):
        if l < last:
            dz = (dz @ params.weights[l + 1]) * (pre_acts[l] > 0.0)
        grads[f"w{l}"] = np.matmul(dz.T, inputs[l])
        grads[f"b{l}"] = dz.sum(axis=0)
    return grads


def ref_mse_loss(pred, target):
    err = pred - target
    return float(np.add.reduce(err * err) / pred.size), (2.0 / pred.size) * err


def ref_clip_gradients(grads, max_norm):
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


def ref_adam_step(state, params, grad, lr):
    assert np.isfinite(grad).all()
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - 0.9**t
    bc2 = 1.0 - 0.999**t
    m, v = state["m"], state["v"]
    m *= 0.9
    m += (1.0 - 0.9) * grad
    v *= 0.999
    v += (1.0 - 0.999) * (grad * grad)
    params -= lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


def ref_train(config, train_set, val_set, rng):
    """Returns (params, Adam state dict, train curve, validation curve)."""
    n = len(train_set)
    init = models.init_mlp((train_set.rows.shape[1], *config.mlp_hidden, 1), rng)
    flat, views = flatten_params(init.to_dict())
    params = models.MlpParams.from_dict(views)
    grad = np.zeros_like(flat)
    grad_views = unflatten(grad, views)
    state = {"m": np.zeros_like(flat), "v": np.zeros_like(flat), "step": 0}
    block = max(1, BLOCK_FLOATS // max(config.mlp_hidden + (1,)))
    train_mse, val_mse = [], []
    for _ in range(config.epochs):
        order = rng.shuffle(n)
        sq_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            pred, cache = ref_mlp_forward(params, train_set.rows[idx])
            loss, dpred = ref_mse_loss(pred, train_set.targets[idx])
            for name, g in ref_mlp_backward(params, cache, dpred).items():
                grad_views[name][...] = g
            if config.grad_clip is not None:
                ref_clip_gradients(grad_views, config.grad_clip)
            ref_adam_step(state, flat, grad, config.lr)
            sq_sum += loss * len(idx)
        train_mse.append(sq_sum / n)
        if len(val_set):
            preds = np.empty(len(val_set))
            for start in range(0, len(val_set), block):
                preds[start : start + block] = ref_mlp_forward(
                    params, val_set.rows[start : start + block])[0]
            val_mse.append(float(np.mean((preds - val_set.targets) ** 2)))
        else:
            val_mse.append(float("nan"))
    return params, state, train_mse, val_mse


# ---------------------------------------------------------------------------
# train against the reference
# ---------------------------------------------------------------------------


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _rows(n, seed, feats=6):
    """n scaled rows of 4-row engines (one shorter engine takes the rest)."""
    rng = SeededRng(seed)
    ids = np.arange(n) // 4
    return preprocess.SampleSet(rng.uniform(0.0, 1.0, (n, feats)),
                                rng.uniform(0.0, 125.0, (n,)), ids)


@pytest.mark.parametrize("hidden, n_train, n_val, grad_clip", [
    ((64, 32), 64 * 3 + 1, 40, None),  # last batch of 1 row
    ((64, 32), 64 * 2 + 63, 40, 5.0),  # last batch of 63 rows, clipping binds
    ((3,), 64 * 2 + 1, 12, 5.0),
    ((5, 4, 2), 64 * 2 + 63, 0, None),  # no validation split
    ((5, 4, 2), 64 + 1, 12, 5.0),
])
def test_train_matches_frozen_mlp_path_bit_for_bit(hidden, n_train, n_val, grad_clip):
    config = TrainConfig(model="mlp", epochs=3, seed=3, mlp_hidden=hidden, n_val=n_val,
                         grad_clip=grad_clip)
    train_set, val_set = _rows(n_train, 1), _rows(n_val, 2)

    ref_params, ref_state, ref_train_mse, ref_val_mse = ref_train(
        config, train_set, val_set, SeededRng(config.seed))
    params, state, history = train(config, train_set, val_set, SeededRng(config.seed))

    assert list(map(float.hex, history.train_mse)) == list(map(float.hex, ref_train_mse))
    assert list(map(float.hex, history.val_mse)) == list(map(float.hex, ref_val_mse))
    for name, tensor in ref_params.to_dict().items():
        assert np.array_equal(_bits(params.to_dict()[name]), _bits(tensor)), name
    assert np.array_equal(_bits(state.m), _bits(ref_state["m"]))
    assert np.array_equal(_bits(state.v), _bits(ref_state["v"]))
    assert state.step == ref_state["step"] == 3 * -(-n_train // config.batch_size)
    if grad_clip is not None:
        assert sum(history.clip_counts) > 0  # the bound binds, so the clipped path ran

