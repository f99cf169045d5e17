"""The fused LSTM step against frozen plain-numpy references.

`ref_lstm_forward` / `ref_lstm_backward` are the straightforward form of
the fused code's operations: separate per-step arrays with the batch on
the last axis, one product per step of [W_x | b | W_h] with the column
stack [x_t; 1; h_{t-1}] (the bias is the weight of the row of ones), and
each gate block activated and differentiated on its own. Each sigmoid gate
is 0.5 * tanh(z / 2) + 0.5, with z / 2 taken from i, f and o weight and
bias rows halved in advance; each gate's slope is (k - a) * a + s, that is
a(1 - a) for a sigmoid gate and 1 - g^2 for g. The fused code must keep
every floating-point operation and its order, so results are compared
with exact equality (including the sign of zeros), never a tolerance.

`exp_lstm_forward` / `exp_lstm_backward` are the textbook form with the
exp-based sigmoid. The fused code must match them in float64 to 1e-12 of
each array's largest absolute value, which pins the tanh identity's algebra.
"""

import numpy as np
import pytest

from rulkit import models
from rulkit.numerics import SeededRng, sigmoid

# ---------------------------------------------------------------------------
# Frozen references
# ---------------------------------------------------------------------------


def ref_sigmoid(m):
    m = np.asarray(m, dtype=np.float64)
    out = np.empty_like(m)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    em = np.exp(m[~pos])
    out[~pos] = em / (1.0 + em)
    return out


def ref_lstm_forward(params, x):
    """Returns (pred, (u, i, f, g, o, c, tanh_c, h)), arrays time-major and batch-last;
    u[t] is step t's input column stack [x_t; 1; h_{t-1}]."""
    bsz, steps, _ = x.shape
    hsz = params.hidden_size
    # Halves the i, f and o rows; 0.5 * tanh(z / 2) + 0.5 is sigmoid(z).
    scale = np.concatenate([np.full(hsz, v) for v in (0.5, 0.5, 1.0, 0.5)])
    # The bias is the weight of a row of ones between x_t and h_{t-1}.
    w_all = np.concatenate([params.w_x, params.b[:, None], params.w_h], axis=1) * scale[:, None]
    saved = [np.empty((steps, hsz, bsz)) for _ in range(7)]
    inputs = []
    h = np.zeros((hsz, bsz))
    c = np.zeros((hsz, bsz))
    for t in range(steps):
        # C order, as the model's buffer: BLAS may sum a Fortran-ordered operand differently.
        u = np.ascontiguousarray(np.concatenate([x[:, t, :].T, np.ones((1, bsz)), h]))
        inputs.append(u)
        z = w_all @ u
        i = np.tanh(z[:hsz]) * 0.5 + 0.5
        f = np.tanh(z[hsz : 2 * hsz]) * 0.5 + 0.5
        g = np.tanh(z[2 * hsz : 3 * hsz]) * 1.0 + 0.0  # + 0.0 turns a -0 into +0
        o = np.tanh(z[3 * hsz :]) * 0.5 + 0.5
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        for arr, val in zip(saved, (i, f, g, o, c, tanh_c, h)):
            arr[t] = val
    pred = (params.w_head[None, :] @ h)[0] + params.b_head[0]
    return pred, (np.stack(inputs), *saved)


def ref_lstm_backward(params, cache, dpred):
    inputs, gi, gf, gg, go, cells, tanh_cells, hiddens = cache
    steps, hsz, bsz = hiddens.shape
    feats = inputs.shape[1] - 1 - hsz
    grad_w_head = hiddens[-1] @ dpred
    grad_b_head = np.array([dpred.sum()])
    dz_all = np.empty((steps, 4 * hsz, bsz))
    dh = params.w_head[:, None] * dpred[None, :]
    dc = np.zeros((hsz, bsz))
    for t in range(steps - 1, -1, -1):
        i, f, g, o = gi[t], gf[t], gg[t], go[t]
        tanh_c = tanh_cells[t]
        c_prev = cells[t - 1] if t > 0 else np.zeros((hsz, bsz))
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = dz_all[t]
        dz[:hsz] = di * ((1.0 - i) * i)
        dz[hsz : 2 * hsz] = df * ((1.0 - f) * f)
        dz[2 * hsz : 3 * hsz] = dg * (1.0 - g * g)
        dz[3 * hsz :] = do * ((1.0 - o) * o)
        dh = params.w_h.T @ dz
        dc = dc * f
    # [W_x | b | W_h]'s gradient: one product over every step and window,
    # on operands laid out as np.tensordot lays them out.
    dz_flat = dz_all.transpose(1, 0, 2).reshape(4 * hsz, steps * bsz)
    u_flat = inputs.transpose(0, 2, 1).reshape(steps * bsz, -1)
    grad = np.dot(dz_flat, u_flat)
    return {
        "w_x": grad[:, :feats],
        "w_h": grad[:, feats + 1 :],
        "b": grad[:, feats],
        "w_head": grad_w_head,
        "b_head": grad_b_head,
    }


def exp_lstm_forward(params, x):
    """ref_lstm_forward's results from the exp-based sigmoid, unscaled weights."""
    bsz, steps, feats = x.shape
    hsz = params.hidden_size
    xt = np.ascontiguousarray(x.transpose(1, 0, 2))
    zx = (xt.reshape(steps * bsz, feats) @ params.w_x.T).reshape(steps, bsz, 4 * hsz)
    saved = [np.empty((steps, bsz, hsz)) for _ in range(7)]
    h = np.zeros((bsz, hsz))
    c = np.zeros((bsz, hsz))
    for t in range(steps):
        z = zx[t] + h @ params.w_h.T + params.b
        i = ref_sigmoid(z[:, :hsz])
        f = ref_sigmoid(z[:, hsz : 2 * hsz])
        g = np.tanh(z[:, 2 * hsz : 3 * hsz])
        o = ref_sigmoid(z[:, 3 * hsz :])
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        for arr, val in zip(saved, (i, f, g, o, c, tanh_c, h)):
            arr[t] = val
    pred = h @ params.w_head + params.b_head[0]
    return pred, (xt, *saved)


def exp_lstm_backward(params, cache, dpred):
    xt, gi, gf, gg, go, cells, tanh_cells, hiddens = cache
    steps, bsz, hsz = hiddens.shape
    grad_w_head = hiddens[-1].T @ dpred
    grad_b_head = np.array([dpred.sum()])
    dz_all = np.empty((steps, bsz, 4 * hsz))
    dh = dpred[:, None] * params.w_head[None, :]
    dc = np.zeros((bsz, hsz))
    for t in range(steps - 1, -1, -1):
        i, f, g, o = gi[t], gf[t], gg[t], go[t]
        tanh_c = tanh_cells[t]
        c_prev = cells[t - 1] if t > 0 else np.zeros((bsz, hsz))
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = dz_all[t]
        dz[:, :hsz] = di * i * (1.0 - i)
        dz[:, hsz : 2 * hsz] = df * f * (1.0 - f)
        dz[:, 2 * hsz : 3 * hsz] = dg * (1.0 - g * g)
        dz[:, 3 * hsz :] = do * o * (1.0 - o)
        dh = dz @ params.w_h
        dc = dc * f
    h_prev = np.concatenate([np.zeros((1, bsz, hsz)), hiddens[:-1]], axis=0)
    dz_flat = dz_all.reshape(steps * bsz, 4 * hsz)
    return {
        "w_x": dz_flat.T @ xt.reshape(steps * bsz, -1),
        "w_h": dz_flat.T @ h_prev.reshape(steps * bsz, hsz),
        "b": dz_flat.sum(axis=0),
        "w_head": grad_w_head,
        "b_head": grad_b_head,
    }


def assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------


def test_sigmoid_special_values_bit_identical():
    tiny = 5e-324  # smallest subnormal
    special = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
         745.0, -745.0, 746.0, -746.0, tiny, -tiny, 1000.0, -1000.0]
    )
    out = sigmoid(special)
    assert_bits_equal(out, ref_sigmoid(special))
    with np.errstate(over="raise", invalid="raise"):
        sigmoid(special[~np.isnan(special)])
    assert out[0] == out[1] == 0.5
    assert np.isnan(out[4]) and np.isnan(out[5])
    assert out[-2] == 1.0 and out[-1] == 0.0


def test_sigmoid_dense_range_bit_identical():
    z = np.concatenate([
        np.linspace(-40.0, 40.0, 4000),
        SeededRng(4).generator.normal(0.0, 5.0, 4000),
    ]).reshape(8, -1)
    assert_bits_equal(sigmoid(z), ref_sigmoid(z))


def test_sigmoid_in_place_and_zero_dim():
    z = np.linspace(-5.0, 5.0, 21).reshape(3, 7)
    expected = ref_sigmoid(z)
    assert sigmoid(z, out=z) is z
    assert_bits_equal(z, expected)
    assert sigmoid(np.float64(-0.25)) == ref_sigmoid(np.array([-0.25]))[0]


# ---------------------------------------------------------------------------
# lstm_forward / lstm_backward
# ---------------------------------------------------------------------------


def _reference_case(batch, steps, hidden):
    """(params, x, dpred) of a float64 model with gates pushed toward saturation."""
    rng = SeededRng(1000 * batch + 10 * steps + hidden)
    params = models.init_lstm(5, hidden, rng)
    # Wider weights push gates toward saturation, where rounding differs most.
    params.w_x *= 4.0
    params.w_h *= 4.0
    params.b += rng.uniform(-1.0, 1.0, params.b.shape)
    x = rng.uniform(-1.0, 1.0, (batch, steps, 5))
    x[0, 0] = 0.0
    dpred = rng.uniform(-1.0, 1.0, (batch,))
    return params, x, dpred


@pytest.mark.parametrize("hidden", [1, 4, 64])
@pytest.mark.parametrize("steps", [1, 2, 20])
@pytest.mark.parametrize("batch", [1, 3, 64, 512])
def test_lstm_matches_frozen_reference(batch, steps, hidden):
    params, x, dpred = _reference_case(batch, steps, hidden)

    pred, cache = models.lstm_forward(params, x)
    ref_pred, ref_cache = ref_lstm_forward(params, x)
    assert_bits_equal(pred, ref_pred)
    ref_u, ref_i, ref_f, ref_g, ref_o, ref_c, _, ref_h = ref_cache
    assert_bits_equal(cache.inputs[:-1], ref_u)
    for block, expected in zip(np.split(cache.gates, 4, axis=1), (ref_i, ref_f, ref_g, ref_o)):
        assert_bits_equal(block, expected)
    assert_bits_equal(cache.cells[1:], ref_c)
    assert_bits_equal(cache.hiddens[1:], ref_h)

    grads = models.lstm_backward(params, cache, dpred)
    ref_grads = ref_lstm_backward(params, ref_cache, dpred)
    assert sorted(grads) == sorted(ref_grads)
    for name, expected in ref_grads.items():
        assert_bits_equal(grads[name], expected)


@pytest.mark.parametrize("hidden", [1, 4, 64])
@pytest.mark.parametrize("steps", [1, 2, 20])
@pytest.mark.parametrize("batch", [1, 3, 64, 512])
def test_lstm_matches_exp_sigmoid_reference_in_float64(batch, steps, hidden):
    params, x, dpred = _reference_case(batch, steps, hidden)

    def assert_close(actual, expected, what):
        bound = 1e-12 * np.abs(expected).max()
        assert np.abs(actual - expected).max() <= bound, what

    pred, cache = models.lstm_forward(params, x)
    exp_pred, exp_cache = exp_lstm_forward(params, x)
    assert_close(pred, exp_pred, "pred")
    _, exp_i, exp_f, exp_g, exp_o, exp_c, _, exp_h = exp_cache
    for name, block, expected in zip(
        models.GATE_ORDER, np.split(cache.gates, 4, axis=1), (exp_i, exp_f, exp_g, exp_o)
    ):
        assert_close(block.swapaxes(1, 2), expected, name)
    assert_close(cache.cells[1:].swapaxes(1, 2), exp_c, "cells")
    assert_close(cache.hiddens[1:].swapaxes(1, 2), exp_h, "hiddens")

    grads = models.lstm_backward(params, cache, dpred)
    for name, expected in exp_lstm_backward(params, exp_cache, dpred).items():
        assert_close(grads[name], expected, name)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_saturated_gates_stay_finite_and_in_range(dtype):
    # Pre-activations of +-1e4 drive every gate to its limit. No step may
    # overflow, divide by zero or produce NaN, forward or backward.
    rng = SeededRng(11)
    params = models.init_lstm(5, 8, rng)
    signs = np.where(rng.uniform(-1.0, 1.0, params.b.shape) < 0.0, -1.0, 1.0)
    params.b[:] = 1e4 * signs
    params = models.LstmParams.from_dict(
        {k: t.astype(dtype) for k, t in params.to_dict().items()}
    )
    x = rng.uniform(-1.0, 1.0, (16, 20, 5))
    dpred = rng.uniform(-1.0, 1.0, (16,))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        pred, cache = models.lstm_forward(params, x)
        grads = models.lstm_backward(params, cache, dpred)
    assert pred.dtype == dtype and np.all(np.isfinite(pred))
    i, f, g, o = np.split(cache.gates, 4, axis=1)
    for gate in (i, f, o):
        assert np.all((gate >= 0.0) & (gate <= 1.0))
    assert np.all((g >= -1.0) & (g <= 1.0))
    for name, g in grads.items():
        assert g.dtype == dtype and np.all(np.isfinite(g)), name


def test_lstm_backward_leaves_cache_reusable():
    params = models.init_lstm(3, 4, SeededRng(6))
    x = SeededRng(7).uniform(-1.0, 1.0, (2, 5, 3))
    _, cache = models.lstm_forward(params, x)
    dpred = np.array([0.5, -1.5])
    first = models.lstm_backward(params, cache, dpred)
    second = models.lstm_backward(params, cache, dpred)
    for name in first:
        assert np.array_equal(first[name], second[name])
