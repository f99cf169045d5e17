"""The fused LSTM step against a frozen copy of the unfused implementation.

The reference below is the straightforward form of the same equations:
a masked sigmoid applied per gate block, seven separate per-step arrays,
and backward products written out per block. The fused code must keep
every floating-point operation and its order, so results are compared
with exact equality (including the sign of zeros), never a tolerance.
"""

import numpy as np
import pytest

from rulkit import models
from rulkit.numerics import SeededRng, sigmoid

# ---------------------------------------------------------------------------
# Frozen reference
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
    """Returns (pred, (xt, i, f, g, o, c, tanh_c, h)), arrays time-major."""
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


def ref_lstm_backward(params, cache, dpred):
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


@pytest.mark.parametrize("hidden", [1, 4, 64])
@pytest.mark.parametrize("steps", [1, 2, 20])
@pytest.mark.parametrize("batch", [1, 3, 64, 512])
def test_lstm_matches_frozen_reference(batch, steps, hidden):
    rng = SeededRng(1000 * batch + 10 * steps + hidden)
    params = models.init_lstm(5, hidden, rng)
    # Wider weights push gates toward saturation, where rounding differs most.
    params.w_x *= 4.0
    params.w_h *= 4.0
    params.b += rng.uniform(-1.0, 1.0, params.b.shape)
    x = rng.uniform(-1.0, 1.0, (batch, steps, 5))
    x[0, 0] = 0.0
    dpred = rng.uniform(-1.0, 1.0, (batch,))

    pred, cache = models.lstm_forward(params, x)
    ref_pred, ref_cache = ref_lstm_forward(params, x)
    assert_bits_equal(pred, ref_pred)
    _, ref_i, ref_f, ref_g, ref_o, ref_c, _, ref_h = ref_cache
    for block, expected in zip(np.split(cache.gates, 4, axis=2), (ref_i, ref_f, ref_g, ref_o)):
        assert_bits_equal(block, expected)
    assert_bits_equal(cache.cells[1:], ref_c)
    assert_bits_equal(cache.hiddens[1:], ref_h)

    grads = models.lstm_backward(params, cache, dpred)
    ref_grads = ref_lstm_backward(params, ref_cache, dpred)
    assert sorted(grads) == sorted(ref_grads)
    for name, expected in ref_grads.items():
        assert_bits_equal(grads[name], expected)


def test_lstm_backward_leaves_cache_reusable():
    params = models.init_lstm(3, 4, SeededRng(6))
    x = SeededRng(7).uniform(-1.0, 1.0, (2, 5, 3))
    _, cache = models.lstm_forward(params, x)
    dpred = np.array([0.5, -1.5])
    first = models.lstm_backward(params, cache, dpred)
    second = models.lstm_backward(params, cache, dpred)
    for name in first:
        assert np.array_equal(first[name], second[name])
