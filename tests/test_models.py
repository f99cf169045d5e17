"""Forward/backward passes of both regressors against independent oracles.

The scalar oracles below were computed by hand from the layer equations
(logistic/tanh values evaluated with the standard library), then frozen.
Gradients are additionally checked against central finite differences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulkit import models
from rulkit.errors import ConfigError, ShapeError, ValidationError
from rulkit.numerics import SeededRng
from rulkit.optim import flatten_params, unflatten
from rulkit.train_eval import numeric_gradients

# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_init_mlp_shapes_bounds_and_zero_biases():
    params = models.init_mlp((16, 64, 32, 1), SeededRng(0))
    shapes = [w.shape for w in params.weights]
    assert shapes == [(64, 16), (32, 64), (1, 32)]
    for w, fan_in in zip(params.weights, (16, 64, 32)):
        bound = 1.0 / np.sqrt(fan_in)
        assert np.abs(w).max() <= bound
    for b in params.biases:
        assert not b.any()


def test_init_mlp_is_deterministic_per_seed():
    a = models.init_mlp((4, 3, 1), SeededRng(5))
    b = models.init_mlp((4, 3, 1), SeededRng(5))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_mlp_validation():
    with pytest.raises(ConfigError):
        models.init_mlp((4,), SeededRng(0))
    with pytest.raises(ConfigError):
        models.init_mlp((4, 0, 1), SeededRng(0))


def test_init_lstm_shapes_and_forget_bias():
    params = models.init_lstm(16, 64, SeededRng(0))
    assert params.w_x.shape == (256, 16)
    assert params.w_h.shape == (256, 64)
    assert params.b.shape == (256,)
    assert params.w_head.shape == (64,)
    assert params.b_head.shape == (1,)
    # Bias layout follows the gate order (i, f, g, o): only the forget
    # block starts at one.
    assert not params.b[:64].any()
    assert np.all(params.b[64:128] == 1.0)
    assert not params.b[128:].any()
    assert models.GATE_ORDER == ("i", "f", "g", "o")


def test_init_lstm_validation():
    with pytest.raises(ConfigError):
        models.init_lstm(0, 4, SeededRng(0))


# ---------------------------------------------------------------------------
# MLP forward (hand oracle)
# ---------------------------------------------------------------------------


def _tiny_mlp() -> models.MlpParams:
    return models.MlpParams(
        weights=[np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([[2.0, -1.0]])],
        biases=[np.array([0.0, 0.5]), np.array([0.25])],
    )


def test_mlp_forward_hand_oracle():
    # x=[1,2]: z=[3, -0.5] -> relu [3, 0] -> 2*3 - 1*0 + 0.25 = 6.25
    # x=[0,0]: z=[0, 0.5]  -> relu [0, 0.5] -> -0.5 + 0.25 = -0.25
    pred, cache = models.mlp_forward(_tiny_mlp(), np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert pred.tolist() == [6.25, -0.25]
    assert cache.pre_acts[0].tolist() == [[3.0, -0.5], [0.0, 0.5]]


def test_mlp_forward_shape_errors():
    params = _tiny_mlp()
    with pytest.raises(ShapeError, match="batch, features"):
        models.mlp_forward(params, np.zeros(2))
    with pytest.raises(ShapeError, match="feature count 3"):
        models.mlp_forward(params, np.zeros((1, 3)))


def test_mlp_backward_hand_oracle_single_linear_path():
    # With x=[1,2] only the first hidden unit is active, so the network is
    # locally linear: pred = 2*(x1 + x2) + 0.25. With dpred = 1:
    #   dw1 = [h1, h2] = [3, 0]; db1 = 1
    #   dw0 row0 = 2*[1, 2];     db0 = [2, 0] (unit 2 inactive)
    grads = models.mlp_backward(
        _tiny_mlp(),
        models.mlp_forward(_tiny_mlp(), np.array([[1.0, 2.0]]))[1],
        np.array([1.0]),
    )
    assert grads["w1"].tolist() == [[3.0, 0.0]]
    assert grads["b1"].tolist() == [1.0]
    assert grads["w0"].tolist() == [[2.0, 4.0], [0.0, 0.0]]
    assert grads["b0"].tolist() == [2.0, 0.0]


def test_mlp_backward_zero_upstream_gives_zero_grads():
    x = SeededRng(1).uniform(-1.0, 1.0, (4, 2))
    _, cache = models.mlp_forward(_tiny_mlp(), x)
    grads = models.mlp_backward(_tiny_mlp(), cache, np.zeros(4))
    assert all(not g.any() for g in grads.values())


def test_mlp_gradients_match_finite_differences_fixed_instance():
    rng = SeededRng(42)
    params = models.init_mlp((3, 5, 4, 1), rng)
    # Shift biases away from zero so no relu input sits on the kink.
    for b in params.biases:
        b += 0.3
    x = rng.uniform(-1.0, 1.0, (4, 3))
    y = rng.uniform(0.0, 5.0, (4,))
    pred, cache = models.mlp_forward(params, x)
    _, dpred = models.mse_loss(pred, y)
    analytic = models.mlp_backward(params, cache, dpred)
    numeric = unflatten(numeric_gradients(params, x, y), params.to_dict())
    for name in analytic:
        np.testing.assert_allclose(analytic[name], numeric[name], rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# LSTM forward (hand oracle)
# ---------------------------------------------------------------------------


def _tiny_lstm() -> models.LstmParams:
    return models.LstmParams(
        w_x=np.array([[0.5], [-0.25], [1.0], [0.75]]),
        w_h=np.zeros((4, 1)),
        b=np.array([0.0, 1.0, 0.0, 0.0]),
        w_head=np.array([2.0]),
        b_head=np.array([0.5]),
    )


def test_lstm_cell_single_step_hand_oracle():
    # One step (T=1) from the zero state, read from the fused gate tensor.
    # x=2: z_i=1, z_f=0.5, z_g=2, z_o=1.5 (recurrent weights are zero).
    _, cache = models.lstm_forward(_tiny_lstm(), np.array([[[2.0]]]))
    i, f, g, o = cache.gates[0, :, 0]
    assert i == pytest.approx(0.7310585786300049, rel=1e-15)
    assert f == pytest.approx(0.62245933120185459, rel=1e-15)
    assert g == pytest.approx(0.9640275800758169, rel=1e-15)
    assert o == pytest.approx(0.81757447619364365, rel=1e-15)
    assert cache.cells[1, 0, 0] == pytest.approx(0.70476063245034992, rel=1e-15)
    assert cache.hiddens[1, 0, 0] == pytest.approx(0.49657907793517897, rel=1e-15)


def test_lstm_forward_two_step_hand_oracle():
    # Second step x=-1 with c carried: c2 = f2*c1 + i2*g2, then the head.
    pred, cache = models.lstm_forward(_tiny_lstm(), np.array([[[2.0]], [[2.0]]])[:1])
    assert pred[0] == pytest.approx(1.4931581558703579, rel=1e-14)
    pred2, cache2 = models.lstm_forward(_tiny_lstm(), np.array([[[2.0], [-1.0]]]))
    assert cache2.cells[2, 0, 0] == pytest.approx(0.26027757477274599, rel=1e-14)
    assert cache2.hiddens[2, 0, 0] == pytest.approx(0.081666710940140663, rel=1e-14)
    assert pred2[0] == pytest.approx(0.66333342188028133, rel=1e-14)


def test_lstm_state_starts_at_zero_every_call():
    params = models.init_lstm(3, 5, SeededRng(2))
    x = SeededRng(3).uniform(-1.0, 1.0, (2, 7, 3))
    a, _ = models.lstm_forward(params, x)
    b, _ = models.lstm_forward(params, x)
    assert np.array_equal(a, b)


def test_lstm_batch_matches_per_sample_runs():
    # No state may leak across samples in a batch: predictions of a stacked
    # batch equal the predictions of each window run alone.
    params = models.init_lstm(4, 6, SeededRng(9))
    x = SeededRng(10).uniform(-1.0, 1.0, (5, 8, 4))
    batched, _ = models.lstm_forward(params, x)
    singles = [models.lstm_forward(params, x[i : i + 1])[0][0] for i in range(5)]
    np.testing.assert_allclose(batched, singles, rtol=1e-15, atol=0)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 8),
    st.integers(1, 12),
    st.integers(1, 9),
    st.floats(0.1, 10.0),
    st.integers(0, 2**32 - 1),
)
def test_lstm_batch_matches_per_sample_runs_property(feats, hidden, steps, batch, scale, seed):
    """A batched forward pass equals each window run alone to 1e-12 relative.

    Relative to the size of the terms summed into each prediction, so that a
    prediction near zero by cancellation does not demand an exact match.
    """
    rng = SeededRng(seed)
    params = models.init_lstm(feats, hidden, rng)
    params.b_head[0] = rng.uniform(-1.0, 1.0, ())
    x = rng.uniform(-scale, scale, (batch, steps, feats))
    batched, _ = models.lstm_forward(params, x)
    for i in range(batch):
        single, cache = models.lstm_forward(params, x[i : i + 1])
        size = np.abs(cache.hiddens[-1][:, 0]) @ np.abs(params.w_head) + abs(params.b_head[0])
        assert abs(batched[i] - single[0]) <= 1e-12 * size


def test_lstm_forward_shape_errors():
    params = _tiny_lstm()
    with pytest.raises(ShapeError, match="batch, time, features"):
        models.lstm_forward(params, np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="feature count 2"):
        models.lstm_forward(params, np.zeros((1, 4, 2)))


def test_lstm_cell_shape_errors():
    # A single step (T=1) with the wrong input width.
    with pytest.raises(ShapeError, match="feature count 3"):
        models.lstm_forward(_tiny_lstm(), np.zeros((1, 1, 3)))


def test_lstm_gradients_match_finite_differences_fixed_instance():
    rng = SeededRng(77)
    params = models.init_lstm(3, 4, rng)
    x = rng.uniform(-1.0, 1.0, (3, 6, 3))
    y = rng.uniform(0.0, 5.0, (3,))
    pred, cache = models.lstm_forward(params, x)
    _, dpred = models.mse_loss(pred, y)
    analytic = models.lstm_backward(params, cache, dpred)
    numeric = unflatten(numeric_gradients(params, x, y), params.to_dict())
    for name in analytic:
        np.testing.assert_allclose(
            analytic[name], numeric[name], rtol=1e-6, atol=1e-8, err_msg=name
        )


def test_lstm_backward_shape_errors():
    params = _tiny_lstm()
    _, cache = models.lstm_forward(params, np.zeros((2, 3, 1)))
    with pytest.raises(ShapeError, match="dpred"):
        models.lstm_backward(params, cache, np.zeros(3))


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def test_mse_loss_hand_oracle():
    loss, dpred = models.mse_loss(np.array([1.0, 3.0]), np.array([0.0, 1.0]))
    assert loss == 2.5
    assert dpred.tolist() == [1.0, 2.0]


def test_mse_loss_zero_when_equal():
    x = np.array([4.0, 5.0])
    loss, dpred = models.mse_loss(x, x.copy())
    assert loss == 0.0
    assert not dpred.any()


def test_mse_loss_validation():
    with pytest.raises(ShapeError, match="does not match"):
        models.mse_loss(np.zeros(3), np.zeros(4))
    with pytest.raises(ValidationError, match="at least one"):
        models.mse_loss(np.zeros(0), np.zeros(0))


def test_params_dict_round_trip():
    mlp = models.init_mlp((3, 4, 1), SeededRng(1))
    mlp_back = models.MlpParams.from_dict(mlp.to_dict())
    for a, b in zip(mlp.weights, mlp_back.weights):
        assert np.array_equal(a, b)
    lstm = models.init_lstm(3, 4, SeededRng(1))
    lstm_back = models.LstmParams.from_dict(lstm.to_dict())
    assert np.array_equal(lstm.w_x, lstm_back.w_x)
    assert np.array_equal(lstm.b, lstm_back.b)


# ---------------------------------------------------------------------------
# Stacked parameter sets
# ---------------------------------------------------------------------------


def _stack(param_sets):
    """One parameter object whose tensors stack those of `param_sets` on axis 0."""
    tensors = [p.to_dict() for p in param_sets]
    return type(param_sets[0]).from_dict(
        {name: np.stack([t[name] for t in tensors]) for name in tensors[0]}
    )


@pytest.mark.parametrize("kind", ["mlp", "lstm"])
@pytest.mark.parametrize("seed", range(6))
def test_stacked_forward_rows_equal_single_models(kind, seed):
    rng = SeededRng(seed)
    gen = rng.generator
    feats, batch, copies = (int(v) for v in gen.integers(1, 7, 3))
    if kind == "lstm":
        hidden, steps = (int(v) for v in gen.integers(1, 9, 2))
        singles = [models.init_lstm(feats, hidden, rng) for _ in range(copies)]
        x = rng.uniform(-2.0, 2.0, (batch, steps, feats))
    else:
        sizes = (feats, *(int(v) for v in gen.integers(1, 9, seed % 3)), 1)
        singles = [models.init_mlp(sizes, rng) for _ in range(copies)]
        x = rng.uniform(-2.0, 2.0, (batch, feats))
    for p in singles:
        for t in p.to_dict().values():
            t += rng.uniform(-0.5, 0.5, t.shape)
    stacked = _stack(singles)
    assert stacked.stack_shape == (copies,)
    pred = stacked.forward(x)[0]
    assert pred.shape == (copies, batch)
    for row, single in zip(pred, singles):
        expected = single.forward(x)[0]
        assert np.array_equal(row, expected)
        assert np.array_equal(np.signbit(row), np.signbit(expected))


def test_stack_needs_the_same_leading_axes_on_every_tensor():
    lstm = models.init_lstm(3, 2, SeededRng(0)).to_dict()
    stacked = {name: np.stack([t, t]) for name, t in lstm.items()}
    models.LstmParams.from_dict(stacked)
    with pytest.raises(ValidationError, match=r"parameter 'b' has shape \(4, 8\)"):
        models.LstmParams.from_dict({**stacked, "b": np.zeros((4, 8))})
    with pytest.raises(ValidationError, match=r"'w_x' has shape \(8, 3\), expected \(2, 8, 3\)"):
        models.LstmParams.from_dict({**stacked, "w_x": lstm["w_x"]})
    mlp = models.init_mlp((3, 2, 1), SeededRng(0)).to_dict()
    stacked = {name: np.stack([t, t]) for name, t in mlp.items()}
    with pytest.raises(ValidationError, match=r"parameter 'b1' has shape \(1,\)"):
        models.MlpParams.from_dict({**stacked, "b1": mlp["b1"]})


def test_backward_takes_one_model():
    rng = SeededRng(1)
    for single, x in ((models.init_lstm(2, 3, rng), rng.uniform(-1, 1, (2, 4, 2))),
                      (models.init_mlp((2, 3, 1), rng), rng.uniform(-1, 1, (2, 2)))):
        stacked = _stack([single, single])
        _, cache = stacked.forward(x)
        with pytest.raises(ShapeError, match="one model, not a stack"):
            stacked.backward(cache, np.ones(2))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_mlp_forward_takes_strided_rows_as_their_contiguous_copy():
    # A model without hidden layers multiplies the caller's rows directly; a
    # strided array must give the bits of its copy, alone and in a stack.
    rng = SeededRng(8)
    single = models.init_mlp((5, 1), rng)
    x = rng.uniform(-1.0, 1.0, (7, 10))[:, ::2]
    pred = single.forward(x)[0]
    assert _same_bits(pred, single.forward(np.ascontiguousarray(x))[0])
    assert _same_bits(pred, _stack([single, single]).forward(x)[0][1])


@pytest.mark.parametrize("steps", [1, 20])
@pytest.mark.parametrize("batch", [1, 64, 128])
def test_float32_lstm_computes_in_float32_close_to_float64(batch, steps):
    # train runs the LSTM's batches on a float32 copy of float64 weights.
    rng = SeededRng(batch + steps)
    params = models.init_lstm(14, 64, rng)
    flat32, views32 = flatten_params(params.to_dict())
    flat32 = flat32.astype(np.float32)
    single = models.LstmParams.from_dict(unflatten(flat32, views32))
    assert all(t.dtype == np.float32 and t.base is flat32 for t in single.to_dict().values())
    x = rng.uniform(0.0, 1.0, (batch, steps, 14))
    y = rng.uniform(0.0, 125.0, (batch,))
    runs = []
    for p in (params, single):
        pred, cache = p.forward(x)
        _, dpred = models.mse_loss(pred, y)
        runs.append((pred, p.backward(cache, dpred)))
    (pred64, grads64), (pred32, grads32) = runs
    assert pred64.dtype == np.float64 and pred32.dtype == np.float32
    assert np.abs(pred32 - pred64).max() <= 1e-4 * np.abs(pred64).max()
    for name, g in grads64.items():
        assert g.dtype == np.float64 and grads32[name].dtype == np.float32, name
        assert np.abs(grads32[name] - g).max() <= 1e-4 * np.abs(g).max(), name


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("make", [
    lambda rng: models.init_mlp((14, 1), rng),
    lambda rng: models.init_mlp((14, 64, 1), rng),
    lambda rng: models.init_mlp((14, 64, 32, 1), rng),
    lambda rng: models.init_lstm(14, 64, rng),
], ids=["mlp-1-layer", "mlp-2-layers", "mlp-3-layers", "lstm"])
def test_backward_into_out_writes_the_fresh_bits(make, batch):
    # Training passes views of one flat gradient vector as `out`. A batch of
    # 1 reaches other BLAS kernels than a batch of 64.
    rng = SeededRng(batch)
    params = make(rng)
    shape = (batch, 20, 14) if params.takes_windows else (batch, 14)
    pred, cache = params.forward(rng.uniform(0.0, 1.0, shape))
    _, dpred = models.mse_loss(pred, rng.uniform(0.0, 125.0, (batch,)))
    fresh = params.backward(cache, dpred)
    assert list(fresh) == list(params.to_dict())

    grad, out = flatten_params(params.to_dict())
    grad[...] = np.nan  # every element must be written
    arrays = dict(out)
    assert params.backward(cache, dpred, out) is out
    assert all(out[name] is arrays[name] for name in arrays)
    for name, g in fresh.items():
        assert np.array_equal(out[name].view(np.uint64), g.view(np.uint64)), name
