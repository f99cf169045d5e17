"""Adam updates and gradient clipping against an independent reference."""

import json
import math

import numpy as np
import pytest

from rulkit.errors import ConfigError, TrainingError, ValidationError
from rulkit.numerics import SeededRng
from rulkit.optim import AdamState, adam_step, clip_gradients, flatten_params, init_adam


def test_adam_first_step_hand_oracle():
    # theta=1, g=0.5, lr=0.1: m_hat=g, v_hat=g^2, so the first step is
    # lr * g / (|g| + eps). Expected value computed independently.
    flat, params = flatten_params({"w": np.array([1.0])})
    state = init_adam(params, lr=0.1)
    adam_step(state, flat, np.array([0.5]))
    assert state.step == 1
    assert params["w"][0] == pytest.approx(0.90000000199999997, abs=1e-16)


def test_adam_second_step_hand_oracle():
    flat, params = flatten_params({"w": np.array([1.0])})
    state = init_adam(params, lr=0.1)
    for _ in range(2):
        adam_step(state, flat, np.array([0.5]))
    assert params["w"][0] == pytest.approx(0.8000000040000006, abs=1e-15)


def test_adam_matches_scalar_reference_over_random_steps():
    """Evolve one coordinate 50 steps and compare to a from-scratch loop."""
    gen = np.random.Generator(np.random.PCG64(31))
    grads_seq = gen.uniform(-2.0, 2.0, 50)

    flat, params = flatten_params({"w": np.array([0.7])})
    state = init_adam(params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    for g in grads_seq:
        adam_step(state, flat, np.array([g]))

    theta, m, v = 0.7, 0.0, 0.0
    for t, g in enumerate(grads_seq, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        theta -= 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)

    assert params["w"][0] == pytest.approx(theta, rel=1e-12)


def test_adam_zero_gradient_keeps_parameters_fixed():
    flat, params = flatten_params({"w": np.array([1.0, -2.0])})
    state = init_adam(params)
    adam_step(state, flat, np.zeros(2))
    assert params["w"].tolist() == [1.0, -2.0]


def test_adam_updates_multiple_tensors_independently():
    flat, params = flatten_params({"a": np.array([1.0]), "b": np.array([1.0])})
    state = init_adam(params, lr=0.1)
    adam_step(state, flat, np.array([1.0, -1.0]))
    # Same magnitude, opposite gradient sign -> mirrored updates.
    assert params["a"][0] == pytest.approx(2.0 - params["b"][0], rel=1e-15)


def test_adam_step_size_is_bounded_by_lr_scale():
    # |update| is at most ~lr/(1-beta1) regardless of gradient magnitude.
    flat, params = flatten_params({"w": np.array([0.0])})
    state = init_adam(params, lr=0.001)
    adam_step(state, flat, np.array([1e9]))
    assert abs(params["w"][0]) < 0.0011


def test_adam_rejects_mismatched_keys_and_shapes():
    # Gradients are one flat vector, so only its length and the parameter
    # vector's length can disagree with the state.
    flat, params = flatten_params({"w": np.zeros(2)})
    state = init_adam(params)
    with pytest.raises(ConfigError, match=r"gradient of shape \(3,\) do not match"):
        adam_step(state, flat, np.zeros(3))
    with pytest.raises(ConfigError, match=r"gradient of shape \(2, 1\) do not match"):
        adam_step(state, flat, np.zeros((2, 1)))
    with pytest.raises(ConfigError, match=r"parameter vector of shape \(3,\)"):
        adam_step(state, np.zeros(3), np.zeros(2))
    assert state.step == 0


def test_adam_aborts_on_non_finite_gradient_without_mutating_state():
    flat, params = flatten_params({"w": np.array([1.0]), "u": np.array([2.0])})
    state = init_adam(params)
    before = flat.copy()
    with pytest.raises(TrainingError, match="'u'"):
        adam_step(state, flat, np.array([0.5, np.nan]))
    assert state.step == 0
    assert np.array_equal(flat, before)
    assert not state.m.any() and not state.v.any()


def test_init_adam_validation():
    with pytest.raises(ConfigError, match="learning rate"):
        init_adam({"w": np.zeros(1)}, lr=0.0)
    with pytest.raises(ConfigError, match="betas"):
        init_adam({"w": np.zeros(1)}, beta1=1.0)


def test_adam_state_dict_round_trip_is_lossless():
    flat, params = flatten_params({"w": np.array([1.0, 2.0]), "b": np.array([[3.0, 4.0]])})
    state = init_adam(params, lr=0.05)
    rng = SeededRng(6)
    for _ in range(3):
        adam_step(state, flat, rng.uniform(-1, 1, 4))
    saved = state.to_dict()
    assert saved["m"]["b"] == state.m[2:].reshape(1, 2).tolist()
    restored = AdamState.from_dict(json.loads(json.dumps(saved)), params)
    assert restored.step == state.step
    assert restored.lr == state.lr
    assert restored.layout == state.layout
    assert np.array_equal(restored.m, state.m)
    assert np.array_equal(restored.v, state.v)

    # Both copies must evolve identically afterwards.
    flat_copy = flat.copy()
    g = np.array([0.3, -0.7, 0.1, 0.9])
    adam_step(state, flat, g)
    adam_step(restored, flat_copy, g)
    assert np.array_equal(flat, flat_copy)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda d: d["m"].pop("b"), r"optimizer m shapes \{'w': \(2,\)\} do not match"),
        (lambda d: d["v"].update(extra=[0.0]), r"optimizer v shapes .*'extra': \(1,\)"),
        (lambda d: d["m"].update(w=[0.0, 0.0, 0.0]), r"optimizer m shapes \{'w': \(3,\)"),
        (lambda d: d["v"].update(b=[0.0, 0.0]), r"'b': \(2,\)\} do not match .*'b': \(1, 2\)"),
    ],
)
def test_adam_state_from_dict_rejects_moments_unlike_params(edit, match):
    _, params = flatten_params({"w": np.zeros(2), "b": np.zeros((1, 2))})
    saved = init_adam(params).to_dict()
    edit(saved)
    with pytest.raises(ValidationError, match=match):
        AdamState.from_dict(saved, params)


def test_flatten_params_views_share_one_contiguous_vector():
    tensors = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([7.0]), "s": np.array(8.0)}
    flat, views = flatten_params(tensors)
    assert flat.flags.c_contiguous and flat.dtype == np.float64
    assert flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0]
    assert list(views) == ["w", "b", "s"]
    for name, t in tensors.items():
        assert views[name].shape == t.shape
        assert np.array_equal(views[name], t)
        assert np.shares_memory(views[name], flat)
        assert not np.shares_memory(views[name], t)
    flat[6] = -1.0
    assert views["b"][0] == -1.0


def test_clip_gradients_no_op_within_bound():
    grads = {"w": np.array([3.0]), "b": np.array([4.0])}  # norm 5
    norm = clip_gradients(grads, max_norm=10.0)
    assert norm == 5.0
    assert grads["w"][0] == 3.0 and grads["b"][0] == 4.0


def test_clip_gradients_scales_to_max_norm():
    grads = {"w": np.array([3.0]), "b": np.array([4.0])}  # norm 5
    norm = clip_gradients(grads, max_norm=1.0)
    assert norm == 5.0
    assert grads["w"][0] == pytest.approx(0.6, rel=1e-15)
    assert grads["b"][0] == pytest.approx(0.8, rel=1e-15)
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert total == pytest.approx(1.0, rel=1e-15)

    # Views of one flat gradient vector, as train passes them: the vector
    # itself is scaled, by the same bits.
    grad, views = flatten_params({"w": np.array([3.0]), "b": np.array([4.0])})
    assert clip_gradients(views, max_norm=1.0) == 5.0
    assert grad.tolist() == [grads["w"][0], grads["b"][0]]


def test_clip_gradients_sums_squared_norms_in_dict_order():
    # 1 + 1 + 1e16 is 1e16 + 2 summed left to right, but 1e16 summed from
    # the right (1e16 + 1 rounds back to 1e16), so the order shows.
    grads = {"a": np.array([1.0]), "b": np.array([1.0]), "c": np.array([1e8])}
    norm = clip_gradients(grads, max_norm=1.0)
    assert norm == math.sqrt(10000000000000002.0) != 1e8
    assert grads["c"][0] == 1e8 * (1.0 / norm)


def test_clip_gradients_rejects_bad_bound():
    with pytest.raises(ConfigError, match="max_norm"):
        clip_gradients({"w": np.ones(2)}, 0.0)
