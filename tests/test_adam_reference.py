"""The flat-vector Adam against a frozen per-tensor reference.

`reference_adam_step`, `reference_clip_gradients` and `reference_train` are
frozen copies of the optimizer step, the clipping and the training loop from
before the parameters moved into one flat vector: they update a dict of
tensors one tensor at a time. The
flat-vector code must reproduce them bit for bit, sign bits included, over
random layouts and hyperparameters, and through `train` with and without
gradient clipping.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulkit import dataset_io, models, preprocess
from rulkit.errors import ConfigError, TrainingError
from rulkit.numerics import SeededRng
from rulkit.optim import adam_step, flatten_params, init_adam
from rulkit.train_eval import TrainConfig, train


@dataclass
class ReferenceAdamState:
    lr: float
    beta1: float
    beta2: float
    eps: float
    step: int
    m: dict
    v: dict


def reference_init(params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    return ReferenceAdamState(
        lr, beta1, beta2, eps, 0,
        {k: np.zeros_like(p) for k, p in params.items()},
        {k: np.zeros_like(p) for k, p in params.items()},
    )


def reference_adam_step(state, params, grads):
    """One in-place Adam update per tensor; aborts (state untouched) on non-finite grads."""
    if set(params) != set(state.m):
        raise ConfigError(
            f"parameter keys {sorted(params)} do not match optimizer state {sorted(state.m)}"
        )
    if set(grads) != set(params):
        raise ConfigError(
            f"gradient keys {sorted(grads)} do not match parameters {sorted(params)}"
        )
    for name, g in grads.items():
        if g.shape != params[name].shape:
            raise ConfigError(
                f"gradient {name} shape {g.shape} does not match parameter "
                f"{params[name].shape}"
            )
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in tensor {name!r}")

    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        params[name] -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def reference_clip_gradients(grads, max_norm):
    """Scale all gradients so the global L2 norm is at most max_norm; returns the norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def _forward(kind, params, x):
    return models.lstm_forward(params, x) if kind == "lstm" else models.mlp_forward(params, x)


def _backward(kind, params, cache, dpred):
    if kind == "lstm":
        return models.lstm_backward(params, cache, dpred)
    return models.mlp_backward(params, cache, dpred)


def _compute_copy(params_obj):
    """A parameter object on a per-tensor copy of `params_obj` in its class's
    compute dtype (no copy for float64), as train forwards and backprops."""
    dtype = params_obj.compute_dtype
    return type(params_obj).from_dict(
        {k: t.astype(dtype, copy=False) for k, t in params_obj.to_dict().items()})


def reference_train(config, train_set, val_set, rng):
    """The training loop over a dict of separate tensors; returns params, state, mse curves.

    Each batch and each validation pass runs on a fresh compute-dtype copy of
    the float64 tensors, and the gradients are upcast to float64 per tensor
    before clipping and Adam."""
    n = len(train_set)
    params_obj = models.MODELS[config.model].init(train_set.rows.shape[1], config, rng)
    params = params_obj.to_dict()
    state = reference_init(params, lr=config.lr)
    train_mse, val_mse = [], []
    for _ in range(config.epochs):
        order = rng.shuffle(n)
        sq_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            work = _compute_copy(params_obj)
            pred, cache = _forward(config.model, work, train_set.inputs(idx))
            loss, dpred = models.mse_loss(pred, train_set.targets[idx])
            grads = {k: g.astype(np.float64, copy=False)
                     for k, g in _backward(config.model, work, cache, dpred).items()}
            if config.grad_clip is not None:
                reference_clip_gradients(grads, config.grad_clip)
            reference_adam_step(state, params, grads)
            sq_sum += loss * len(idx)
        train_mse.append(sq_sum / n)
        preds = np.empty(len(val_set))
        work = _compute_copy(params_obj)
        for start in range(0, len(val_set), 512):
            x = val_set.inputs(slice(start, start + 512))
            preds[start : start + 512] = _forward(config.model, work, x)[0]
        val_mse.append(float(np.mean((preds - val_set.targets) ** 2)))
    return params_obj, state, train_mse, val_mse


def _bits(a):
    """Raw IEEE bit patterns, so -0.0 != 0.0 and NaN payloads count."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_same_bits(a, b, what):
    assert a.shape == b.shape, what
    assert np.array_equal(_bits(a), _bits(b)), what


def _assert_states_equal(flat, state, ref_params, ref_state):
    assert state.step == ref_state.step
    flat_ref = {name: flatten_params(d)[0] for name, d in
                (("params", ref_params), ("m", ref_state.m), ("v", ref_state.v))}
    _assert_same_bits(flat, flat_ref["params"], "params")
    _assert_same_bits(state.m, flat_ref["m"], "m")
    _assert_same_bits(state.v, flat_ref["v"], "v")


# ---------------------------------------------------------------------------
# adam_step against the per-tensor reference
# ---------------------------------------------------------------------------

shapes = st.lists(
    st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple), min_size=1, max_size=6
)
hyper = st.fixed_dictionaries({
    "lr": st.floats(1e-6, 1.0),
    "beta1": st.floats(0.0, 0.999999),
    "beta2": st.floats(0.0, 0.999999),
    "eps": st.floats(1e-12, 1e-3),
})


def _random_tensor(gen, shape):
    """Values across many magnitudes, with exact zeros of both signs mixed in."""
    values = gen.standard_normal(shape) * 10.0 ** gen.integers(-8, 9, shape)
    values = np.where(gen.random(shape) < 0.1, 0.0, values)
    return np.where(gen.random(shape) < 0.1, -0.0, values)


def _layout(gen, tensor_shapes):
    names = [f"t{i}" for i in gen.permutation(len(tensor_shapes))]
    return dict(zip(names, tensor_shapes))


@settings(max_examples=60, deadline=None)
@given(tensor_shapes=shapes, steps=st.integers(1, 50), hp=hyper, seed=st.integers(0, 2**32 - 1))
def test_flat_adam_is_bit_identical_to_per_tensor_reference(tensor_shapes, steps, hp, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    layout = _layout(gen, tensor_shapes)
    start = {name: _random_tensor(gen, shape) for name, shape in layout.items()}

    ref_params = {k: t.copy() for k, t in start.items()}
    ref_state = reference_init(ref_params, **hp)
    flat, _ = flatten_params(start)
    state = init_adam(start, **hp)
    for _ in range(steps):
        # The reference takes them in backward-pass order, not layout order;
        # adam_step takes them flattened in layout order.
        grads = {name: _random_tensor(gen, layout[name]) for name in reversed(list(layout))}
        reference_adam_step(ref_state, ref_params, {k: g.copy() for k, g in grads.items()})
        adam_step(state, flat, flatten_params({name: grads[name] for name in layout})[0])
    _assert_states_equal(flat, state, ref_params, ref_state)


@settings(max_examples=40, deadline=None)
@given(
    tensor_shapes=shapes.filter(lambda s: any(np.prod(shape) > 0 for shape in s)),
    steps=st.integers(0, 5),
    bad_value=st.sampled_from([np.nan, np.inf, -np.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_non_finite_gradient_names_tensor_and_leaves_state_untouched(
    tensor_shapes, steps, bad_value, seed
):
    gen = np.random.Generator(np.random.PCG64(seed))
    layout = _layout(gen, tensor_shapes)
    flat, views = flatten_params({n: _random_tensor(gen, s) for n, s in layout.items()})
    state = init_adam(views, lr=0.01)
    for _ in range(steps):
        adam_step(state, flat, flatten_params(
            {n: _random_tensor(gen, s) for n, s in layout.items()})[0])
    before = (flat.copy(), state.m.copy(), state.v.copy(), state.step)

    grads = {str(n): _random_tensor(gen, layout[n]) for n in gen.permutation(list(layout))}
    candidates = [n for n, g in grads.items() if g.size]
    poisoned = [n for n in candidates if gen.random() < 0.5] or [candidates[-1]]
    for name in poisoned:
        grads[name].reshape(-1)[gen.integers(grads[name].size)] = bad_value
    ref_params = {n: v.copy() for n, v in views.items()}
    with pytest.raises(TrainingError) as ref_err:
        reference_adam_step(reference_init(ref_params), ref_params, grads)
    assert f"tensor {next(n for n in grads if n in poisoned)!r}" in str(ref_err.value)

    # The flat step names the first poisoned tensor in layout order.
    expected = next(n for n in layout if n in poisoned)
    with pytest.raises(TrainingError, match=f"tensor {expected!r}$"):
        adam_step(state, flat, flatten_params({n: grads[n] for n in layout})[0])
    _assert_same_bits(flat, before[0], "params")
    _assert_same_bits(state.m, before[1], "m")
    _assert_same_bits(state.v, before[2], "v")
    assert state.step == before[3]


# ---------------------------------------------------------------------------
# train against the per-tensor training loop
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_pipeline(small_corpus_paths):
    trajectories = dataset_io.read_trajectories(small_corpus_paths["train"])
    return preprocess.run_pipeline(trajectories, n_val=1, seed=0)


@pytest.mark.parametrize("grad_clip", [None, 1.0])
@pytest.mark.parametrize("kind", ["mlp", "lstm"])
def test_train_matches_per_tensor_loop_bit_for_bit(small_pipeline, kind, grad_clip):
    config = TrainConfig(
        model=kind, epochs=2, seed=0, lstm_hidden=12, n_val=1, grad_clip=grad_clip
    )
    data = (small_pipeline.train_rows, small_pipeline.val_rows)

    ref_obj, ref_state, ref_train_mse, ref_val_mse = reference_train(
        config, *(replace(s, window=config.input_window) for s in data), SeededRng(config.seed)
    )
    params, state, history = train(config, *data, SeededRng(config.seed))

    assert history.train_mse == ref_train_mse
    assert history.val_mse == ref_val_mse
    flat = flatten_params(params.to_dict())[0]
    _assert_states_equal(flat, state, ref_obj.to_dict(), ref_state)
    # The returned tensors are float64 views of the one vector Adam updated.
    assert all(t.dtype == np.float64 for t in params.to_dict().values())
    bases = {id(t.base) for t in params.to_dict().values()}
    assert len(bases) == 1 and next(iter(params.to_dict().values())).base.size == flat.size


def test_clipping_changes_training(small_pipeline):
    """The clipped runs above are not vacuous: a bound of 1.0 does bind."""
    data = (small_pipeline.train_rows, small_pipeline.val_rows)
    runs = [
        train(TrainConfig(model="mlp", epochs=1, seed=0, n_val=1, grad_clip=clip),
              *data, SeededRng(0))
        for clip in (None, 1.0)
    ]
    assert runs[0][2].train_mse != runs[1][2].train_mse
