"""Adam optimizer with bias correction, over one flat parameter vector.

While a model trains, its float64 master weights live in one contiguous
vector and its tensors are reshaped views of it (flatten_params); the model
may compute on a float32 copy. The gradients live the same way, in one
float64 vector with the same layout. The optimizer state mirrors it: `m`
and `v` are flat vectors of the same length, and `layout` names each tensor
and its shape, in vector order. A step updates the whole parameter vector
from the whole gradient vector with one sequence of ufuncs, so its cost
does not grow with the number of tensors.

Update rule per step t (canonical constants unless overridden):

    m <- beta1*m + (1-beta1)*g        m_hat = m / (1 - beta1^t)
    v <- beta2*v + (1-beta2)*g^2      v_hat = v / (1 - beta2^t)
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)

Every element goes through the same operations in the same order whatever
the grouping of the tensors, so a flat update is bit-identical to one run
tensor by tensor.

A checkpoint stores only the scalar settings and the step count, not `m`
and `v`: no command resumes training. The epoch-shuffle RNG state is not
saved either, so continuing from a checkpoint could not reproduce an
uninterrupted run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingError

Layout = dict[str, tuple[int, ...]]


def _layout(tensors: dict[str, np.ndarray]) -> Layout:
    return {name: np.shape(t) for name, t in tensors.items()}


def _views(flat: np.ndarray, layout: Layout) -> dict[str, np.ndarray]:
    """Consecutive slices of `flat`'s last axis, reshaped to the layout's
    shapes after any leading axes: a (..., n) array gives (..., *shape) views."""
    out, start, lead = {}, 0, flat.shape[:-1]
    for name, shape in layout.items():
        size = math.prod(shape)
        out[name] = flat[..., start : start + size].reshape(lead + shape)
        start += size
    return out


def flatten_params(
    tensors: dict[str, np.ndarray],
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Copy `tensors` into one contiguous float64 vector, in dict order.

    Returns the vector and views of it under the same names and shapes:
    updating the vector in place updates every view, and the reverse.
    """
    flat = np.empty(sum(np.size(t) for t in tensors.values()))
    views = _views(flat, _layout(tensors))
    for name, t in tensors.items():
        views[name][...] = t
    return flat, views


def unflatten(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views of `flat` under the names and shapes of `like`, in flatten_params'
    order. A (S, n) stack of flat vectors gives (S, *shape) views: S parameter
    sets, one per row."""
    return _views(flat, _layout(like))


@dataclass
class AdamState:
    layout: Layout  # tensor name -> shape, in flat-vector order
    m: np.ndarray  # (n,) first moments
    v: np.ndarray  # (n,) second moments
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0


def init_adam(
    params: dict[str, np.ndarray],
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """Zero-moment state laid out like `params` (names, shapes, dict order)."""
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
        raise ConfigError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
    n = sum(np.size(p) for p in params.values())
    return AdamState(
        _layout(params), np.zeros(n), np.zeros(n), lr=lr, beta1=beta1, beta2=beta2, eps=eps
    )


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> None:
    """One in-place Adam update of the flat vector `params` from the flat
    gradient `grad`, both laid out as `state.layout`.

    A non-finite gradient raises TrainingError naming the first tensor, in
    layout order, that holds one, and leaves everything untouched.
    """
    if params.shape != state.m.shape or grad.shape != state.m.shape:
        raise ConfigError(
            f"parameter vector of shape {params.shape} and gradient of shape "
            f"{grad.shape} do not match optimizer state of shape {state.m.shape}"
        )
    if not np.isfinite(grad).all():
        bad = next(n for n, t in _views(grad, state.layout).items() if not np.isfinite(t).all())
        raise TrainingError(f"non-finite gradient in tensor {bad!r}")

    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * (grad * grad)
    params -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm.

    Returns the pre-clip norm. No-op when already within bounds. The
    per-tensor squared norms are summed in dict order.
    """
    if max_norm <= 0:
        raise ConfigError(f"max_norm must be positive, got {max_norm}")
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total
