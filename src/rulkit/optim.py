"""Adam optimizer with bias correction, over dicts of parameter tensors.

Update rule per step t (canonical constants unless overridden):

    m <- beta1*m + (1-beta1)*g        m_hat = m / (1 - beta1^t)
    v <- beta2*v + (1-beta2)*g^2      v_hat = v / (1 - beta2^t)
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)

State round-trips losslessly through JSON and every checkpoint stores it,
but no command resumes training from it. The epoch-shuffle RNG state is not
saved either, so continuing from a checkpoint would not reproduce an
uninterrupted run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingError


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "step": self.step,
            "m": {k: arr.tolist() for k, arr in self.m.items()},
            "v": {k: arr.tolist() for k, arr in self.v.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AdamState":
        return cls(
            lr=d["lr"],
            beta1=d["beta1"],
            beta2=d["beta2"],
            eps=d["eps"],
            step=d["step"],
            m={k: np.array(v, dtype=np.float64) for k, v in d["m"].items()},
            v={k: np.array(v, dtype=np.float64) for k, v in d["v"].items()},
        )


def init_adam(
    params: dict[str, np.ndarray],
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """Zero-moment state shaped like `params`."""
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
        raise ConfigError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
    return AdamState(
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        step=0,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(
    state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
) -> None:
    """One in-place Adam update; aborts (state untouched) on non-finite grads."""
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


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm.

    Returns the pre-clip norm. No-op when already within bounds.
    """
    if max_norm <= 0:
        raise ConfigError(f"max_norm must be positive, got {max_norm}")
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total
