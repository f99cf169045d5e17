"""The stable logistic function and the seeded RNG.

Matrices are float64 numpy arrays, or float32 where a model computes in
float32. All randomness in the toolkit (weight init, epoch shuffles, the
engine split) flows through SeededRng, which wraps numpy's PCG64 generator:
a documented, seedable algorithm with fixed constants, so identical seeds
give identical streams on any platform.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

Matrix = np.ndarray


def as_float(a) -> Matrix:
    """`a` as an array of its own dtype if that is float32, else as float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def sigmoid(m: Matrix, out: Matrix | None = None) -> Matrix:
    """Numerically stable logistic: never exponentiates a positive argument.

    With e = exp(-|m|) the result is 1 / (1 + e) where m >= 0 and
    e / (1 + e) elsewhere; the numerator max(e, m >= 0) picks 1 or e
    without a branch. `out` may be `m` itself, for an in-place update.
    """
    m = as_float(m)
    e = np.exp(np.minimum(m, -m))  # -|m| that keeps the sign of a NaN
    return np.divide(np.maximum(e, m >= 0), 1.0 + e, out=out)


class SeededRng:
    """Deterministic random source (numpy PCG64 behind a fixed-seed Generator)."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    @property
    def generator(self) -> np.random.Generator:
        """Underlying generator, for draws beyond uniform/shuffle."""
        return self._gen

    def uniform(self, lo: float, hi: float, shape: tuple[int, ...] | int) -> Matrix:
        """Uniform draws in [lo, hi); requires lo < hi."""
        if not lo < hi:
            raise ConfigError(f"uniform bounds require lo < hi, got lo={lo}, hi={hi}")
        return self._gen.uniform(lo, hi, size=shape).astype(np.float64, copy=False)

    def shuffle(self, n: int) -> np.ndarray:
        """Unbiased permutation of 0..n-1 (Fisher-Yates inside numpy)."""
        if n < 0:
            raise ConfigError(f"shuffle length must be >= 0, got {n}")
        return self._gen.permutation(n)
