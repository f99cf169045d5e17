"""The stable sigmoid and the seeded RNG."""

import numpy as np
import pytest

from rulkit.errors import ConfigError
from rulkit.numerics import SeededRng, sigmoid


def test_sigmoid_hand_values():
    # sigmoid(0) = 1/2 exactly; the others computed independently.
    out = sigmoid(np.array([0.0, 1.0, -2.0]))
    assert out[0] == 0.5
    assert out[1] == pytest.approx(0.7310585786300049, rel=1e-15)
    assert out[2] == pytest.approx(0.11920292202211755, rel=1e-15)


def test_sigmoid_extreme_arguments_do_not_overflow():
    with np.errstate(over="raise", invalid="raise"):
        out = sigmoid(np.array([-1000.0, 1000.0]))
    assert out[0] == 0.0
    assert out[1] == 1.0


def test_sigmoid_keeps_float32():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 88.0, -88.0, 104.0, -104.0,
                  1000.0, -1000.0], dtype=np.float32)
    with np.errstate(over="raise"):
        out = sigmoid(x)
    assert out.dtype == np.float32
    assert np.isnan(out[4])
    finite = ~np.isnan(x)
    assert np.all((out[finite] >= 0.0) & (out[finite] <= 1.0))
    assert list(out[[0, 1, 2, 3, 9, 10]]) == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0]
    np.testing.assert_allclose(out, sigmoid(x.astype(np.float64)), rtol=1e-6, atol=1e-38)
    assert sigmoid(np.array([0.5, 2.0], dtype=np.float16)).dtype == np.float64


def test_sigmoid_symmetry():
    x = np.linspace(-30, 30, 101)
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, rtol=0, atol=1e-15)


def test_seeded_rng_is_deterministic():
    a = SeededRng(99).uniform(-1.0, 1.0, (3, 4))
    b = SeededRng(99).uniform(-1.0, 1.0, (3, 4))
    assert np.array_equal(a, b)
    assert np.array_equal(SeededRng(7).shuffle(10), SeededRng(7).shuffle(10))


def test_seeded_rng_seeds_differ():
    assert not np.array_equal(
        SeededRng(1).uniform(0.0, 1.0, 16), SeededRng(2).uniform(0.0, 1.0, 16)
    )


def test_uniform_respects_bounds():
    draws = SeededRng(3).uniform(2.0, 5.0, 10_000)
    assert draws.min() >= 2.0
    assert draws.max() < 5.0


def test_uniform_rejects_inverted_bounds():
    with pytest.raises(ConfigError, match="lo < hi"):
        SeededRng(0).uniform(1.0, 1.0, 3)


def test_shuffle_is_a_permutation():
    perm = SeededRng(11).shuffle(50)
    assert sorted(perm.tolist()) == list(range(50))


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="non-negative"):
        SeededRng(-1)
